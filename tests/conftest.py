import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance and order PASS/FAIL lines after the run (capture-proof)."""
    lines = [line for name in ("test_acceptance", "test_solver")
             for line in getattr(sys.modules.get(name), "REPORT_LINES", [])]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
