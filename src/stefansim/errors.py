"""Exception types shared across the simulator."""


class StefansimError(Exception):
    """Base class for simulator errors."""


class GridMismatch(StefansimError):
    """Two objects built on different grids were combined."""


class WindowUnresolved(StefansimError):
    """The averaging window 1/n is too small for the grid spacing."""


class BoundaryLeftWindow(StefansimError):
    """The boundary position left the ambient noise window."""


class NonFiniteState(StefansimError):
    """A time step produced NaN or infinite values."""


class ConfigError(StefansimError):
    """Invalid experiment configuration."""
