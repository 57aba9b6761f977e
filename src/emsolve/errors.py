"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value lies outside its domain.

    Raised for a time or log-SNR value outside the schedule's domain (a table's
    ``lam_range`` included) and for a sampler state with non-finite entries.
    """


class ConvergenceError(RuntimeError):
    """The adaptive reference integrator failed to reach the requested tolerance."""


class TableFormatError(ValueError):
    """A statistics-table file is malformed or inconsistent."""


class UnsupportedVersionError(TableFormatError):
    """A statistics-table file declares a version this code does not read."""
