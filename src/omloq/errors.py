"""Shared exception types."""


class OmloqError(Exception):
    """Base class for all package errors."""


class LatticeParseError(OmloqError):
    """Raised when a lattice description is malformed or not a lattice.

    ``line`` is 1-based; 0 means the error is not tied to a single line.
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class SizeExceeded(OmloqError):
    """An enumeration or closure would exceed its configured cap."""

    def __init__(self, count: int, cap: int, what: str = "estimated candidates"):
        self.count = count
        self.cap = cap
        self.what = what
        super().__init__(f"{what}: {count} exceeds cap {cap}")


class SuiteFailure(OmloqError):
    """A verification suite failed while building a handle; the instance
    falsifies the construction, which should never happen on valid input."""

    def __init__(self, message: str, report):
        self.report = report  # the ValidationReport that failed
        super().__init__(message)
