"""Exception taxonomy shared across the package."""


class SpptagError(Exception):
    """Base class for all package errors."""


class ConfigError(SpptagError):
    """Invalid experiment configuration text.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class AnalysisError(SpptagError):
    """Correlation analysis cannot produce a defined result."""


class DomainError(SpptagError):
    """Requested evaluation outside a tabulated or physical domain."""


class FitError(SpptagError):
    """Parameter estimation failed to converge or is ill-posed."""


class TagFileError(SpptagError):
    """Tag file is missing its header, malformed or inconsistent."""
