"""Error types shared across the library and mapped to CLI exit codes."""


class ToleranceError(RuntimeError):
    """Requested tolerance cannot be reached in double precision within caps."""


class GuardBandError(ValueError):
    """Argument falls inside the removable-singularity band of an operation
    that excludes it; ``suggestion`` names the alternative call."""

    def __init__(self, message: str, suggestion: str = ""):
        super().__init__(message)
        self.suggestion = suggestion
