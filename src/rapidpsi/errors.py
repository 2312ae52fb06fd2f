"""Error types shared across the library and mapped to CLI exit codes."""


class ToleranceError(RuntimeError):
    """Requested tolerance cannot be reached in double precision within caps."""
