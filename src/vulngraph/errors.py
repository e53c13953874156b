"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1, bad
input data exits 2, anything else exits 3.
"""


class VulnGraphError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(VulnGraphError):
    """Invalid configuration value or unparseable config file."""


class DataError(VulnGraphError):
    """Invalid dataset content: malformed records, bad labels, bad files."""


class LexError(DataError):
    """Source text could not be lexed, on the line that the message
    names: a file's line for a file's lex."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphBuildError(DataError):
    """Token graph construction failed (e.g. unbalanced parentheses)."""


class ShapeError(VulnGraphError):
    """Operands do not conform: mismatched shapes, or ids out of range."""


class GradientError(VulnGraphError):
    """Non-finite values in a pass, or a misused tape or parameter set."""


class TrainingError(VulnGraphError):
    """Training aborted (non-finite loss, bad split, ...)."""


class AttributionError(VulnGraphError):
    """Token attribution could not be computed as requested."""
