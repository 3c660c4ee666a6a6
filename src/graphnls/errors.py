"""The package's two exception types, one per exit code of the CLI.

DomainError says an argument lies outside the domain where the quantity
is defined, or that the grid cannot hold it; it also derives from
ValueError, and the CLI exits 2.  Any other GraphNLSError says a run or
a check failed on valid input, and the CLI exits 1.  The message names
the failure and every number it depends on.
"""


class GraphNLSError(Exception):
    """A run or a check failed (CLI exit code 1)."""


class DomainError(GraphNLSError, ValueError):
    """A numeric argument is outside the domain where the quantity is defined
    (CLI exit code 2)."""
