"""The two roots of every error the package raises.

``InputError`` marks a request outside the contract of the operation: a
parameter, config, grid or precondition the computation cannot take.
``NumericalError`` marks a computation that failed on admissible input.  The
command line maps the first to exit code 2 and the second to exit code 3.
"""


class InputError(ValueError):
    """A parameter, config, grid or precondition is outside the contract."""


class NumericalError(RuntimeError):
    """A computation failed on admissible input."""
