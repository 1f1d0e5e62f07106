"""Exception types and setting type checks shared across the package."""


class OfnSyntaxError(ValueError):
    """Malformed `.ofn` input. Carries 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedConstructError(OfnSyntaxError):
    """Syntactically OWL, but outside the supported axiom/expression subset."""

    def __init__(self, construct: str, line: int, column: int):
        super().__init__(f"unsupported construct: {construct}", line, column)
        self.construct = construct


class InvariantError(RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def check_int(name: str, value) -> None:
    """Raise ValueError unless setting `name` is an int (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def check_real(name: str, value) -> None:
    """Raise ValueError unless setting `name` is an int or a float (a bool
    is neither)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, not {value!r}")
