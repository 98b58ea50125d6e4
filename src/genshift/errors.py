"""Exception taxonomy shared across the package: one class per CLI exit code from 2 to 5."""


class GenShiftError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GenShiftError, ValueError):
    """A malformed map or vector document, or an argument outside its range: a bad image
    table, size, rule, window or count, an index outside a domain, or mismatched domains."""


class IntegrityError(GenShiftError, RuntimeError):
    """A symbolic rule contradicts its own declared certificate."""


class UnsupportedError(GenShiftError, RuntimeError):
    """Operation precondition not met for this map; a search that hits its budget is one."""


class NotInL2(GenShiftError, ValueError):
    """The image repeats the entry at support index ``index`` infinitely often."""

    def __init__(self, index: int):
        super().__init__(index)  # args == (index,), so a copy or a pickle rebuilds it
        self.index = index

    def __str__(self) -> str:
        return f"support index {self.index} has an infinite fiber"
