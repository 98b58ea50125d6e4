"""Exception taxonomy shared across the package."""


class GenShiftError(Exception):
    """Base class for every error raised by this package."""


class ConstructionError(GenShiftError, ValueError):
    """Invalid construction input: bad image table, bad size, bad rule param."""


class DomainError(GenShiftError, ValueError):
    """Index outside an index set, or two objects with mismatched domains."""


class ParseError(GenShiftError, ValueError):
    """Malformed map or vector document."""


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
