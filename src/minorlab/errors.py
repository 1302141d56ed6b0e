"""Exception types shared across the library, and the checks that raise them."""


class InputError(ValueError):
    """Malformed input: bad vertex ids, loops, overlapping parts, parse errors."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold for the given input."""


class BudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget before reaching a verdict.

    This is always inconclusive, never a wrong answer.  `steps` is the number
    of search steps spent and `n` the number of vertices being searched (for
    the minor search, the block the budget ran out in).
    """

    def __init__(self, search: str, steps: int, n: int) -> None:
        super().__init__(search, steps, n)
        self.steps = steps
        self.n = n

    def __str__(self) -> str:
        return f"{self.args[0]} spent its budget of {self.steps} steps on {self.n} vertices"


class HallRatioViolation(RuntimeError):
    """A subgraph witnesses a Hall ratio larger than the promised bound."""


class InvariantViolation(RuntimeError):
    """An internal invariant that the theory guarantees was observed to fail.

    Raising this signals an implementation bug, not a property of the input.
    """


class ConstructionError(RuntimeError):
    """A randomized construction degenerated (for example zero-width blocks)."""


def check_integers(**values: object) -> None:
    """Raise InputError("<name> must be an integer, got <value>") for the
    first keyword whose value is not an int; callers run it before a count
    reaches ``range`` or ``[0] * n``, which would raise a bare TypeError."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise InputError(f"{name} must be an integer, got {value!r}")


def checked_record(record: type) -> type:
    """Class decorator: the NamedTuple runs its `_check` on every record built,
    by `_make` and `_replace` too (a NamedTuple body may not set either)."""
    new = record.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    __new__.__wrapped__ = new  # so inspect.signature and help show the fields
    record.__new__ = staticmethod(__new__)
    record._make = classmethod(lambda cls, fields: cls(*fields))
    return record
