"""Exception types shared across the library, and the one input check.

Every numeric argument of a public entry goes through :func:`check_inputs`,
which checks its type (``int``, or a real number) and, under a rule, its
range; a value that fails raises :class:`InputError` "<name> <words>, got
<value>", with <name> the parameter as the signature spells it.  The shared
rules are the constants below.
"""


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


#: A rule is a ``(test, words, finite)`` triple for :func:`check_inputs`: a
#: value passes when ``test(value)`` holds, and, when `finite` is set, NaN,
#: an infinity and an int or Fraction too large for a float fail first, with
#: the words "must be finite".  An interval's own bounds keep NaN and the
#: infinities out, so only the rules unbounded above need the flag.
AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1", False)
AT_LEAST_6 = (lambda v: v >= 6, "must be at least 6", False)
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative", False)
POSITIVE = (lambda v: v > 0, "must be positive", False)
FINITE_AT_LEAST_1 = (*AT_LEAST_1[:2], True)
FINITE_AT_LEAST_3 = (lambda v: v >= 3, "must be at least 3", True)
FINITE_NON_NEGATIVE = (*NON_NEGATIVE[:2], True)
FINITE_POSITIVE = (*POSITIVE[:2], True)
UNIT_INTERVAL = (lambda v: 0 <= v <= 1, "must lie in [0, 1]", False)
OPEN_UNIT_INTERVAL = (lambda v: 0 < v < 1, "must lie in (0, 1)", False)
HALF_OPEN_UNIT_INTERVAL = (lambda v: 0 < v <= 1, "must lie in (0, 1]", False)

_INF = float("inf")


def check_inputs(kind: type, rule: tuple | None = None, /, **values: object) -> None:
    """Check each keyword's value, in order, and raise InputError for the first
    that fails: "<name> must be an integer, got <value!r>" when `kind` is
    ``int`` and the value is not an int; "<name> must be a real number, got
    <value!r>" when `kind` is ``float`` and the value's type has no
    ``__float__`` (int, float and Fraction have one; a str, None or complex
    has not); then, under `rule`, "<name> <words>, got <value>".  Callers
    run it at entry, before a value reaches ``range``, ``[0] * n``, a
    comparison or a formula, which would raise a bare TypeError or
    OverflowError or quietly compute with it."""
    for name in values:  # faster than .items() on the one-value calls of hot entries
        value = values[name]
        if not (isinstance(value, int) if kind is int else hasattr(type(value), "__float__")):
            noun = "an integer" if kind is int else "a real number"
            raise InputError(f"{name} must be {noun}, got {value!r}")
        if rule is None:
            continue
        test, words, finite = rule
        if finite and not _is_finite(value):
            words = "must be finite"
        elif test(value):
            continue
        raise InputError(f"{name} {words}, got {value}")


def _is_finite(value: object) -> bool:
    try:
        return -_INF < float(value) < _INF  # False for NaN
    except OverflowError:  # an int or Fraction too large for a float
        return False


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
