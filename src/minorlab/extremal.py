"""Random bipartite constructions and closed-form bound evaluators.

The generators here produce the graphs certifying that the library's density
and connectivity bounds are tight at the right order: blocks of sparse random
bipartite graphs with the extremal edge probability, and random bipartite
graphs whose connectivity concentrates at half the smaller side.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Any, NamedTuple

from .errors import (
    FINITE_AT_LEAST_1,
    FINITE_AT_LEAST_3,
    FINITE_NON_NEGATIVE,
    FINITE_POSITIVE,
    HALF_OPEN_UNIT_INTERVAL,
    NON_NEGATIVE,
    OPEN_UNIT_INTERVAL,
    UNIT_INTERVAL,
    ConstructionError,
    check_inputs,
    checked_record,
)
from .families import (
    _CHUNK_DRAWS,
    _bernoulli_marks,
    _cut,
    _place_block,
    complete_bipartite,
)
from .graphs import Graph, from_rows
from .seeds import derive_seed

#: Bracket for the density-constant maximisation.
_LAMBDA_BRACKET = (1e-9, 10.0)


@checked_record
class BipartiteSpec(NamedTuple):
    """Seeded random bipartite graph: parts of sizes a and b, i.i.d. edges."""

    a: int
    b: int
    p: float
    seed: int = 0

    def _check(self) -> None:
        check_inputs(int, NON_NEGATIVE, a=self.a, b=self.b)
        check_inputs(float, UNIT_INTERVAL, p=self.p)
        check_inputs(int, seed=self.seed)


def _place_bipartite(
    adj: list[int], left: int, right: int, a: int, b: int, seed: int,
    cut: tuple[int, bytes, bytes],
) -> None:
    """Add the edges of ``BipartiteSpec(a, b, p, seed)`` to `adj`, its left
    part at ids left.., its right part at ids right..; `cut` is ``_cut(p)``.

    Edge (i, j) is present when the Bernoulli draw ``random() < p`` holds,
    drawn from ``random.Random(seed)`` in row-major order (left index, then
    right index) and read in bulk, exactly (see
    :func:`~minorlab.families._bernoulli_marks`), in chunks of rows.
    """
    if not a or not b:
        return
    getrandbits = random.Random(seed).getrandbits
    rows = _CHUNK_DRAWS // b or 1
    for r0 in range(0, a, rows):
        n = min(rows, a - r0) * b
        _place_block(adj, _bernoulli_marks(getrandbits, n, cut), b, left + r0, right)


def gen_bipartite(spec: BipartiteSpec) -> Graph:
    """Sample the random bipartite graph described by `spec`.

    Vertices 0..a-1 form the left part, a..a+b-1 the right part.  Bernoulli
    draws come from ``random.Random(spec.seed)`` in row-major order (left
    index, then right index), so the output is bit-identical across runs for
    identical specs.
    """
    adj = [0] * (spec.a + spec.b)
    _place_bipartite(adj, 0, spec.a, spec.a, spec.b, spec.seed, _cut(spec.p))
    return from_rows(adj)


def lambda_constant(tol: float = 1e-6) -> tuple[float, float]:
    """Maximize (1 - e^-x) / sqrt(x) over x > 0 by golden-section search.

    Returns (value, argmax); the value is within `tol` of the true maximum
    0.63817..., and the argmax satisfies the stationarity condition
    2 x e^-x = 1 - e^-x to comparable accuracy.
    """
    check_inputs(float, FINITE_POSITIVE, tol=tol)  # NaN would end the search untried

    def f(x: float) -> float:
        return (1.0 - math.exp(-x)) / math.sqrt(x)

    lo, hi = _LAMBDA_BRACKET
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol * 1e-2:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    x_star = (lo + hi) / 2.0
    return f(x_star), x_star


@functools.cache
def _lambda() -> tuple[float, float]:
    return lambda_constant(1e-9)


def lower_bound_edge_target(a: int, b: int, t: int, eps: float) -> float:
    """(1 - eps) (lambda / sqrt 2) t sqrt(log t) sqrt(ab), for finite t >= 3,
    eps in (0, 1] and finite a, b >= 0."""
    check_inputs(float, FINITE_NON_NEGATIVE, a=a, b=b)
    check_inputs(float, FINITE_AT_LEAST_3, t=t)
    check_inputs(float, HALF_OPEN_UNIT_INTERVAL, eps=eps)
    lam, _ = _lambda()
    return (1 - eps) * lam / math.sqrt(2) * t * math.sqrt(math.log(t)) * math.sqrt(a * b)


def lower_bound_bipartite(a: int, b: int, t: int, eps: float, seed: int = 0) -> Graph:
    """Dense bipartite graph of the lower-bound construction: k disjoint
    random blocks.

    Uses the extremal edge probability p = 1 - e^(-x*) where x* maximizes
    (1 - e^-x)/sqrt(x), splits each side into k = ceil(sqrt((1 - eps/4)
    (-2 log(1-p)) ab / (t^2 log t))) blocks, samples block i as
    ``gen_bipartite`` would with seed ``derive_seed(seed, i)``, and pads with
    isolated vertices up to exactly a + b vertices (the highest ids on each
    side stay isolated).

    The graph avoids K_t minors only asymptotically, as t grows; at small t
    it often has one.  For seeds 0-9, a = b = 60 at t = 5 had a K_5 minor on
    every seed and a = b = 30 at t = 6 a K_6 minor on 6 of them, while
    a = b = 30 and 60 at t = 4 were K_4-minor-free on every seed.
    """
    check_inputs(int, FINITE_AT_LEAST_3, t=t)
    check_inputs(int, (lambda v: v >= t, f"must be at least t = {t}", True), a=a, b=b)
    check_inputs(float, HALF_OPEN_UNIT_INTERVAL, eps=eps)
    _, x_star = _lambda()
    p = 1.0 - math.exp(-x_star)
    two_log_q = 2.0 * x_star  # -2 log(1 - p)
    k = math.ceil(
        math.sqrt((1 - eps / 4) * two_log_q * a * b / (t * t * math.log(t)))
    )
    a_blk, b_blk = a // k, b // k
    if a_blk == 0 or b_blk == 0:
        raise ConstructionError(
            f"k = {k} blocks leave a zero-width side (a'={a_blk}, b'={b_blk}); "
            f"the sides a={a}, b={b} are too small for t={t}, eps={eps}"
        )
    adj = [0] * (a + b)
    cut = _cut(p)
    for i in range(k):
        _place_bipartite(adj, i * a_blk, a + i * b_blk, a_blk, b_blk, derive_seed(seed, i), cut)
    return from_rows(adj)


def connectivity_extremal(t: int, k: int, seed: int = 0) -> Graph:
    """Graph with connectivity at least k and close to t^2 log t / k vertices.

    For k <= t - 2 the complete bipartite graph K_{a, t-2} already works;
    otherwise sample the random bipartite graph with sides a = ceil(t^2 log t
    / 6k) and b = 3k at edge probability 1/2.
    """
    check_inputs(int, FINITE_AT_LEAST_3, t=t)
    check_inputs(int, FINITE_AT_LEAST_1, k=k)
    check_inputs(int, seed=seed)
    a = math.ceil(t * t * math.log(t) / (6 * k))
    if k <= t - 2:
        return complete_bipartite(a, t - 2)
    b = 3 * k
    return gen_bipartite(BipartiteSpec(a, b, 0.5, seed))


# ---------------------------------------------------------------------------
# Bound evaluation
# ---------------------------------------------------------------------------


class BoundReport(NamedTuple):
    """Closed-form bound values and verdicts, all pure functions of `inputs`."""

    inputs: dict[str, Any]
    values: dict[str, float]
    verdicts: dict[str, bool]

    def as_dict(self) -> dict[str, Any]:
        return {name: dict(table) for name, table in self._asdict().items()}


#: One row per keyword input of :func:`eval_bounds`: its name, its type
#: (``int`` or ``float``, what the library checks and the CLI parses) and its
#: :func:`~minorlab.errors.check_inputs` rule; every rule keeps out NaN, the
#: infinities and an int too large for a float.
BOUND_INPUTS = (
    ("beta", float, (lambda v: 0.25 < v <= 0.5, "must lie in (1/4, 1/2]", False)),
    ("delta", float, FINITE_POSITIVE),
    ("eps", float, OPEN_UNIT_INTERVAL),
    ("a", int, FINITE_NON_NEGATIVE),
    ("b", int, FINITE_NON_NEGATIVE),
    ("k", int, FINITE_AT_LEAST_1),
    ("q", float, UNIT_INTERVAL),
    ("l", int, FINITE_AT_LEAST_1),
    ("p", float, OPEN_UNIT_INTERVAL),
    ("n_vertices", int, FINITE_NON_NEGATIVE),
    ("graph_density", float, FINITE_NON_NEGATIVE),
    ("c_bipartite", float, FINITE_POSITIVE),
)


def eval_bounds(
    t: int,
    *,
    beta: float | None = None,
    delta: float | None = None,
    eps: float | None = None,
    a: int | None = None,
    b: int | None = None,
    k: int | None = None,
    q: float | None = None,
    l: int | None = None,
    p: float | None = None,
    n_vertices: int | None = None,
    graph_density: float | None = None,
    c_bipartite: float = 6400.0,
) -> BoundReport:
    """Evaluate every closed-form bound the library works with.

    Emits only the values whose inputs were supplied.  Each input is checked
    against its row of :data:`BOUND_INPUTS`; a value of the wrong type, out
    of its range, NaN, infinite or too large for a float raises an input
    error naming the input.
    """
    supplied = locals()  # the arguments only, taken before any other local is bound
    check_inputs(float, FINITE_AT_LEAST_3, t=t)
    inputs: dict[str, Any] = {"t": t}
    for name, kind, rule in BOUND_INPUTS:
        value = supplied[name]
        if value is None and eval_bounds.__kwdefaults__[name] is None:
            continue  # not supplied
        check_inputs(kind, rule, **{name: value})
        inputs[name] = value

    values: dict[str, float] = {}
    verdicts: dict[str, bool] = {}
    logt = math.log(t)

    values["density_forcing_threshold"] = 3.2 * t * math.sqrt(logt)
    if graph_density is not None:
        verdicts["density_forces_minor"] = (
            graph_density >= values["density_forcing_threshold"]
        )

    if a is not None and b is not None and n_vertices is not None:
        values["bipartite_density_rhs"] = (
            c_bipartite * t * math.sqrt(logt) * math.sqrt(a * b)
            + (t - 2) * n_vertices
        )

    if beta is not None and delta is not None:
        values["connected_size_bound"] = t * logt ** (3 - 5 * beta + delta)

    if q is not None and l is not None:
        values["dense_condition_lhs"] = 6 * t * (70 * q) ** (l * l)
        verdicts["dense_condition_holds"] = values["dense_condition_lhs"] <= 1

    if eps is not None and p is not None:
        values["random_regime_rhs"] = (
            (1 - eps) / (-2 * math.log(1 - p)) * t * t * logt
        )
        if a is not None and b is not None:
            verdicts["random_regime_holds"] = a * b <= values["random_regime_rhs"]

    if eps is not None and a is not None and b is not None:
        values["lower_bound_edge_target"] = lower_bound_edge_target(a, b, t, eps)

    if n_vertices is not None:
        values["independence_lower_bound"] = n_vertices / (2 * (t - 1))

    if k is not None:
        values["connectivity_size_lower"] = t * t * logt / (6 * k)

    return BoundReport(inputs=inputs, values=values, verdicts=verdicts)
