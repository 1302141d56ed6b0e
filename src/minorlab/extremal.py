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

from .errors import ConstructionError, InputError, check_integers, checked_record
from .families import (
    _CHUNK_DRAWS,
    _bernoulli_marks,
    _check_part_sizes,
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
        _check_part_sizes((self.a, self.b))
        check_integers(seed=self.seed)
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"edge probability must be in [0, 1], got {self.p}")


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
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")

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
    """(1 - eps) (lambda / sqrt 2) t sqrt(log t) sqrt(ab)."""
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
    check_integers(t=t)
    if not (isinstance(a, int) and isinstance(b, int)):
        raise InputError("part sizes must be integers")
    if t < 3:
        raise InputError(f"t must be at least 3, got {t}")
    if a < t or b < t:
        raise InputError(f"both sides must have at least t = {t} vertices")
    if not 0 < eps <= 1:
        raise InputError(f"eps must be in (0, 1], got {eps}")
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
    check_integers(seed=seed)
    if t < 3:
        raise InputError(f"t must be at least 3, got {t}")
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
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

    Emits only the values whose inputs were supplied; each out-of-range
    parameter raises an input error naming the violated constraint.
    """
    if t < 3:
        raise InputError(f"t >= 3 is required, got t = {t}")
    if beta is not None and not 0.25 < beta <= 0.5:
        raise InputError(f"beta must lie in (1/4, 1/2], got {beta}")
    if delta is not None and delta <= 0:
        raise InputError(f"delta must be positive, got {delta}")
    if eps is not None and not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if q is not None and not 0 <= q <= 1:
        raise InputError(f"q must lie in [0, 1], got {q}")
    if l is not None and l < 1:
        raise InputError(f"l must be at least 1, got {l}")
    if p is not None and not 0 < p < 1:
        raise InputError(f"p must lie in (0, 1), got {p}")
    if a is not None and a < 0 or b is not None and b < 0:
        raise InputError("part sizes must be non-negative")
    if k is not None and k < 1:
        raise InputError(f"k must be at least 1, got {k}")

    inputs: dict[str, Any] = {"t": t, "c_bipartite": c_bipartite}
    for name, val in (
        ("beta", beta),
        ("delta", delta),
        ("eps", eps),
        ("a", a),
        ("b", b),
        ("k", k),
        ("q", q),
        ("l", l),
        ("p", p),
        ("n_vertices", n_vertices),
        ("graph_density", graph_density),
    ):
        if val is not None:
            inputs[name] = val

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
