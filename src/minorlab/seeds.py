"""Deterministic seed derivation for batched randomized procedures.

Every randomized operation takes a single integer master seed.  Batches of
trials derive one seed per trial index with :func:`derive_seed` (a splitmix64
step), and each trial runs its own ``random.Random`` instance.  Because the
per-trial seed depends only on ``(master, index)``, trials may run in any
order, or on a worker pool, and still reproduce a sequential run bit for bit.
"""

from __future__ import annotations

from .errors import check_inputs

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Seed for trial `index` of a batch driven by `master`."""
    check_inputs(int, seed=master)  # `&` below would raise a bare TypeError
    z = (master + _GOLDEN * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
