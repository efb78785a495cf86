"""Lattice walks confined to the nonnegative orthant.

The Gessel step family in dimension d consists of the d prefix vectors
(1,0,..,0), (1,1,0,..,0), ..., (1,..,1) and their negatives; for d=2 these
are (1,1), (1,0), (-1,0), (-1,-1).  Counting is plain layer-by-layer DP
over the box [0, extent)^d, which is an independent route from both the
word enumeration and the closed forms.

Counts stay exact: layers use int64 while |steps|^length fits, otherwise
Python integers in an object array.  Either way each step is the same
numpy slice shift, one array add per step vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import CapExceededError

DEFAULT_MAX_CELLS = 20_000_000


def gessel_steps(d: int) -> frozenset[tuple[int, ...]]:
    """The 2d Gessel steps in dimension d."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    ups = []
    for k in range(1, d + 1):
        ups.append(tuple([1] * k + [0] * (d - k)))
    downs = [tuple(-x for x in v) for v in ups]
    return frozenset(ups + downs)


def _sorted_steps(steps: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(int(x) for x in s) for s in steps))


@dataclass(frozen=True)
class WalkCountTable:
    """Endpoint counts after a fixed number of confined steps."""

    dimension: int
    length: int
    start: tuple[int, ...]
    counts: dict[tuple[int, ...], int]

    def count(self, point: Sequence[int]) -> int:
        return self.counts.get(tuple(point), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _advance(layer, steps):
    out = np.zeros_like(layer)
    shape = layer.shape
    for s in steps:
        src = []
        dst = []
        ok = True
        for ax, dx in enumerate(s):
            n = shape[ax]
            lo_src, hi_src = max(0, -dx), n - max(0, dx)
            if lo_src >= hi_src:
                ok = False
                break
            src.append(slice(lo_src, hi_src))
            dst.append(slice(max(0, dx), n - max(0, -dx)))
        if ok:
            out[tuple(dst)] += layer[tuple(src)]
    return out


def _run_dp(d, steps, length, start, max_cells):
    steps = _sorted_steps(steps)
    if not steps:
        raise ValueError("step set must be nonempty")
    if any(len(s) != d for s in steps):
        raise ValueError("every step must have dimension d")
    max_up = [max(0, max(s[ax] for s in steps)) for ax in range(d)]
    extent = [start[ax] + length * max_up[ax] + 1 for ax in range(d)]
    cells = 1
    for e in extent:
        cells *= e
    if cells > max_cells:
        raise CapExceededError(
            f"DP lattice of {cells} cells exceeds cap {max_cells}"
        )
    # every cell is bounded by the |steps|^length walks in total
    dtype = np.int64 if len(steps) ** length < 2**62 else object
    layer = np.zeros(tuple(extent), dtype=dtype)
    layer[tuple(start)] = 1
    yield layer
    for _ in range(length):
        layer = _advance(layer, steps)
        yield layer


def _normalize(d, steps, start):
    if steps is None:
        steps = gessel_steps(d)
    if start is None:
        start = (0,) * d
    start = tuple(int(x) for x in start)
    if len(start) != d or any(x < 0 for x in start):
        raise ValueError("start must be a nonnegative point of dimension d")
    return steps, start


def count_confined_walks(
    d: int,
    length: int,
    *,
    steps: Iterable[Sequence[int]] | None = None,
    start: Sequence[int] | None = None,
    end: Sequence[int] | None = None,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> int:
    """Walks of the given length from start to end staying in the orthant."""
    if length < 0:
        raise ValueError("length must be >= 0")
    steps, start = _normalize(d, steps, start)
    if end is None:
        end = (0,) * d
    end = tuple(int(x) for x in end)
    if len(end) != d:
        raise ValueError("end must have dimension d")
    if any(x < 0 for x in end):
        return 0
    layer = None
    for layer in _run_dp(d, steps, length, start, max_cells):
        pass
    if any(e >= s for e, s in zip(end, layer.shape)):
        return 0
    return int(layer[end])


def walk_count_table(
    d: int,
    length: int,
    *,
    steps: Iterable[Sequence[int]] | None = None,
    start: Sequence[int] | None = None,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> WalkCountTable:
    steps, start = _normalize(d, steps, start)
    layer = None
    for layer in _run_dp(d, steps, length, start, max_cells):
        pass
    counts = {}
    for idx in np.argwhere(layer != 0):
        pt = tuple(int(x) for x in idx)
        counts[pt] = int(layer[pt])
    return WalkCountTable(d, length, start, counts)


def g_sequence(
    d: int,
    n_max: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> list[int]:
    """Origin-to-origin Gessel walk counts [G(0), ..., G(n_max)] (2n steps each).

    One DP sweep of 2*n_max steps, reading the origin after each even step.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    steps, start = _normalize(d, None, None)
    origin = (0,) * d
    out = []
    for t, layer in enumerate(_run_dp(d, steps, 2 * n_max, start, max_cells)):
        if t % 2 == 0:
            out.append(int(layer[origin]))
    return out
