"""Lattice walks confined to the nonnegative orthant.

The Gessel step family in dimension d consists of the d prefix vectors
(1,0,..,0), (1,1,0,..,0), ..., (1,..,1) and their negatives; for d=2 these
are (1,1), (1,0), (-1,0), (-1,-1).  Counting is plain layer-by-layer DP
over the orthant, which is an independent route from both the word
enumeration and the closed forms.

Each layer covers only the live region [0, hi_t] per axis.  A coordinate
rises by at most max_up per step, so hi_t = start + t*max_up; when the
endpoint is known it also falls by at most max_down per step, so hi_t is
further capped at end + (length-t)*max_down.  Every cell that can carry a
walk to that endpoint lies inside the region, so the counts read there are
exact; for a walk returning to the origin the region is the wedge
min(t, length-t) per axis.  The cell cap still applies to the full box
start + length*max_up + 1.

Within that region a layer holds only the coset a walk can occupy.  On
each axis let g be the gcd of the differences between the steps'
components there.  After t steps every walk from start sits at
start + t*steps[0] modulo g, so index i of a layer stands for coordinate
r_t + g*i, with r_t that residue in [0, g).  Every Gessel step moves the
first coordinate by +-1, so g = 2 there and x_1 = t (mod 2): each layer
holds half the cells of the region.  On an axis where every step moves
alike (g = 0) the coordinate is start + t*steps[0] exactly, and the layer
holds that one cell, or none once it is negative.  A step s then shifts
the index by (r_t + s - r_{t+1}) / g, an integer (0 when g = 0).  The
cell cap still counts the full box, not the coset; a second cap bounds the
sweep's predicted work, and both are checked before the first step.

Counts stay exact in int64 arithmetic: a layer is a list of int64 limb
arrays of the layer shape, and a cell holds sum(limb[k] * 2^(B*k))
with B = 62 - bit_length(|steps|).  Every limb but the top one lies in
[0, 2^B).  A step shifts each limb by every step's index shift (one numpy
slice add per step), appends a zero top limb when |steps| times the
largest top value could pass 2^B - 1, and runs one carry pass that moves
each limb's bits above B into the next.  No limb enters a step at 2^(B+1)
or more, so every sum stays below |steps| * 2^(B+1) < 2^63.  Python
integers are rebuilt only for the cells that are read.

numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, log2, prod
from typing import Iterable, Sequence

from .exceptions import CapExceededError

DEFAULT_MAX_CELLS = 20_000_000
# Predicted work of one sweep, in cell updates (see _run_dp).  The largest
# d=2 origin sweep under it, n = 678, ran 26 s on a 2-vCPU host.
DEFAULT_MAX_WORK = 20_000_000_000


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


def _limb_bits(steps) -> int:
    """Bits B held by each limb below the top; |steps| * 2^(B+1) < 2^63."""
    return 62 - len(steps).bit_length()


def _moves(in_shape, out_shape, shifts):
    """(source, target) slice pairs that shift a layer of in_shape by each
    index shift into a layer of out_shape, dropping what lands outside it."""
    out = []
    for s in shifts:
        src = []
        dst = []
        for n_src, n_dst, dx in zip(in_shape, out_shape, s):
            lo, hi = max(0, -dx), min(n_src, n_dst - dx)
            if lo >= hi:
                break
            src.append(slice(lo, hi))
            dst.append(slice(lo + dx, hi + dx))
        else:
            out.append((tuple(src), tuple(dst)))
    return out


def _cell(point, coset, shape):
    """The layer index of point, or None when the layer does not hold it."""
    index = []
    for x, (r, g), n in zip(point, coset, shape):
        i, off = divmod(x - r, g) if g else (0, x - r)
        if off or not 0 <= i < n:
            return None
        index.append(i)
    return tuple(index)


def _run_dp(d, steps, length, start, end=None):
    """Yield (coset, limbs) for the walk counts after 0..length steps from start.

    coset holds (r_t, g) per axis, and index i of each limb stands for
    coordinate r_t + g*i.  Layer t is cut per axis to the cells a walk can
    reach in t steps and, with end given, can still leave for end in the
    remaining length-t.  The same list is updated in place by the next
    step, so read it first; each old limb is dropped as soon as it is
    shifted, which keeps about one layer and one limb alive.
    """
    import numpy as np

    steps = _sorted_steps(steps)
    if not steps:
        raise ValueError("step set must be nonempty")
    if any(len(s) != d for s in steps):
        raise ValueError("every step must have dimension d")
    max_up = [max(0, max(s[ax] for s in steps)) for ax in range(d)]
    max_down = [max(0, -min(s[ax] for s in steps)) for ax in range(d)]
    cells = 1
    for ax in range(d):
        cells *= start[ax] + length * max_up[ax] + 1
    if cells > DEFAULT_MAX_CELLS:
        raise CapExceededError(
            f"DP lattice of {cells} cells exceeds cap {DEFAULT_MAX_CELLS}"
        )
    strides = [gcd(*(s[ax] - steps[0][ax] for s in steps)) for ax in range(d)]

    def coset_at(t):
        lows = [start[ax] + t * steps[0][ax] for ax in range(d)]
        return tuple((x % g if g else x, g) for x, g in zip(lows, strides))

    def layer_shape(t, coset):
        hi = [start[ax] + t * max_up[ax] for ax in range(d)]
        if end is not None:
            hi = [min(h, end[ax] + (length - t) * max_down[ax]) for ax, h in enumerate(hi)]
        return tuple(
            ((h - r) // g + 1 if g else 1) if 0 <= r <= h else 0
            for h, (r, g) in zip(hi, coset)
        )

    # Each step makes |steps| + 4 numpy calls per limb (a zeroed layer, one
    # slice add per step, three for the carry), each touching at most the
    # layer's cells; a call costs about as much as 1,000 cell updates.  A
    # count after t steps is below |steps|^t, which needs at most
    # ceil((t*log2|steps| + 1) / B) limbs.
    bits = _limb_bits(steps)
    work = 0
    for t in range(1, length + 1):
        limbs = ceil((t * log2(len(steps)) + 1) / bits)
        work += limbs * (len(steps) + 4) * (prod(layer_shape(t, coset_at(t))) + 1000)
        if work > DEFAULT_MAX_WORK:
            raise CapExceededError(
                f"DP sweep of {length} steps exceeds the work cap of "
                f"{DEFAULT_MAX_WORK} cell updates"
            )

    mask = (1 << bits) - 1
    coset = coset_at(0)
    shape = layer_shape(0, coset)
    limbs = [np.zeros(shape, dtype=np.int64)]
    cell = _cell(start, coset, shape)
    if cell is not None:
        limbs[0][cell] = 1
    yield coset, limbs
    for t in range(1, length + 1):
        grow = int(limbs[-1].max(initial=0)) * len(steps) > mask
        new_coset = coset_at(t)
        new_shape = layer_shape(t, new_coset)
        shifts = [
            tuple((r + x - r2) // g if g else 0 for x, (r, g), (r2, _) in zip(s, coset, new_coset))
            for s in steps
        ]
        moves = _moves(shape, new_shape, shifts)
        for k in range(len(limbs)):
            out = np.zeros(new_shape, dtype=np.int64)
            for src, dst in moves:
                out[dst] += limbs[k][src]
            limbs[k] = out
        if grow:
            limbs.append(np.zeros(new_shape, dtype=np.int64))
        for k in range(len(limbs) - 1):
            limbs[k + 1] += limbs[k] >> bits
            limbs[k] &= mask
        coset, shape = new_coset, new_shape
        yield coset, limbs


def _value(limbs, index, bits) -> int:
    """The exact count held by the limbs at one cell."""
    return sum(int(limb[index]) << (bits * k) for k, limb in enumerate(limbs))


def _read(coset, limbs, point, bits) -> int:
    """The exact count at point; 0 when the layer does not hold it."""
    cell = _cell(point, coset, limbs[0].shape)
    return 0 if cell is None else _value(limbs, cell, bits)


def _normalize(d, steps, start):
    if steps is None:
        steps = gessel_steps(d)
    steps = _sorted_steps(steps)
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
    for coset, limbs in _run_dp(d, steps, length, start, end):
        pass
    return _read(coset, limbs, end, _limb_bits(steps))


def walk_count_table(
    d: int,
    length: int,
    *,
    steps: Iterable[Sequence[int]] | None = None,
    start: Sequence[int] | None = None,
) -> WalkCountTable:
    import numpy as np

    steps, start = _normalize(d, steps, start)
    for coset, limbs in _run_dp(d, steps, length, start):
        pass
    bits = _limb_bits(steps)
    nonzero = np.logical_or.reduce([limb != 0 for limb in limbs])
    counts = {
        tuple(r + g * i for (r, g), i in zip(coset, cell)): _value(limbs, cell, bits)
        for cell in map(tuple, np.argwhere(nonzero).tolist())
    }
    return WalkCountTable(d, length, start, counts)


def g_sequence(d: int, n_max: int) -> list[int]:
    """Origin-to-origin Gessel walk counts [G(0), ..., G(n_max)] (2n steps each).

    One DP sweep of 2*n_max steps, reading the origin after each even step.
    The sweep is bounded by the origin as endpoint: every origin it reads
    lies at or before the last step, so no walk it counts is cut.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    steps, start = _normalize(d, None, None)
    origin = (0,) * d
    bits = _limb_bits(steps)
    out = []
    sweep = _run_dp(d, steps, 2 * n_max, start, origin)
    for t, (coset, limbs) in enumerate(sweep):
        if t % 2 == 0:
            out.append(_read(coset, limbs, origin, bits))
    return out
