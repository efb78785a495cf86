"""Gessel walks from the origin confined to the nonnegative orthant.

The Gessel step family in dimension d consists of the d prefix vectors
(1,0,..,0), (1,1,0,..,0), ..., (1,..,1) and their negatives; for d=2 these
are (1,1), (1,0), (-1,0), (-1,-1).  Every walk starts at the origin.
Counting is plain layer-by-layer DP over the orthant, which is an
independent route from both the word enumeration and the closed forms.

Each layer covers only the live region [0, hi_t] per axis.  A step moves
each coordinate by at most 1, so hi_t = t; when the endpoint is known a
coordinate can still fall by at most 1 per remaining step, so hi_t is
further capped at end + (length-t).  Every cell that can carry a walk to
that endpoint lies inside the region, so the counts read there are exact;
for a walk returning to the origin the region is the wedge min(t, length-t)
per axis.  The cell cap still applies to the full box, (length+1)^d cells.

Within that region a layer holds only the coset a walk can occupy.  Every
step moves the first coordinate by +-1, so x_1 = t (mod 2): on that axis
index i of layer t stands for coordinate r_t + 2i with r_t = t mod 2, and
each layer holds half the cells of the region.  The other axes move by -1,
0 or +1, so there index i stands for coordinate i.  Writing (r_t, g) for
an axis's residue and stride, a step s shifts the index on that axis by
(r_t + s - r_{t+1}) / g, an integer.  The cell cap still counts the full
box, not the coset; a second cap bounds the sweep's predicted work, and
both are checked before the first step.

Counts stay exact in int64 arithmetic: a layer is a list of int64 limb
arrays of the layer shape, and a cell holds sum(limb[k] * 2^(B*k))
with B = 62 - bit_length(2d), 2d being the number of steps.  Every limb
but the top one lies in [0, 2^B).  A step shifts each limb by every
step's index shift (one numpy slice add per step), appends a zero top
limb when 2d times the largest top value could pass 2^B - 1, and runs one
carry pass that moves each limb's bits above B into the next.  No limb
enters a step at 2^(B+1) or more, so every sum stays below
2d * 2^(B+1) < 2^63.  Python integers are rebuilt only for the cells that
are read.

numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, prod
from typing import Sequence

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


@dataclass(frozen=True)
class WalkCountTable:
    """Endpoint counts of the confined Gessel walks of a fixed length."""

    dimension: int
    length: int
    counts: dict[tuple[int, ...], int]


def _limb_bits(d) -> int:
    """Bits B held by each limb below the top; 2d * 2^(B+1) < 2^63."""
    return 62 - (2 * d).bit_length()


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
        i, off = divmod(x - r, g)
        if off or not 0 <= i < n:
            return None
        index.append(i)
    return tuple(index)


def _run_dp(d, length, end=None):
    """Yield (coset, limbs) for the walk counts after 0..length steps.

    coset holds (r_t, g) per axis, and index i of each limb stands for
    coordinate r_t + g*i.  Layer t is cut per axis to the cells a walk can
    reach in t steps and, with end given, can still leave for end in the
    remaining length-t.  The same list is updated in place by the next
    step, so read it first; each old limb is dropped as soon as it is
    shifted, which keeps about one layer and one limb alive.
    """
    import numpy as np

    steps = sorted(gessel_steps(d))
    cells = (length + 1) ** d
    if cells > DEFAULT_MAX_CELLS:
        raise CapExceededError(
            f"DP lattice of {cells} cells exceeds cap {DEFAULT_MAX_CELLS}"
        )

    def coset_at(t):
        return ((t % 2, 2),) + ((0, 1),) * (d - 1)

    def layer_shape(t, coset):
        # 0 <= r < g and hi >= 0, so an axis whose residue lies above hi gets 0
        his = [t] * d if end is None else [min(t, x + length - t) for x in end]
        return tuple((h - r) // g + 1 for h, (r, g) in zip(his, coset))

    # Each step makes 2d + 4 numpy calls per limb (a zeroed layer, one
    # slice add per step, three for the carry), each touching at most the
    # layer's cells; a call costs about as much as 1,000 cell updates.  A
    # count after t steps is below (2d)^t, which needs at most
    # ceil((t*log2(2d) + 1) / B) limbs.
    bits = _limb_bits(d)
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
    limbs[0][(0,) * d] = 1
    yield coset, limbs
    for t in range(1, length + 1):
        grow = int(limbs[-1].max(initial=0)) * len(steps) > mask
        new_coset = coset_at(t)
        new_shape = layer_shape(t, new_coset)
        shifts = [
            tuple((r + x - r2) // g for x, (r, g), (r2, _) in zip(s, coset, new_coset))
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


def count_confined_walks(d: int, length: int, *, end: Sequence[int] | None = None) -> int:
    """Gessel walks of the given length from the origin to end (default the
    origin) that stay in the orthant."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    coords = (0,) * d if end is None else tuple(end)
    end = tuple(map(int, coords))
    if end != coords:
        raise ValueError(f"end must be integers, got {coords!r}")
    if len(end) != d:
        raise ValueError("end must have dimension d")
    if any(x < 0 for x in end):
        return 0
    for coset, limbs in _run_dp(d, length, end):
        pass
    return _read(coset, limbs, end, _limb_bits(d))


def walk_count_table(d: int, length: int) -> WalkCountTable:
    """Counts of the confined Gessel walks of the given length from the
    origin, per endpoint reached."""
    import numpy as np

    if length < 0:
        raise ValueError("length must be >= 0")
    for coset, limbs in _run_dp(d, length):
        pass
    bits = _limb_bits(d)
    nonzero = np.logical_or.reduce([limb != 0 for limb in limbs])
    counts = {
        tuple(r + g * i for (r, g), i in zip(coset, cell)): _value(limbs, cell, bits)
        for cell in map(tuple, np.argwhere(nonzero).tolist())
    }
    return WalkCountTable(d, length, counts)


def g_sequence(d: int, n_max: int) -> list[int]:
    """Origin-to-origin Gessel walk counts [G(0), ..., G(n_max)] (2n steps each).

    One DP sweep of 2*n_max steps, reading the origin after each even step.
    The sweep is bounded by the origin as endpoint: every origin it reads
    lies at or before the last step, so no walk it counts is cut.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    origin = (0,) * d
    bits = _limb_bits(d)
    out = []
    for t, (coset, limbs) in enumerate(_run_dp(d, 2 * n_max, origin)):
        if t % 2 == 0:
            out.append(_read(coset, limbs, origin, bits))
    return out
