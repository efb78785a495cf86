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
g_sequence, which reads the origin after every even step, sweeps the wedge
min(t, length-t) per axis.  The cell cap still applies to the full box,
(length+1)^d cells.

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

A single count back to the origin sweeps only half its length.  The steps
are closed under negation, so a walk from x back to the origin in n steps,
read backwards, is a walk from the origin to x in n steps through the same
cells.  Splitting a walk of 2n steps after step n then gives
G(n) = sum over x of W_n(x)^2, where W_n is layer n of one open sweep.
The squares are summed without a Python integer per cell: each limb is
cut into w-bit pieces whose products are summed as float64 over chunks of
cells and then as int64 over the layer, with w derived so that neither sum
can reach 2^53 or 2^63 respectively (see _sum_of_squares).

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
# d=2 sweeps under it, the origin wedge of 2 * 678 steps and the open sweep
# of 805, each ran about 28 s on a 2-vCPU host.
DEFAULT_MAX_WORK = 20_000_000_000
# Cells of one int64 limb that fill 2 MiB, a core's L2 cache on that host.
# The open sweep of n = 805 ran its layers of up to 0.2 MiB per limb at about
# 1.0 ns per predicted cell update and those past 1 MiB at about 2.0 ns, so
# a layer with more cells counts them twice.  The d=2 origin wedges that
# g_sequence sweeps under the cap stay below it.
_CACHED_CELLS = 2**18
# Cells per float64 Gram product in _sum_of_squares.
_GRAM_CHUNK = 1024


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
    # layer's cells; a call costs about as much as 1,000 cell updates, and
    # a cell update twice as much once one limb of the layer outgrows
    # _CACHED_CELLS.  A count after t steps is below (2d)^t, which needs at
    # most ceil((t*log2(2d) + 1) / B) limbs.
    bits = _limb_bits(d)
    work = 0
    for t in range(1, length + 1):
        limbs = ceil((t * log2(len(steps)) + 1) / bits)
        cells = prod(layer_shape(t, coset_at(t)))
        if cells > _CACHED_CELLS:
            cells *= 2
        work += limbs * (len(steps) + 4) * (cells + 1000)
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


def _sum_of_squares(limbs, bits) -> int:
    """The exact sum over the cells of the squared counts the limbs hold.

    Each limb is cut into w-bit pieces, and the Gram matrix of the pieces is
    summed over the cells as float64 products, _GRAM_CHUNK cells at a time,
    into an int64 matrix that is then shifted and added into one integer.
    A piece is below 2^w, so a chunk's Gram entries stay below
    2^(2w + bit_length(chunk)) and the total's below
    2^(2w + bit_length(cells)); w is the largest width that keeps both
    within the exact ranges of float64 (2^53) and int64 (2^63).  Pieces
    cover B + 1 bits per limb, the width of a top limb.
    """
    import numpy as np

    cells = limbs[0].size
    chunk = min(_GRAM_CHUNK, cells)
    w = min(53 - chunk.bit_length(), 63 - cells.bit_length()) // 2
    per_limb = -(-(bits + 1) // w)
    offsets = [bits * k + w * m for k in range(len(limbs)) for m in range(per_limb)]
    shifts = np.arange(0, per_limb * w, w, dtype=np.int64)[:, None]
    flat = [limb.reshape(-1) for limb in limbs]
    gram = np.zeros((len(offsets), len(offsets)), dtype=np.int64)
    for lo in range(0, cells, chunk):
        block = np.stack([f[lo : lo + chunk] for f in flat])[:, None, :]
        pieces = ((block >> shifts) & ((1 << w) - 1)).reshape(len(offsets), -1)
        pieces = pieces.astype(np.float64)
        gram += (pieces @ pieces.T).astype(np.int64)
    total = 0
    for i, row in zip(offsets, gram.tolist()):
        total += sum(v << j for j, v in zip(offsets, row)) << i
    return total


def count_confined_walks(d: int, length: int, *, end: Sequence[int] | None = None) -> int:
    """Gessel walks of the given length from the origin to end (default the
    origin) that stay in the orthant.

    A count back to the origin runs one open sweep of length/2 steps and
    returns the sum of its squared counts; an odd length returns 0 without
    a sweep.  Any other end runs one sweep of length steps toward end.
    """
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
    if any(end):
        for coset, limbs in _run_dp(d, length, end):
            pass
        return _read(coset, limbs, end, _limb_bits(d))
    if length % 2:
        return 0
    for _, limbs in _run_dp(d, length // 2):
        pass
    return _sum_of_squares(limbs, _limb_bits(d))


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
