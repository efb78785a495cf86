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
min(t, length-t) per axis.

Within that region a layer holds only the points a walk can occupy.
Every step moves the first coordinate by +-1, so x_1 = t (mod 2), and one
rule maps indices to points: index (i, j, ...) of layer t is the point
(2i + t mod 2, j, ...), so each layer holds half the cells of the region.
A step s into layer t shifts the first index by (s_1 + 1 - t mod 2) // 2
and every other index by s_k.  One pre-pass predicts every layer's shape
and limb count before the first step.  It refuses a layer that would
hold more than DEFAULT_MAX_CELLS int64 words (its cells times its limbs),
and a sweep whose predicted work passes DEFAULT_MAX_WORK or whose d passes
MAX_DIMENSION; it builds nothing of size d.

A limb is stored in rows: its last axis, padded with at least one cell,
runs along each row, and the rows follow one another.  Where two layers
have rows of one length, their last two axes are one contiguous axis and
a step's shift on them is one offset along it, so at d=2 every move is one
1-D slice and at d >= 3 each slice runs over about s^2 cells.  A cell on
the wall of the last axis that steps down wraps into the pad of the row
before; the pad is zeroed after each step, so it never carries a count.
Where the row length changes, the step moves whole rows as 2-D slices.
_run_dp yields views of the live region, so readers see one array per limb
of the layer shape.

Consecutive layers form runs that share one row length, the shortest
that holds the last axis of each and a pad cell.  A run takes in the next
layer while that row adds to none of its layers more than the larger of
1/16 of their live cells and _ROW_SLACK (2 MiB) past their own pad.  So a
limb of live shape (h cells ahead of the last axis, s on it) stores at
most h*(s + 1) + h*s/16 cells, or h*(s + 1) and its share of _ROW_SLACK.
The runs are found greedily from the first layer on, which makes them as
few as that bound allows: an open sweep changes rows only where its
layers are large, and a sweep toward an endpoint shortens them as its
last axis shrinks.  The cell cap counts live cells, so a layer it admits
stores at most 1/s + 1/16 more, or 1/s and _ROW_SLACK more: the pad alone
adds 1/6 at d=10 and 5 steps, the largest share among the caps that
README lists.

The steps U_(d-1) and U_d (U_k = e_1 + ... + e_k) differ by e_d, so at
d >= 2 a limb x is stepped by +-U_1, ..., +-U_(d-2) first, then turned in
place into u = x + (x shifted by e_d), and u is moved by U_(d-1) and by
-U_d: two slice adds for the four steps +-U_(d-1), +-U_d.  The shift by
e_d is one cell along the rows, and the cell before each row is a zero
pad, so u fits in x's own buffer.  The first move of a step is assigned
into an uninitialised array, and only what it does not cover is zeroed.

Counts stay exact in int64 arithmetic: a layer is a list of int64 limbs,
and a cell holds sum(limb[k] * 2^(B*k)) with B = 62 - bit_length(2d), 2d
being the number of steps.  A limb of at most 2^B - 1 grows at most 2d-fold
a step, so it stays below 2^63, with the carry it takes in, for
K = max{k : (2d)^k * 2^B <= 2^63} steps: 3 at d=1, 2 at d=2, 1 at d >= 3.
A carry pass, which moves each limb's bits above B into the next, runs
every K steps and on the last step.  After it a top limb of 2^B or more
moves its high bits into a new top limb, so after every carry each limb
lies in [0, 2^B) and the limbs are as few as the largest count allows (at
d=2, B = 59, the origin sweep of 80 steps grows to 2 and 3 limbs at steps
34 and 66).  Between carries the limbs hold more than B bits, and _value
reads them exactly.  Python integers are rebuilt only for the cells read.

A single count back to the origin sweeps only half its length.  The steps
are closed under negation, so a walk from x back to the origin in n steps,
read backwards, is a walk from the origin to x in n steps through the same
cells.  Splitting a walk of 2n steps after step n then gives
G(n) = sum over x of W_n(x)^2, where W_n is layer n of one open sweep.
The squares are summed without a Python integer per cell: each limb is
cut into w-bit pieces whose products are summed as float64 over chunks of
cells and then as int64 over the layer, with w derived so that neither sum
can reach 2^53 or 2^63 respectively (see _sum_of_squares).

The public functions take d >= 1 and a length or n_max >= 0, as ints or
integral values of other types; a range error comes from
exceptions.checked_at_least.  numpy is imported inside the functions that
use it, so importing the package does not load it.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import ceil, log2, prod
from typing import Sequence

from .exceptions import CapExceededError, checked_at_least, checked_ints

# The most axes a layer may have: numpy's `flat` writes refuse more.
MAX_DIMENSION = 32
# int64 words one layer may hold: its cells times its predicted limbs (see
# _run_dp).  The d=4 half sweep of `count --n 65` holds 37,949,472 in its
# last layer and peaked at 421.5 MB; that of `--n 66` would hold 40,903,768.
DEFAULT_MAX_CELLS = 40_000_000
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
# Cells per numpy call when a limb is turned into its paired sums in place
# (see _add_previous_cell); the pass's one temporary is a copy of a block.
_PAIR_BLOCK = 2**14
# int64 limb cells that rows longer than a layer's own last axis may add to
# it whatever its size (see _run_dp): 2 MiB.
_ROW_SLACK = 2**18


def gessel_steps(d: int) -> frozenset[tuple[int, ...]]:
    """The 2d Gessel steps in dimension d."""
    d = checked_at_least(d, 1, "d")
    ups = []
    for k in range(1, d + 1):
        ups.append(tuple([1] * k + [0] * (d - k)))
    downs = [tuple(-x for x in v) for v in ups]
    return frozenset(ups + downs)


def _limb_bits(d) -> int:
    """Bits B held by each limb below the top; 2d * 2^(B+1) < 2^63 (no B
    serves d >= 2^60, where 1 only sizes the pre-pass's refusal)."""
    return max(62 - (2 * d).bit_length(), 1)


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


def _run_dp(d, length, end=None):
    """Yield the limbs of the walk counts after 0..length steps.

    Index (i, j, ...) of layer t stands for the point (2i + t mod 2, j, ...)
    (module docstring).  Layer t is cut per axis to the cells a walk can
    reach in t steps and, with end given, can still leave for end in the
    remaining length-t (end is read afresh per layer, d coordinates, so an
    endless repeat(0) is the origin).  Each limb is a view of that live
    region in a stored buffer whose rows end in a zero pad (module docstring).
    The same list is refilled by the next step, so read it first; each old
    limb is dropped as soon as it is stepped, which keeps about one layer
    and one limb alive.
    """
    import numpy as np

    def axis_sizes(t):
        # lazily, so the pre-pass builds nothing of size d (axis 1 holds
        # x_1 = t mod 2 at stride 2, so only it can be empty)
        his = repeat(t) if end is None else (min(t, x + length - t) for x in end)
        for k, h in zip(range(d), his):
            yield (h - t % 2) // 2 + 1 if k == 0 else h + 1

    # A count after t steps is below (2d)^t, which needs at most
    # ceil((t*log2(2d) + 1) / B) limbs.  A layer's cells are multiplied in
    # axis by axis, and the pre-pass stops at the first partial product over
    # the cell cap, so a huge shape is never multiplied out; only the first
    # axis can be empty, so no later factor brings the product back under.
    # The work model counts 2d + 4 numpy calls per limb and step, fixed so
    # that the caps admit the same requests.  A step makes, per limb, 2d - 2
    # slice moves at d >= 2 (2 at d = 1), an allocation, zero fills around
    # the first move, one call per _PAIR_BLOCK cells of the paired sums, a
    # pad write and a view, and the three carry calls every K steps (module
    # docstring).  A call is counted as 1,000 cell updates, and a cell update
    # twice once one limb of the layer outgrows _CACHED_CELLS.  The model
    # counts live cells; the rows a step sweeps hold at most 1/16 more, a pad
    # cell per row and _ROW_SLACK.
    bits = _limb_bits(d)
    work = 0
    # Cells per stored row of each layer (module docstring).  A run of
    # layers shares the shortest row that holds the last axis of each and a
    # pad, while that adds to none of them more than the larger of 1/16 of
    # its live cells and _ROW_SLACK past its own pad; the first layer it
    # cannot serve starts the next run.  Layer 0 holds one cell.
    rows = []
    run_lo, run_hi = 2, 2 + _ROW_SLACK
    for t in range(1, length + 1):
        limbs = ceil((t * log2(2 * d) + 1) / bits)
        cells = 1
        for size in axis_sizes(t):
            head = cells
            cells *= size
            if limbs * cells > DEFAULT_MAX_CELLS:
                raise CapExceededError(
                    f"DP sweep of {length} steps exceeds the cell cap of "
                    f"{DEFAULT_MAX_CELLS} int64 limb cells at layer {t}"
                )
        lo = size + 1
        hi = lo + max(size // 16, _ROW_SLACK // (limbs * head or 1))
        if lo > run_hi or hi < run_lo:
            rows += [run_lo] * (t - len(rows))
            run_lo, run_hi = lo, hi
        elif lo > run_lo or hi < run_hi:
            run_lo, run_hi = max(run_lo, lo), min(run_hi, hi)
        if cells > _CACHED_CELLS:
            cells *= 2
        work += limbs * (2 * d + 4) * (cells + 1000)
        if work > DEFAULT_MAX_WORK:
            raise CapExceededError(
                f"DP sweep of {length} steps exceeds the work cap of "
                f"{DEFAULT_MAX_WORK} cell updates"
            )
    rows += [run_lo] * (length + 1 - len(rows))
    if d > MAX_DIMENSION:
        raise CapExceededError(f"DP sweep in d = {d} exceeds the cap of {MAX_DIMENSION} dimensions")

    def index_shifts(steps, t):
        # each step's index shift into layer t (module docstring)
        return [((s[0] + 1 - t % 2) // 2,) + s[1:] for s in steps]

    def merged(shape):
        # the last two axes as one; at d = 1 there is only the last
        return shape[:-2] + (prod(shape[-2:]),)

    @cache
    def merged_shifts(parity, row):
        # the single and the paired shifts for rows of one length
        return [
            [s[:-2] + (sum(s[-2:-1]) * row + s[-1],) for s in group] for group in shifts[parity]
        ]

    def live(buffer):
        return buffer.reshape(sizes[:-1] + (row,))[..., : sizes[-1]]

    mask = (1 << bits) - 1
    # Steps between carries: a limb of at most 2^B - 1 after a carry, and
    # the carry it takes in, stay below 2^63 for K steps of 2d-fold growth.
    carry_every = 1
    while (2 * d) ** (carry_every + 1) << bits <= 1 << 63:
        carry_every += 1
    sizes = tuple(axis_sizes(0))
    row = rows[0]
    buffers = [np.zeros(sizes[:-1] + (row,), dtype=np.int64)]
    buffers[0].flat[0] = 1
    limbs = [live(buffers[0])]
    yield limbs
    # The up steps U_1, ..., U_d (U_k = e_1 + ... + e_k) and their negatives,
    # 2d tuples of d coordinates, so O(d^2): built only once both caps have
    # passed and the first layer exists.  U_(d-1) and U_d differ by e_d, so at
    # d >= 2 the four steps +-U_(d-1), +-U_d are two moves of
    # u = x + (x shifted by e_d): by U_(d-1) and by -U_d.
    ups = sorted((s for s in gessel_steps(d) if s[0] > 0), key=sum)
    downs = [tuple(-x for x in s) for s in ups]
    n_single = d - 2 if d > 1 else 1
    single_steps = ups[:n_single] + downs[:n_single]
    paired_steps = [ups[-2], downs[-1]] if d > 1 else []
    # indexed by t % 2
    shifts = [(index_shifts(single_steps, t), index_shifts(paired_steps, t)) for t in (2, 1)]
    for t in range(1, length + 1):
        new_sizes, new_row = tuple(axis_sizes(t)), rows[t]
        shape, new_shape = sizes[:-1] + (row,), new_sizes[:-1] + (new_row,)
        single, paired = shifts[t % 2]
        if new_row == row:
            shape, new_shape = merged(shape), merged(new_shape)
            single, paired = merged_shifts(t % 2, row)
        single, paired = _moves(shape, new_shape, single), _moves(shape, new_shape, paired)
        moves = single + paired
        blank = _outside(moves[0][1], new_shape) if moves else [()]
        limbs.clear()
        for k in range(len(buffers)):
            if buffers[k].shape != shape:
                buffers[k] = buffers[k].reshape(shape)
            buffers[k] = _step_limb(buffers[k], new_shape, moves, len(single), blank, new_row)
        if t % carry_every == 0 or t == length:
            for k in range(len(buffers) - 1):
                buffers[k + 1] += buffers[k] >> bits
                buffers[k] &= mask
            if buffers[-1].max(initial=0) > mask:
                buffers.append(buffers[-1] >> bits)
                buffers[-2] &= mask
        sizes, row = new_sizes, new_row
        limbs.extend(map(live, buffers))
        yield limbs


def _step_limb(x, shape, moves, n_single, blank, row):
    """Limb x of one layer, stepped into a new stored buffer of shape.

    moves are (source, target) slice pairs of the stored layouts, whose
    rows hold `row` cells in the new one.  The first is assigned, and blank
    lists the slabs it does not cover, which are zeroed.  Moves from index
    n_single on read u = x + (x shifted one cell along its rows), which
    replaces x in place once the others have read it.  The pad closing
    each row catches what the wall wraps into it, and is zeroed last.
    """
    import numpy as np

    out = np.empty(shape, dtype=np.int64)
    for slab in blank:
        out[slab] = 0
    for i, (src, dst) in enumerate(moves):
        if i == n_single:
            _add_previous_cell(x.reshape(-1))
        if i:
            out[dst] += x[src]
        else:
            out[dst] = x[src]
    out.reshape(-1, row)[:, -1] = 0
    return out


def _outside(box, shape):
    """Slabs that cover the cells of an array of shape outside box, a
    tuple of one slice per axis."""
    slabs = []
    for axis, cut in enumerate(box):
        if cut.start:
            slabs.append(box[:axis] + (slice(0, cut.start),))
        if cut.stop < shape[axis]:
            slabs.append(box[:axis] + (slice(cut.stop, None),))
    return slabs


def _add_previous_cell(flat):
    """flat[i] += flat[i - 1] for every i >= 1, in place: a block of
    _PAIR_BLOCK cells at a time from the top down, so each block reads only
    cells not yet changed and the one temporary is a block's copy."""
    hi = flat.size
    while hi > 1:
        lo = max(1, hi - _PAIR_BLOCK)
        flat[lo:hi] += flat[lo - 1 : hi - 1]
        hi = lo


def _value(limbs, index, bits) -> int:
    """The exact count held by the limbs at one cell."""
    return sum(int(limb[index]) << (bits * k) for k, limb in enumerate(limbs))


def _read(limbs, t, point, bits) -> int:
    """The exact count at point after t steps; 0 when layer t does not hold it."""
    index = (point[0] // 2, *point[1:])
    if (point[0] - t) % 2 or not all(0 <= i < n for i, n in zip(index, limbs[0].shape)):
        return 0
    return _value(limbs, index, bits)


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
    returns the sum of its squared counts; an odd length or 0 needs no
    sweep.  Any other end in the orthant runs one sweep of length steps.
    """
    d, length = checked_ints((d, length), "d and length must be integers")
    length, d = checked_at_least(length, 0, "length"), checked_at_least(d, 1, "d")
    if end is not None:
        end = checked_ints(end, "end must be integers")
        if len(end) != d:
            raise ValueError("end must have dimension d")
        if any(end):
            if min(end) < 0 or not length:
                return 0
            for limbs in _run_dp(d, length, end):
                pass
            return _read(limbs, length, end, _limb_bits(d))
    if length % 2 or not length:
        return int(not length)
    for limbs in _run_dp(d, length // 2):
        pass
    # the last axis of an open sweep is longest at its last layer, so the
    # stored buffers behind these views hold the live cells and zero pads
    return _sum_of_squares([limb.base for limb in limbs], _limb_bits(d))


def g_sequence(d: int, n_max: int) -> list[int]:
    """Origin-to-origin Gessel walk counts [G(0), ..., G(n_max)] (2n steps each).

    One DP sweep of 2*n_max steps (none for n_max = 0), reading the origin
    after each even step.  The sweep is bounded by the origin as endpoint:
    every origin it reads lies at or before the last step, so no walk it
    counts is cut.
    """
    d, n_max = checked_ints((d, n_max), "d and n_max must be integers")
    n_max, d = checked_at_least(n_max, 0, "n_max"), checked_at_least(d, 1, "d")
    if not n_max:
        return [1]
    out = []
    for t, limbs in enumerate(_run_dp(d, 2 * n_max, repeat(0))):
        if t % 2 == 0:
            out.append(_value(limbs, (0,) * d, _limb_bits(d)))
    return out
