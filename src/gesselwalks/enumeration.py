"""Brute-force enumeration of complete Gessel words.

This module is the ground-truth oracle: every count here tests each word
letter by letter (with prefix pruning), never with closed forms or lattice
DP, so its outputs can be compared against the independent counting routes.

The words come from one chunked numpy frontier, :func:`_word_blocks`.  Each
row of a block is one word prefix that already passed its tests, so a
one-letter extension can only break the tests its own letter moves.  The
block is tested once per axis, on three per-row quantities (the suffix
sums of the letter differences, their running minimum and the imbalance),
and that decides all 2d extensions of every row; only the indices of the
surviving children are kept.  The children are then gathered from their
parent rows with 1-D takes, one chunk of at most :data:`CHUNK` rows at a
time, and each chunk is grown to the end before the next is built, so the
recursion order is the word order.  Every run stops at its last tested
letter, at position 2n-1: each letter moves the imbalance sum(|diff|) by
+-1, so a prefix of odd length 2n-1 that passed has imbalance exactly 1,
and the one letter cancelling it, the last, is forced.  Rows are never
merged: every complete word is its own row up to its last tested letter,
and is tallied on its own.
The tests of a block hold O(d) values per parent row, and only a
surviving child gets its own d letter differences; no array holds them
for all 2d candidates of a row.  Each level of the recursion holds one
block and its survivor indices while the levels below it run, so the
frontier holds at most length blocks; the bytes per level are given at
:func:`_word_blocks`.

Callers that read letters (:func:`iter_complete_words`, the marker position
triangle, the bijection checks in ``verify``) get blocks of whole words:
each survivor of the last tested level gets its tested letter and its
forced one.  The word count and the profile triangle only tally, so their
runs spell no letters: a row carries its letter differences and, for the
profile, its count of 2s.  There each survivor bit of a parent row is one
complete word; the tallies read the bits, not the words.  A tally row is
small, so a tally block holds as many rows as fit in
:data:`_TALLY_BLOCK_BYTES`, and never fewer than :data:`CHUNK`.

Enumeration order is deterministic: words are produced in ascending
lexicographic order of their code tuples, with codes ordered numerically
(-d < ... < -1 < 1 < ... < d).

The entry points take d >= 1 and n >= 0 (checked by
exceptions.checked_at_least) and raise CapExceededError before the first
block for a word length above DEFAULT_MAX_LENGTH, a d above
DEFAULT_MAX_D, or a run whose work passes DEFAULT_MAX_WORK.  The work is
the rows the frontier tests times d + 1, since a row's tests cost about
4 + 4d ns.  Where (2d)^(2n-1) rows could pass the cap, the rows are
estimated first by Knuth's random probes of the frontier
(:func:`_estimated_rows`), which run no other route.

numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from typing import Iterator

from .exceptions import CapExceededError, checked_at_least, checked_ints

DEFAULT_MAX_LENGTH = 14
# The largest d: _word_blocks builds 2d codes and a (d, 2d) delta table
# (2d^2 bytes, 2 MiB here) first.  It bounds memory, not work.
DEFAULT_MAX_D = 1024

# Rows per frontier block.  Smaller blocks spend more time in per-block
# Python overhead; larger ones raise the peak memory of every level.
CHUNK = 4096
# Bytes per block of a tally run, whose rows spell no letters; a tally
# block never holds fewer than CHUNK rows.
_TALLY_BLOCK_BYTES = 2**18
# Work of one run: the rows its frontier tests times d + 1, the cost of a
# row's tests, which grows with d.  _check_cap refuses a request whose
# estimated work (see _estimated_rows) passes it, before the first block.
DEFAULT_MAX_WORK = 6 * 10**9
# Random paths behind one estimate of the rows (see _estimated_rows).
_PROBES = 1024


def _check_cap(d, n) -> tuple[int, int]:
    """d and n as ints, once they are known to fit the frontier and its caps;
    ValueError if int() would change either of them."""
    d, n = checked_ints((d, n), "d and n must be integers")
    n, d = checked_at_least(n, 0, "n"), checked_at_least(d, 1, "d")
    if 2 * n > DEFAULT_MAX_LENGTH:
        raise CapExceededError(
            f"word length {2 * n} exceeds enumeration cap {DEFAULT_MAX_LENGTH}"
        )
    if d > DEFAULT_MAX_D:
        raise CapExceededError(f"d = {d} exceeds enumeration cap d <= {DEFAULT_MAX_D}")
    # a frontier of 2n - 1 levels tests fewer than (2d)^(2n-1) rows, so only
    # a request that bound does not clear is probed
    if n and (d + 1) * (2 * d) ** (2 * n - 1) > DEFAULT_MAX_WORK:
        work = (d + 1) * _estimated_rows(d, n)
        if work > DEFAULT_MAX_WORK:
            raise CapExceededError(
                f"estimated work {work:.3g} at d = {d}, n = {n} exceeds enumeration "
                f"work cap {DEFAULT_MAX_WORK:.3g}"
            )
    return d, n


def _tables(d: int, length: int):
    """The 2d letter codes in order, and delta[i, c], the change of diff[i]
    when letter c is appended, in a dtype that holds +-(length + 1), the
    largest imbalance a child can reach."""
    import numpy as np

    codes = np.array([*range(-d, 0), *range(1, d + 1)], dtype=np.min_scalar_type(-(d + 1)))
    k = len(codes)
    delta = np.zeros((d, k), dtype=np.min_scalar_type(-(length + 2)))
    delta[np.abs(codes) - 1, np.arange(k)] = np.sign(codes)
    return codes, delta


def _extensions(diff, free: int):
    """The (2d, rows) mask ok[c, r]: whether row r of the (d, rows) letter
    differences diff, a prefix that passed with free letters left to place,
    still passes when extended by letter c.

    A parent row already passed, so a child can only break a test its
    letter moves.  A letter on axis a moves the suffix sums S_0..S_a by its
    sign, and the imbalance I by +1 when it pushes diff[a] away from 0, by
    -1 when towards it.  I has the parity of the letters placed and
    I <= free, so I == free - 1 cannot occur: a child that raises I
    survives iff slack = I < free.  Hence +(a + 1) survives iff slack or
    diff[a] < 0, and -(a + 1) iff min(S_0..S_a) >= 1 and (slack or
    diff[a] > 0).
    """
    import numpy as np

    d, rows = diff.shape
    ok = np.empty((2 * d, rows), dtype=bool)
    slack = np.abs(diff).sum(axis=0, dtype=diff.dtype) < free
    suffix = diff.sum(axis=0, dtype=diff.dtype)  # S_0
    low_ok = suffix >= 1  # min(S_0..S_a) >= 1
    for a, row in enumerate(diff):
        if a:
            suffix -= diff[a - 1]
            low_ok &= suffix >= 1
        np.logical_or(slack, row < 0, out=ok[d + a])
        np.logical_and(low_ok, slack | (row > 0), out=ok[d - 1 - a])
    return ok


def _estimated_rows(d: int, n: int) -> float:
    """Knuth's estimate of the rows the frontier tests for words of length
    2n, n >= 1: the rows of prefixes of length 0..2n-2.

    Each of _PROBES random paths runs from the empty word and picks one of
    its surviving extensions, uniformly, at every level; the product of the
    survivor counts along it so far is an unbiased estimate of the rows at
    the next level.  Every prefix that passed has an extension that passes,
    so no path dies early.  The paths run as the columns of one diff array,
    tested by the frontier's own _extensions, from a fixed seed, so that an
    estimate, and a refusal, repeats exactly.  Measured against the exact
    row counts from (2, 7) to (8, 7), it was within 6% at every (d, n) below
    the work cap and within 30% above it.
    """
    import numpy as np

    length = 2 * n
    _, delta = _tables(d, length)
    rng = np.random.default_rng(0)
    diff = np.zeros((d, _PROBES), delta.dtype)
    weight = np.ones(_PROBES)
    rows = 0.0
    for pos in range(length - 1):
        rows += weight.sum()
        ok = _extensions(diff, length - pos)
        survivors = np.count_nonzero(ok, axis=0)
        weight *= survivors
        pick = (rng.random(_PROBES) * survivors).astype(np.int16)
        letter = (np.cumsum(ok, axis=0, dtype=np.int16) > pick).argmax(axis=0)
        diff += delta[:, letter]
    return rows / _PROBES


def _word_blocks(d: int, n: int, marker_cap: int | None, tally: int | None = None) -> Iterator:
    """Yield arrays of complete words of length 2n, one word per row.

    Rows come out in ascending lexicographic order across all blocks.  A
    prefix survives while every suffix sum of its letter differences
    (diff[i] + ... + diff[d-1]) is >= 0 and the total imbalance sum(|diff|)
    can still be closed by the letters left.  A block of parent rows is
    tested once per axis, and the outcome for each of the 2d letters is
    read off the row's suffix sums, their running minimum and its
    imbalance.  marker_cap, when given, bounds the occurrences of letter 1
    and of its barred twin separately.  Every run ends at the last tested
    letter: each letter moves the imbalance by +-1, so a prefix of odd
    length 2n-1 that passed has imbalance exactly 1, and only the letter
    cancelling that one unit completes the word.  A word run writes it
    next to the tested letter, read off the survivor's letter differences.

    A tally run (tally set to a code) spells no words.  A row carries, in
    place of its letters, how often the code tally occurs in it; tally 0 is
    no letter, and its rows carry no count.  Each block of prefixes of
    length 2n-2 comes out as (tally counts, ok), the counts None for tally
    0, where the (2d, rows) mask ok[c, r] says whether row r extended by
    letter c passed.
    Each set bit is one complete word, since its last letter is forced.
    Tally runs need n >= 1 and marker_cap None.
    Callers check n, d and the caps first.

    Memory: each level keeps its block and its survivor indices while the
    levels below it run.  A row holds d one-byte letter differences, 4d
    bytes of survivor bits while it is tested and then up to 2d survivor
    indices of 2 or 4 bytes.  A word row adds its length letters, about
    length + 9d bytes in all; a tally row adds a one-byte count, about
    8d + 2 bytes.  Word blocks hold CHUNK rows and tally blocks
    _TALLY_BLOCK_BYTES // (8d + 2), never fewer than CHUNK: at d = 2, 4,096
    and 14,563 rows.
    """
    import numpy as np

    length = 2 * n
    codes, delta = _tables(d, length)
    k = len(codes)
    plain, barred = d, d - 1  # letter indices of codes 1 and -1

    def grow(pos, words, diff):
        # Yield the blocks under one parent block; each level holds its
        # block, its survivor indices and one chunk of children at a time.
        if pos == length:  # n = 0: the empty word
            yield words
            return
        rows = diff.shape[1]
        ok = _extensions(diff, length - pos)  # ok[c, r]: row r extended by c
        last = pos == length - 2  # the letter after this one is forced
        if tally is not None and last:
            yield words, ok
            return
        if marker_cap is not None:
            placed = words[:, :pos]
            ok[plain] &= np.count_nonzero(placed == 1, axis=1) < marker_cap
            ok[barred] &= np.count_nonzero(placed == -1, axis=1) < marker_cap
        # Child r * k + c is row r extended by letter c; flatnonzero is
        # ascending, so the children stay in order.  Only these indices
        # outlive the tests while the level below runs.
        by_row = np.empty((rows, k), dtype=bool)
        for c, col in enumerate(ok):
            by_row[:, c] = col
        keep = np.flatnonzero(by_row).astype(np.min_scalar_type(rows * k))
        del ok, by_row
        if tally is None:
            # one void item per word row, so a row gather is a 1-D take
            flat = words.view(np.dtype((np.void, words.itemsize * length))).ravel()
            if last:
                # A child has imbalance 1, diff +-1 on one axis i, so its code
                # sum (1..d) @ diff is +-(i + 1) and one letter zeroes it.  A
                # parent has imbalance <= 2, so its sum lies in -2d..2d: int16
                # up to DEFAULT_MAX_D.
                parent_sums = np.einsum("a,ar->r", np.arange(1, d + 1, dtype=np.int16), diff)
        for start in range(0, len(keep), chunk):
            p, c = np.divmod(keep[start:start + chunk], k)
            if tally is None:
                kids = flat.take(p).view(codes.dtype).reshape(-1, length)
                kids[:, pos] = codes.take(c)
                if last:
                    # no marker_cap test: a closing 1 or -1 brings its count
                    # up to its twin's, which the cap bounds
                    kids[:, pos + 1] = -parent_sums.take(p) - kids[:, pos]
                    yield kids
                    continue
            else:
                kids = words.take(p) + (c == counted) if tally else None
            yield from grow(pos + 1, kids, diff.take(p, 1) + delta.take(c, 1))

    # diff holds one row per axis, so the tests run on contiguous arrays
    # instead of reducing along a short axis.  A tally run carries, in
    # place of words, each row's tally count, at most n for a feasible row.
    diff = np.zeros((d, 1), delta.dtype)
    if tally is None:
        chunk = CHUNK
        yield from grow(0, np.zeros((1, length), codes.dtype), diff)
    else:
        chunk = max(CHUNK, _TALLY_BLOCK_BYTES // (8 * d + 2))
        counted = tally + d - (tally > 0)  # letter index of code tally
        counts = np.zeros(1, np.min_scalar_type(n)) if tally else None
        yield from grow(0, counts, diff)


def iter_complete_words(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """Iterate over the code tuples of all complete words of length 2n, in
    order.  d and n are checked at the call, not at the first word."""
    d, n = _check_cap(d, n)
    return (word for block in _word_blocks(d, n, None) for word in map(tuple, block.tolist()))


def count_complete_words(d: int, n: int) -> int:
    """Number of complete Gessel words of length 2n over d letter pairs."""
    import numpy as np

    d, n = _check_cap(d, n)
    if not n:
        return 1  # the empty word
    # tally 0 is no letter: the run carries no counts, only survivor bits
    return sum(int(np.count_nonzero(ok)) for _, ok in _word_blocks(d, n, None, 0))


def profile_triangle_row(n: int) -> tuple[int, ...]:
    """Row n of the d=2 profile triangle.

    Entry j counts complete words of length 2n containing exactly j plain 2s
    (hence j barred 2s and n-j pairs of 1s).  Row sums recover the full d=2
    count; both extremal entries are Catalan numbers.
    """
    import numpy as np

    _, n = _check_cap(2, n)  # before sizing the bins from n
    if not n:
        return (1,)
    # A complete word never ends in a plain letter c: the prefix before it
    # would hold diff -1 on axis c - 1, a negative suffix sum.  So a word
    # has its prefix's 2s, plus one if its tested letter is 2.  Each leaf
    # row is binned by (prefix 2s, survivors 0..4, whether 2 survived),
    # where ok[3] is letter 2.
    bins = np.zeros((n + 1) * 5 * 2, dtype=np.int64)
    for twos, ok in _word_blocks(2, n, None, 2):
        survivors = ok.view(np.uint8).sum(axis=0, dtype=np.uint8)
        bins += np.bincount((twos * 5 + survivors) * 2 + ok[3], minlength=len(bins))
    hist = [0] * (n + 1)
    for key, count in enumerate(bins.tolist()):
        if count:
            twos, rest = divmod(key, 10)
            survivors, two = divmod(rest, 2)
            hist[twos] += count * (survivors - two)
            if two:
                hist[twos + 1] += count
    return tuple(hist)


def marker_position_triangle(n: int) -> dict[tuple[int, int], int]:
    """Position counts for single-pair words of length 2n (d=2).

    Maps (i, j) with 1 <= i < j <= 2n to the number of complete words whose
    only 1/1-bar letters sit at positions i and j, in either order.
    """
    import numpy as np

    _, n = _check_cap(2, n)
    length = 2 * n
    tally = np.zeros(length * length, dtype=np.int64)  # flat (i-1, j-1)
    for block in _word_blocks(2, n, 1):
        # a complete word has 0 or 2 marks under marker_cap=1, so the marked
        # columns come in (i, j) pairs
        _, cols = np.nonzero(np.abs(block) == 1)
        ij = cols.reshape(-1, 2)
        tally += np.bincount(ij[:, 0] * length + ij[:, 1], minlength=length * length)
    return {
        (key // length + 1, key % length + 1): count
        for key, count in enumerate(tally.tolist())
        if count
    }


def triangle_rows(tri: dict[tuple[int, int], int], n: int) -> list[list[int]]:
    """Lay the (i, j) map out as the displayed triangle.

    Row r (r = 1..2n-1, top down) lists the entries with j - i = 2n - r,
    so the apex is the (1, 2n) entry and the bottom row holds the adjacent
    pairs (i, i+1).
    """
    length = 2 * n
    rows = []
    for r in range(1, length):
        gap = length - r
        rows.append([tri.get((i, i + gap), 0) for i in range(1, r + 1)])
    return rows
