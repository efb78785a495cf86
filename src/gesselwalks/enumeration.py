"""Brute-force enumeration of complete Gessel words.

This module is the ground-truth oracle: everything here builds whole words
letter by letter (with prefix pruning), never with closed forms or lattice
DP, so its outputs can be compared against the independent counting routes.

The words come from one chunked numpy frontier, :func:`_word_blocks`.  Each
row of a block is one word prefix.  The feasibility tests run on the letter
differences of all 2d one-letter extensions of a block at once; only the
surviving children are then gathered from their parent rows, and they go
back on a stack in chunks of at most :data:`CHUNK` rows.  Every letter but
the last is tested this way; the last is forced.  Each letter moves the
imbalance sum(|diff|) by +-1, so a prefix of odd length 2n-1 that passed
has imbalance exactly 1, and the one letter cancelling it is written in
without a test.  Rows are never merged, so every complete word is built
and tallied on its own, and the stack holds at most about
length * 2d * CHUNK rows.

Enumeration order is deterministic: words are produced in ascending
lexicographic order of their code tuples, with codes ordered numerically
(-d < ... < -1 < 1 < ... < d).  The counts and triangles below tally the
same blocks that :func:`iter_complete_words` unpacks into tuples.

numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from typing import Iterator

from .exceptions import CapExceededError

DEFAULT_MAX_LENGTH = 14

# Rows per frontier block.  Smaller blocks spend more time in per-block
# Python overhead; larger ones raise the peak memory of the stack.
CHUNK = 4096


def _check_cap(d, n) -> tuple[int, int]:
    """d and n as ints, once they are known to fit the frontier and its cap;
    ValueError if int() would change either of them."""
    given = (d, n)
    d, n = map(int, given)
    if (d, n) != given:
        raise ValueError(f"d and n must be integers, got d={given[0]!r}, n={given[1]!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if 2 * n > DEFAULT_MAX_LENGTH:
        raise CapExceededError(
            f"word length {2 * n} exceeds enumeration cap {DEFAULT_MAX_LENGTH}"
        )
    return d, n


def _word_blocks(d: int, n: int, marker_cap: int | None) -> Iterator[np.ndarray]:
    """Yield arrays of complete words of length 2n, one word per row.

    Rows come out in ascending lexicographic order across all blocks.  A
    prefix survives while every suffix sum of its letter differences
    (diff[i] + ... + diff[d-1]) is >= 0 and the total imbalance sum(|diff|)
    can still be closed by the letters left.  marker_cap, when given,
    bounds the occurrences of letter 1 and of its barred twin separately.
    The last letter is not tested: every letter moves the imbalance by +-1,
    so a prefix of odd length 2n-1 that passed has imbalance exactly 1, and
    only the letter cancelling that one unit completes the word.
    Callers check n, d and the length cap first.
    """
    import numpy as np

    length = 2 * n
    codes = np.array([*range(-d, 0), *range(1, d + 1)], dtype=np.min_scalar_type(-(d + 1)))
    k = len(codes)
    # delta[i, c]: change of diff[i] when letter c is appended.  The dtype
    # holds +-(length + 1), the largest imbalance a child can reach.
    delta = np.zeros((d, k), dtype=np.min_scalar_type(-(length + 2)))
    delta[np.abs(codes) - 1, np.arange(k)] = np.sign(codes)
    plain, barred = d, d - 1  # letter indices of codes 1 and -1
    # closing @ diff is the code of the letter that zeroes a diff with one
    # entry +-1: -(i + 1) for diff[i] = 1, i + 1 for diff[i] = -1
    closing = -np.arange(1, d + 1, dtype=codes.dtype)

    # diff holds one row per axis, so the tests below run on contiguous
    # arrays instead of reducing along a short axis
    stack = [(0, np.zeros((1, length), codes.dtype), np.zeros((d, 1), delta.dtype))]
    while stack:
        pos, words, diff = stack.pop()
        if pos == length:  # n = 0: the empty word
            yield words
            continue
        if pos == length - 1:
            # The forced letter goes into the chunk in place: the chunk is a
            # copy the stack owns.  It needs no marker_cap test: a closing 1
            # or -1 brings its count up to its twin's, which the cap bounds.
            words[:, pos] = closing @ diff
            yield words
            continue
        # Child r * k + c is row r extended by letter c.  The tests below
        # read only the children's diff and the parents' rows, so a child
        # row is built only once it is known to survive.
        kid_diff = (diff[:, :, None] + delta[:, None, :]).reshape(d, -1)
        ok = np.ones(kid_diff.shape[1], dtype=bool)
        suffix = np.zeros_like(kid_diff[0])
        imbalance = np.zeros_like(kid_diff[0])
        for row in kid_diff[::-1]:
            suffix += row
            ok &= suffix >= 0
            imbalance += np.abs(row)
        ok &= imbalance <= length - pos - 1
        if marker_cap is not None:
            by_letter = ok.reshape(-1, k)  # a view: writes land in ok
            placed = words[:, :pos]
            by_letter[:, plain] &= np.count_nonzero(placed == 1, axis=1) < marker_cap
            by_letter[:, barred] &= np.count_nonzero(placed == -1, axis=1) < marker_cap
        keep = np.flatnonzero(ok)  # ascending, so the children stay in order
        kids = words[keep // k]
        kids[:, pos] = codes[keep % k]
        kid_diff = kid_diff[:, keep]
        # The first chunk is popped first, so the order stays lexicographic.
        # Chunks are copies: a popped chunk frees its rows, and its diff
        # rows are contiguous again.
        for start in reversed(range(0, len(kids), CHUNK)):
            stop = start + CHUNK
            stack.append((pos + 1, kids[start:stop].copy(), kid_diff[:, start:stop].copy()))


def iter_complete_words(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the code tuples of all complete words of length 2n, in order."""
    d, n = _check_cap(d, n)
    for block in _word_blocks(d, n, None):
        yield from map(tuple, block.tolist())


def count_complete_words(d: int, n: int) -> int:
    """Number of complete Gessel words of length 2n over d letter pairs."""
    d, n = _check_cap(d, n)
    return sum(len(block) for block in _word_blocks(d, n, None))


def profile_triangle_row(n: int) -> tuple[int, ...]:
    """Row n of the d=2 profile triangle.

    Entry j counts complete words of length 2n containing exactly j plain 2s
    (hence j barred 2s and n-j pairs of 1s).  Row sums recover the full d=2
    count; both extremal entries are Catalan numbers.
    """
    import numpy as np

    _, n = _check_cap(2, n)  # before sizing hist from n
    hist = np.zeros(n + 1, dtype=np.int64)
    # a uint8 matrix-vector product counts the 2s per row; the sum is exact
    # because rows are at most DEFAULT_MAX_LENGTH < 256 letters long
    ones = np.ones(2 * n, dtype=np.uint8)
    for block in _word_blocks(2, n, None):
        hist += np.bincount((block == 2).view(np.uint8) @ ones, minlength=n + 1)
    return tuple(hist.tolist())


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
