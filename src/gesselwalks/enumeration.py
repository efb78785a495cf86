"""Brute-force enumeration of complete Gessel words.

This module is the ground-truth oracle: everything here visits words one by
one (with prefix pruning), never with closed forms or lattice DP, so its
outputs can be compared against the independent counting routes.

Enumeration order is deterministic: words are produced in ascending
lexicographic order of their code tuples, with codes ordered numerically
(-d < ... < -1 < 1 < ... < d).  Every count and triangle below tallies
the words yielded by the one pure Python DFS, :func:`iter_complete_words`.
"""

from __future__ import annotations

from typing import Iterator

from .exceptions import CapExceededError
from .words import GesselWord

DEFAULT_MAX_LENGTH = 14


def _check_cap(d, n, max_length):
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if 2 * n > max_length:
        raise CapExceededError(
            f"word length {2 * n} exceeds enumeration cap {max_length}; "
            f"pass max_length explicitly to override"
        )


def iter_complete_words(
    d: int,
    n: int,
    *,
    max_length: int = DEFAULT_MAX_LENGTH,
    marker_cap: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the code tuples of all complete words of length 2n, in order.

    marker_cap, when given, bounds the occurrences of letter 1 and of its
    barred twin separately (marker_cap=1 restricts to single-pair words).
    """
    _check_cap(d, n, max_length)
    length = 2 * n
    if length == 0:
        yield ()
        return
    codes = list(range(-d, 0)) + list(range(1, d + 1))
    diff = [0] * d
    ones = [0, 0]  # plain 1s, barred 1s placed so far
    word = [0] * length

    def feasible(pos):
        s = 0
        imb = 0
        for i in range(d - 1, -1, -1):
            s += diff[i]
            if s < 0:
                return False
            imb += abs(diff[i])
        return imb <= length - pos - 1

    def rec(pos):
        for c in codes:
            axis = abs(c) - 1
            sgn = 1 if c > 0 else -1
            if marker_cap is not None and axis == 0:
                slot = 0 if sgn > 0 else 1
                if ones[slot] >= marker_cap:
                    continue
                ones[slot] += 1
            diff[axis] += sgn
            if feasible(pos):
                word[pos] = c
                if pos == length - 1:
                    yield tuple(word)
                else:
                    yield from rec(pos + 1)
            diff[axis] -= sgn
            if marker_cap is not None and axis == 0:
                ones[0 if sgn > 0 else 1] -= 1

    yield from rec(0)


def count_complete_words(d: int, n: int, *, max_length: int = DEFAULT_MAX_LENGTH) -> int:
    """Number of complete Gessel words of length 2n over d letter pairs."""
    return sum(1 for _ in iter_complete_words(d, n, max_length=max_length))


def profile_triangle_row(n: int, *, max_length: int = DEFAULT_MAX_LENGTH) -> tuple[int, ...]:
    """Row n of the d=2 profile triangle.

    Entry j counts complete words of length 2n containing exactly j plain 2s
    (hence j barred 2s and n-j pairs of 1s).  Row sums recover the full d=2
    count; both extremal entries are Catalan numbers.
    """
    _check_cap(2, n, max_length)  # before sizing hist from n
    hist = [0] * (n + 1)
    for codes in iter_complete_words(2, n, max_length=max_length):
        hist[sum(1 for c in codes if c == 2)] += 1
    return tuple(hist)


def marker_position_triangle(
    n: int, *, max_length: int = DEFAULT_MAX_LENGTH
) -> dict[tuple[int, int], int]:
    """Position counts for single-pair words of length 2n (d=2).

    Maps (i, j) with 1 <= i < j <= 2n to the number of complete words whose
    only 1/1-bar letters sit at positions i and j, in either order.
    """
    tri: dict[tuple[int, int], int] = {}
    for codes in iter_complete_words(2, n, max_length=max_length, marker_cap=1):
        marks = [p for p, c in enumerate(codes, start=1) if abs(c) == 1]
        if len(marks) == 2:
            key = (marks[0], marks[1])
            tri[key] = tri.get(key, 0) + 1
    return tri


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


def complete_word_objects(d: int, n: int, **kw) -> Iterator[GesselWord]:
    for codes in iter_complete_words(d, n, **kw):
        yield GesselWord.from_codes(codes, d)
