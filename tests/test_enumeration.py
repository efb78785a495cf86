from collections import Counter
from functools import cache
from itertools import product

import pytest

from gesselwalks import (
    CapExceededError,
    GesselWord,
    count_complete_words,
    is_complete,
    is_gessel_word,
    iter_complete_words,
    marker_position_triangle,
    profile_triangle_row,
    triangle_rows,
)
from gesselwalks import enumeration

GESSEL_D2 = [1, 2, 11, 85, 782, 8004]


def test_counts_match_known_d2():
    for n, want in enumerate(GESSEL_D2):
        assert count_complete_words(2, n) == want


def test_counts_d1_are_catalan():
    # d=1 complete words are balanced parenthesis strings
    assert [count_complete_words(1, n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_codes_beyond_int8_stay_exact():
    # length-2 complete words are (c, -c), one per letter pair
    assert count_complete_words(128, 1) == 128
    assert list(iter_complete_words(130, 1))[-1] == (130, -130)


def test_iterated_words_are_valid_complete_and_sorted():
    seen = list(iter_complete_words(2, 3))
    assert len(seen) == 85
    assert seen == sorted(seen)
    assert len(set(seen)) == 85
    for codes in seen:
        assert is_gessel_word(codes, d=2)
        assert is_complete(codes, d=2)


def test_word_objects():
    objs = [GesselWord.from_codes(codes, 2) for codes in iter_complete_words(2, 2)]
    assert len(objs) == 11
    assert all(isinstance(w, GesselWord) for w in objs)


@cache
def brute_force_words(d, n, marker_cap=None):
    """Every code tuple of length 2n that is complete, in lexicographic order."""
    if marker_cap is not None:
        return [w for w in brute_force_words(d, n)
                if max(w.count(1), w.count(-1)) <= marker_cap]
    codes = [*range(-d, 0), *range(1, d + 1)]
    # a zero letter sum is necessary for completeness and cheap to test
    return [w for w in product(codes, repeat=2 * n) if not sum(w) and is_complete(w, d=d)]


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 4), (3, 3)])
@pytest.mark.parametrize("marker_cap", [None, 1])
def test_iteration_matches_brute_force(d, n_max, marker_cap):
    for n in range(n_max + 1):
        got = list(iter_complete_words(d, n, marker_cap=marker_cap))
        assert got == brute_force_words(d, n, marker_cap), (d, n)


def brute_force_profile(n):
    hist = Counter(w.count(2) for w in brute_force_words(2, n))
    return tuple(hist[j] for j in range(n + 1))


def brute_force_positions(n):
    tri = Counter()
    for w in brute_force_words(2, n, marker_cap=1):
        marks = [p for p, c in enumerate(w, start=1) if abs(c) == 1]
        if marks:
            tri[tuple(marks)] += 1
    return dict(tri)


def test_triangles_match_brute_force():
    assert profile_triangle_row(5) == brute_force_profile(5)
    assert marker_position_triangle(5) == brute_force_positions(5)


def test_small_chunks_keep_results_and_order(monkeypatch):
    monkeypatch.setattr(enumeration, "CHUNK", 3)
    assert count_complete_words(2, 4) == GESSEL_D2[4]
    assert list(iter_complete_words(2, 3, marker_cap=1)) == brute_force_words(2, 3, 1)
    for n in range(5):
        assert profile_triangle_row(n) == brute_force_profile(n)
        assert marker_position_triangle(n) == brute_force_positions(n)


@pytest.mark.parametrize("d, n", [(1, 5), (2, 4), (3, 3)])
@pytest.mark.parametrize("marker_cap", [None, 0, 1, 2])
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_tiny_chunks_match_brute_force(monkeypatch, chunk, marker_cap, d, n):
    # blocks of 1-3 rows put survivors of every parent row and letter at
    # block edges, where the row and letter indices of a child are split
    monkeypatch.setattr(enumeration, "CHUNK", chunk)
    got = list(iter_complete_words(d, n, marker_cap=marker_cap))
    assert got == brute_force_words(d, n, marker_cap)


def test_marker_cap_filters_letter_one_pairs():
    # words with at most one 1/1-bar pair
    capped = list(iter_complete_words(2, 3, marker_cap=1))
    full = [w for w in iter_complete_words(2, 3)
            if sum(1 for c in w if c == 1) <= 1]
    assert capped == full


def test_cap_raises():
    with pytest.raises(CapExceededError):
        count_complete_words(2, 9, max_length=14)
    with pytest.raises(CapExceededError):
        next(iter_complete_words(2, 8))


def test_profile_triangle_rows():
    assert profile_triangle_row(0) == (1,)
    assert profile_triangle_row(1) == (1, 1)
    assert profile_triangle_row(2) == (2, 7, 2)
    assert profile_triangle_row(3) == (5, 37, 38, 5)
    assert profile_triangle_row(4) == (14, 177, 390, 187, 14)


def test_profile_row_sums_to_total():
    for n in range(5):
        assert sum(profile_triangle_row(n)) == GESSEL_D2[n]


def test_marker_position_triangle_layout():
    tri = marker_position_triangle(3)
    assert triangle_rows(tri, 3) == [
        [2],
        [2, 2],
        [2, 3, 2],
        [2, 3, 3, 2],
        [2, 4, 3, 4, 2],
    ]


def test_marker_position_triangle_total_is_single_pair_count():
    for n in range(1, 5):
        tri = marker_position_triangle(n)
        assert sum(tri.values()) == profile_triangle_row(n)[n - 1]


def test_invalid_dimension():
    with pytest.raises(ValueError):
        count_complete_words(0, 1)
