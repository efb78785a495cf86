from collections import Counter
from functools import cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def block_words(d, n, marker_cap):
    """The code tuples of the frontier's blocks, in the order they come out."""
    return [tuple(row) for block in enumeration._word_blocks(d, n, marker_cap)
            for row in block.tolist()]


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 4), (3, 3), (4, 2), (5, 2), (130, 1)])
@pytest.mark.parametrize("marker_cap", [None, 0, 1])
def test_iteration_matches_brute_force(d, n_max, marker_cap):
    for n in range(n_max + 1):
        got = block_words(d, n, marker_cap)
        assert got == brute_force_words(d, n, marker_cap), (d, n)
        if marker_cap is None:
            assert list(iter_complete_words(d, n)) == got, (d, n)


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 4), (3, 3)])
def test_the_last_letter_of_a_complete_word_is_forced(d, n_max):
    # the frontier appends the last letter untested: every prefix of length
    # 2n-1 of a complete word must have exactly one completing letter, and
    # that letter must not raise the count of 1s or of -1s past marker_cap
    codes = [*range(-d, 0), *range(1, d + 1)]
    for n in range(1, n_max + 1):
        for prefix in {w[:-1] for w in brute_force_words(d, n)}:
            (closing,) = [c for c in codes if is_complete(prefix + (c,), d=d)]
            marks = max(prefix.count(1), prefix.count(-1))
            assert max((prefix + (closing,)).count(c) for c in (1, -1)) == marks, prefix


# (2d)^(2n) candidate tuples at most, so the brute force stays small
BRUTE_FORCE_BUDGET = 4096


@st.composite
def frontier_cases(draw):
    d = draw(st.integers(1, 32))
    n_max = max(n for n in range(7) if (2 * d) ** (2 * n) <= BRUTE_FORCE_BUDGET)
    n = draw(st.integers(0, n_max))
    marker_cap = draw(st.sampled_from([None, 0, 1, 2, 3]))
    chunk = draw(st.one_of(st.integers(1, 5), st.just(4096)))
    return d, n, marker_cap, chunk


@given(frontier_cases())
@settings(max_examples=150, deadline=None)
def test_frontier_matches_brute_force_property(case):
    d, n, marker_cap, chunk = case
    with mock.patch.object(enumeration, "CHUNK", chunk):
        assert block_words(d, n, marker_cap) == brute_force_words(d, n, marker_cap)


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
    assert block_words(2, 3, 1) == brute_force_words(2, 3, 1)
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
    assert block_words(d, n, marker_cap) == brute_force_words(d, n, marker_cap)


def test_marker_cap_filters_letter_one_pairs():
    # words with at most one 1/1-bar pair
    capped = block_words(2, 3, 1)
    full = [w for w in iter_complete_words(2, 3)
            if sum(1 for c in w if c == 1) <= 1]
    assert capped == full


def test_cap_raises():
    with pytest.raises(CapExceededError):
        count_complete_words(2, 9)
    with pytest.raises(CapExceededError):
        next(iter_complete_words(2, 8))


def test_cap_reads_the_module_constant(monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_LENGTH", 4)
    assert count_complete_words(2, 2) == GESSEL_D2[2]
    for call in (
        lambda: count_complete_words(2, 3),
        lambda: next(iter_complete_words(2, 3)),
        lambda: profile_triangle_row(3),
        lambda: marker_position_triangle(3),
    ):
        with pytest.raises(CapExceededError, match="word length 6 exceeds enumeration cap 4"):
            call()


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


@pytest.mark.parametrize(
    "call, args",
    [
        (count_complete_words, (2, 2)),
        (lambda d, n: next(iter_complete_words(d, n)), (2, 2)),
        (profile_triangle_row, (2,)),
        (marker_position_triangle, (2,)),
    ],
    ids=["count", "iter", "profile", "positions"],
)
def test_entry_points_take_only_integral_arguments(call, args):
    for i in range(len(args)):
        bad = list(args)
        bad[i] += 0.5
        with pytest.raises(ValueError, match="must be integers"):
            call(*bad)
    # integral values of other types behave as plain ints
    import numpy as np

    assert call(*map(float, args)) == call(*map(np.int64, args)) == call(*args)


def test_invalid_dimension():
    with pytest.raises(ValueError):
        count_complete_words(0, 1)
