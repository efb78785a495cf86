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


def spelled_count(d, n):
    return sum(len(block) for block in enumeration._word_blocks(d, n, None))


@given(frontier_cases(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_tallies_match_the_spelled_words_property(case, profile_n):
    # tally runs take no marker_cap; at d=2, n=3 the 4^6 candidate words
    # of brute_force_profile fill BRUTE_FORCE_BUDGET
    d, n, _, chunk = case
    # with no byte budget, tally blocks hold CHUNK rows as word blocks do
    with mock.patch.object(enumeration, "CHUNK", chunk), \
            mock.patch.object(enumeration, "_TALLY_BLOCK_BYTES", 0):
        assert count_complete_words(d, n) == spelled_count(d, n)
        assert profile_triangle_row(profile_n) == brute_force_profile(profile_n)


@pytest.mark.parametrize("d", [127, 128, 130])
def test_tally_counts_across_the_code_dtype_edges(d):
    # codes leave int8 past d = 127, and the code sums of length-2 prefixes
    # pass 127 from d = 64 on
    assert count_complete_words(d, 2) == spelled_count(d, 2)


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 4), (3, 3)])
def test_complete_words_end_in_a_barred_letter(d, n_max):
    # so the profile tally finds no 2 in the forced last letter
    for n in range(1, n_max + 1):
        assert all(w[-1] < 0 for w in brute_force_words(d, n)), (d, n)


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
    monkeypatch.setattr(enumeration, "_TALLY_BLOCK_BYTES", 0)
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


def test_frontier_memory_grows_as_d_not_d_squared():
    # the tables' build holds d letter differences per surviving child of
    # a state, and a block O(d) ids per row; an array of d letter
    # differences for each of the 2d candidate children of every row would
    # peak near 161 MiB here
    import tracemalloc

    count_complete_words(1, 1)  # numpy's import is not the frontier's
    tracemalloc.start()
    try:
        assert count_complete_words(100, 2) == 34850
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_frontier_holds_one_chunk_of_children_per_level():
    # the tables come first: their build peaks near 33 MiB here, on the
    # 40,001 states of level 2 (200 letter differences, 400 survivor bits
    # and 200 imbalance terms each), and leaves 15.6 MiB of survivor masks.
    # Each level of the frontier then keeps its block, its survivors' ids
    # and one chunk of children: about 0.7 MiB over the tables.
    import tracemalloc

    count_complete_words(1, 1)  # numpy's import is not the frontier's
    tracemalloc.start()
    try:
        assert count_complete_words(200, 2) == 139700
        peak = tracemalloc.get_traced_memory()[1]
        tables = enumeration._state_tables(200, 2, None, 0)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        for _ in enumeration._word_blocks(200, 2, None, 0, tables):
            pass
        frontier = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20
    assert frontier < 2 * 2**20


def block_rows(d, n, tally):
    """The row count of every block _word_blocks yields."""
    return [len(block) for block in enumeration._word_blocks(d, n, None, tally)]


@pytest.mark.parametrize("d, n", [(2, 7), (3, 5), (8, 3), (200, 2)])
def test_tally_blocks_fill_a_byte_budget_and_word_blocks_keep_chunk_rows(d, n):
    # a tally row is one id, and takes 2d more while its children are
    # found; from d = 32 on the budget is below CHUNK rows, so tally blocks
    # keep CHUNK rows too.  A tally block holds all of its level's rows when
    # they fit: the 5,164 rows of the last tested level of (8, 3) do.
    rows = max(enumeration.CHUNK, enumeration._TALLY_BLOCK_BYTES // (2 * d + 1))
    assert rows > enumeration.CHUNK or d >= 32
    for tally in (0, 2):
        blocks = block_rows(d, n, tally)
        assert max(blocks) == min(rows, sum(blocks)), (d, n, tally)
    assert max(block_rows(d, n, None)) == enumeration.CHUNK


def test_tally_blocks_shrink_to_chunk_rows_without_a_byte_budget(monkeypatch):
    monkeypatch.setattr(enumeration, "CHUNK", 5)
    monkeypatch.setattr(enumeration, "_TALLY_BLOCK_BYTES", 0)
    for tally in (0, 2):
        assert set(block_rows(2, 4, tally)) == {1, 2, 3, 4, 5}
    assert count_complete_words(2, 4) == GESSEL_D2[4]


def test_a_count_run_at_small_d_stays_small():
    # the tables of d = 2 hold at most 26 states a level, and its tally
    # blocks about 52K one-byte ids each, one per level: about 1.0 MiB in all
    import tracemalloc

    count_complete_words(1, 1)  # numpy's import is not the frontier's
    tracemalloc.start()
    try:
        assert count_complete_words(2, 7) == 1020162
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# sha256 over the (shape, dtype) and bytes of every block of word runs with
# marker_cap None, 0, 1 and 2 in turn, at the default CHUNK
WORD_BLOCK_DIGESTS = {
    (1, 7): "374a17bdc63472b359b3282106b7bfe2e16cc0a5f5cb170d8a18a472a8ade225",
    (2, 5): "c9d9d7008d816c511f773ff14370c711ab4eb1f5e6c7167c29e0ed879ec2e817",
    (2, 6): "dd9b7b6166e188fd538498db9eead344e32157f7f4ce6293c0a8ddf8b3769b73",
    (2, 7): "20f4681eb7203b18ae73fdeb069c643f57a8a0a5f9b3522f39d61cb0b42498a2",
    (3, 4): "e406f96097500c79a37abc3679a07cda43f46b06321a4d36fdd08d9a0ef7a3a8",
    (3, 5): "57a3dbb27497017b9e3afbc2bb778cba92659bd7b94b7baf7f76764420c73a97",
    (4, 4): "b94db4e2cf35e08e6891767e8e6167d033c4a4fe67f453a9a3c5fe0d772d5713",
}


@pytest.mark.parametrize("d, n", sorted(WORD_BLOCK_DIGESTS))
def test_word_run_blocks_are_pinned_byte_for_byte(d, n):
    # verify's consumers read these blocks whole, so their split, dtype and
    # layout are part of what the frontier promises
    import hashlib

    digest = hashlib.sha256()
    for marker_cap in (None, 0, 1, 2):
        for block in enumeration._word_blocks(d, n, marker_cap):
            digest.update(repr((block.shape, block.dtype.str)).encode())
            digest.update(block.tobytes())
    assert digest.hexdigest() == WORD_BLOCK_DIGESTS[d, n]


def test_forced_letters_past_an_int8_code_sum():
    # at d = 64 a row one letter from the end can have code sum 2d = 128,
    # past int8; the last level sums codes in int16, which holds 2d up to
    # the d cap
    import numpy as np

    assert 2 * enumeration.DEFAULT_MAX_D <= np.iinfo(np.int16).max
    words = list(iter_complete_words(64, 2))
    assert len(words) == count_complete_words(64, 2)
    high = [w for w in words if w[0] + w[1] > 127]
    assert (64, 64, -64, -64) in high
    assert all(is_complete(w, 64) for w in high)


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


def test_iter_complete_words_checks_its_arguments_at_the_call():
    with pytest.raises(CapExceededError):
        iter_complete_words(2, 100)
    with pytest.raises(ValueError, match="d and n must be integers"):
        iter_complete_words(2.5, 1)


def test_d_cap_admits_its_bound_and_refuses_the_next_d():
    # length 2 has d complete words, one per axis: a letter and its bar
    assert count_complete_words(enumeration.DEFAULT_MAX_D, 1) == enumeration.DEFAULT_MAX_D
    assert count_complete_words(200, 2) == 139700
    for n in (0, 1):
        with pytest.raises(CapExceededError, match="d = 1025 exceeds enumeration cap d <= 1024"):
            count_complete_words(enumeration.DEFAULT_MAX_D + 1, n)


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


def _frontier_rows(d, n):
    """The rows the frontier tests: every prefix of length 0..2n-2 of a
    complete word, since each prefix that passes extends to one."""
    words = list(iter_complete_words(d, n))
    return sum(len({w[:t] for w in words}) for t in range(2 * n - 1))


@pytest.mark.parametrize("d, n", [(1, 6), (2, 5), (3, 4), (4, 4), (8, 3), (40, 2)])
def test_estimated_rows_are_near_the_frontier_rows(d, n):
    estimate = enumeration._estimated_rows(d, n)
    assert estimate == enumeration._estimated_rows(d, n)  # a fixed seed
    assert 0.9 < estimate / _frontier_rows(d, n) < 1.1


def test_work_cap_admits_the_measured_requests_and_refuses_the_next():
    # (4, 7) ran 20.5 s and (6, 6) 16.3 s as child processes on a 2-vCPU
    # host, with 5.2 and 3.7 * 10^9 work; (8, 6) has 3.5 * 10^10
    def work(d, n):
        return (d + 1) * enumeration._estimated_rows(d, n)

    cap = enumeration.DEFAULT_MAX_WORK
    assert max(work(4, 7), work(6, 6), work(128, 3)) < cap
    assert min(work(8, 6), work(5, 7), work(160, 3)) > cap


def test_work_cap_fires_before_the_first_block(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("entered _word_blocks")

    monkeypatch.setattr(enumeration, "_word_blocks", no_blocks)
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_WORK", 1000)
    for call in (
        lambda: count_complete_words(3, 4),
        lambda: iter_complete_words(3, 4),
        lambda: profile_triangle_row(4),
        lambda: marker_position_triangle(4),
    ):
        with pytest.raises(CapExceededError, match="exceeds enumeration work cap 1e[+]03"):
            call()


def test_work_cap_probes_only_what_its_bound_does_not_clear(monkeypatch):
    # (2d)^(2n-1) rows times d + 1 stays under the cap for every d <= 3 at
    # n <= 6 and d <= 2 at n <= 7, so the menus of small requests never probe
    def no_probe(d, n):
        raise AssertionError(f"probed ({d}, {n})")

    monkeypatch.setattr(enumeration, "_estimated_rows", no_probe)
    assert count_complete_words(2, 7) == 1020162
    assert count_complete_words(3, 6) == 2909626
    assert count_complete_words(7, 0) == 1


@st.composite
def table_cases(draw):
    """(d, n, marker_cap, tally) of a word run or of a tally run."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return d, n, draw(st.sampled_from([None, 0, 1, 2])), None
    return d, n, None, draw(st.sampled_from([0, *range(-d, 0), *range(1, d + 1)]))


@given(table_cases())
@settings(max_examples=100, deadline=None)
def test_state_tables_restate_the_prefix_test_property(case):
    # Rebuild every state vector from the empty prefix through the tables
    # alone, with the letter steps spelled out here, and test each level's
    # states with _extensions and the marker cap.
    import numpy as np

    d, n, marker_cap, tally = case
    codes = [*range(-d, 0), *range(1, d + 1)]
    nexts, leaf = enumeration._state_tables(d, n, marker_cap, tally)
    # a state: its d letter differences, then its count of code tally and
    # its counts of 1 and -1 where the run keeps them
    steps = np.zeros((d, 2 * d), int)
    for c, code in enumerate(codes):
        steps[abs(code) - 1, c] = 1 if code > 0 else -1
    if tally:
        steps = np.vstack([steps, [code == tally for code in codes]])
    if marker_cap is not None:
        steps = np.vstack([steps, [code == 1 for code in codes], [code == -1 for code in codes]])
    states = np.zeros((len(steps), 1), int)
    assert len(nexts) == 2 * n - 1 - (tally is not None)
    for pos, nxt in enumerate(nexts):
        assert nxt.shape == (states.shape[1], 2 * d)
        ok = enumeration._extensions(states[:d], 2 * n - pos)
        if marker_cap is not None:
            ok[d] &= states[-2] < marker_cap
            ok[d - 1] &= states[-1] < marker_cap
        assert ((nxt >= 0) == ok.T).all(), pos
        parent, letter = np.nonzero(nxt >= 0)
        ids = nxt[parent, letter].astype(int)
        children = states[:, parent] + steps[:, letter]
        distinct = np.unique(ids)
        assert (distinct == np.arange(len(distinct))).all()  # ids 0.., each used
        states = np.zeros((len(steps), len(distinct)), int)
        states[:, ids] = children
        # one vector per id, and one id per vector
        assert (states[:, ids] == children).all(), pos
        assert len({tuple(v) for v in states.T.tolist()}) == states.shape[1], pos
    if tally is None:
        # level 2n - 1: each forced letter cancels its state's imbalance of 1
        assert len(leaf) == states.shape[1]
        for state, code in zip(states.T, leaf.tolist()):
            assert np.abs(state[:d]).sum() == 1
            assert not (state[:d] + steps[:d, codes.index(code)]).any()
    else:
        counts, ok = leaf
        assert (ok == enumeration._extensions(states[:d], 2)).all()
        if tally:
            assert (counts == states[d]).all()
        else:
            assert counts is None


def test_table_cap_fires_before_the_first_block(monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("entered _word_blocks")

    monkeypatch.setattr(enumeration, "_word_blocks", no_blocks)
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_TABLE_BYTES", 100)
    for call in (
        lambda: count_complete_words(3, 4),
        lambda: iter_complete_words(3, 4),
        lambda: profile_triangle_row(4),
        lambda: marker_position_triangle(4),
    ):
        with pytest.raises(CapExceededError, match="exceed enumeration table cap 100 bytes"):
            call()


def test_table_cap_admits_the_measured_requests_and_refuses_the_next():
    # the tables of the work cap's largest requests, (4, 7) and (6, 6), and
    # of the word runs of (130, 1) and (200, 2) fit; at n = 2 the count
    # tables fit up to d = 306
    for d, n, tally in [(4, 7, 0), (6, 6, 0), (130, 1, None), (200, 2, None), (306, 2, 0)]:
        enumeration._state_tables(d, n, None, tally)
    for d, n in [(307, 2), (1024, 2), (100, 3)]:
        with pytest.raises(CapExceededError, match=f"d = {d}, n = {n} exceed enumeration table cap"):
            count_complete_words(d, n)


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
