from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesselwalks import (
    MalformedWordError,
    GesselWord,
    PathConstraintError,
    PHConstraint,
    ballot_count,
    catalan,
    count_ph_paths,
    format_path,
    is_complete,
    marker_floors,
    marker_lists,
    markers_to_word,
    parse_path,
    path_heights,
    word_steps,
    word_to_markers,
)
from gesselwalks.dyck import ballot_count_dp


def iter_ph_paths(constraint, length):
    """Every +-1 path of the given length that ends at 0 on or above the floors.

    Brute force over all 2^length step sequences: the oracle for
    count_ph_paths at test-sized lengths.
    """
    prof = constraint.floor_profile(length)
    for steps in product((1, -1), repeat=length):
        heights = path_heights(steps)
        if heights[-1] == 0 and all(h >= f for h, f in zip(heights, prof)):
            yield steps


def test_ballot_spot_values():
    assert ballot_count(0, 0, 0) == 1
    assert ballot_count(0, 0, 2) == 1
    assert ballot_count(0, 0, 4) == 2
    assert ballot_count(1, 1, 2) == 2
    assert ballot_count(2, 0, 2) == 1
    assert ballot_count(0, 0, 6) == 5


def test_ballot_parity_and_negatives():
    assert ballot_count(0, 0, 3) == 0
    assert ballot_count(1, 0, 2) == 0
    assert ballot_count(-1, 0, 1) == 0
    assert ballot_count(0, -2, 2) == 0
    # the raw reflection expression is nonzero here; the guard must win
    assert ballot_count(2, -2, 4) == 0


def test_ballot_closed_equals_dp():
    for i in range(13):
        for j in range(13):
            for k in range(25):
                assert ballot_count(i, j, k) == ballot_count_dp(i, j, k), (i, j, k)


@given(
    st.integers(min_value=-2, max_value=70),
    st.integers(min_value=-2, max_value=70),
    st.integers(min_value=0, max_value=64),
)
def test_ballot_closed_equals_dp_property(i, j, k):
    assert ballot_count(i, j, k) == ballot_count_dp(i, j, k)


def test_catalan():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert catalan(-1) == 0


def test_path_parsing():
    assert parse_path("UUDD") == (1, 1, -1, -1)
    assert parse_path("udud") == (1, -1, 1, -1)
    assert format_path((1, 1, -1, -1)) == "UUDD"
    assert path_heights((1, 1, -1, -1)) == (0, 1, 2, 1, 0)
    with pytest.raises(ValueError):
        parse_path("UXD")


def test_constraint_validation():
    PHConstraint((1, 2), (1, 0))
    PHConstraint((1, 1), (1, 0))      # equal abscissae from adjacent markers
    PHConstraint((0, 3), (0, 0))      # position 0 from a leading marker
    with pytest.raises(ValueError):
        PHConstraint((2, 1), (0, 0))
    with pytest.raises(ValueError):
        PHConstraint((1,), (0, 0))
    with pytest.raises(ValueError):
        PHConstraint((1, 2), (-1, 0))
    with pytest.raises(ValueError):
        PHConstraint((-1, 2), (0, 0))


def test_constraint_floor_profile():
    c = PHConstraint((1, 2), (1, 0))
    assert c.floor_profile(4) == [0, 1, 1, 0, 0]
    # the final floor entry never constrains on its own
    c2 = PHConstraint((1, 3), (2, 5))
    assert c2.floor_profile(4) == [0, 2, 2, 2, 0]


def test_marker_floors():
    assert marker_floors((-1, 1)) == (1, 0)
    assert marker_floors((1, -1)) == (0, 0)
    assert marker_floors((-1, -1, 1, 1)) == (1, 2, 1, 0)


def test_worked_example():
    w = GesselWord.parse("2 -1 2 1 -2 -2")
    ml = word_to_markers(w)
    assert ml.signs == (-1, 1)
    assert ml.word_positions == (2, 4)
    assert ml.path_positions == (1, 2)
    assert ml.floors == (1, 0)
    c = ml.constraint()
    assert [format_path(p) for p in iter_ph_paths(c, 4)] == ["UUDD"]
    assert count_ph_paths(c, 4) == 1


def test_markers_to_word_round_trip_small():
    for n in range(0, 4):
        from gesselwalks import iter_complete_words

        for codes in iter_complete_words(2, n):
            w = GesselWord.from_codes(codes, 2)
            ml = word_to_markers(w)
            rebuilt = markers_to_word(word_steps(w), ml.word_positions, ml.signs)
            assert rebuilt.codes() == codes


@st.composite
def _complete_d2_words(draw):
    """A complete d=2 word of length 14..40, drawn one letter at a time.

    With a = #2 - #2bar and s = #plain - #barred, a word is valid while both
    stay >= 0 and complete when both end at 0.  From (a, s) the shortest
    completion takes a + |a - s| letters, so a letter is offered only when
    the letters left can still close the word.
    """
    length = 2 * draw(st.integers(7, 20))
    a = s = 0
    codes = []
    for left in range(length - 1, -1, -1):
        options = [
            (code, a + da, s + ds)
            for code, da, ds in ((2, 1, 1), (-2, -1, -1), (1, 0, 1), (-1, 0, -1))
            if 0 <= a + da and 0 <= s + ds and a + da + abs(a + da - s - ds) <= left
        ]
        code, a, s = draw(st.sampled_from(options))
        codes.append(code)
    return tuple(codes)


@given(_complete_d2_words())
@settings(max_examples=150, deadline=None)
def test_markers_to_word_round_trip_long_words(codes):
    # the exhaustive round trip in verify stops at length 12
    w = GesselWord.from_codes(codes, 2)
    assert is_complete(w)
    ml = word_to_markers(w)
    rebuilt = markers_to_word(word_steps(w), ml.word_positions, ml.signs)
    assert rebuilt.codes() == codes


def test_markers_to_word_rejects_nonconforming_path():
    # floor 1 on abscissa range [1, 2] rules out the path UDUD
    with pytest.raises(PathConstraintError) as err:
        markers_to_word((1, -1, 1, -1), (2, 4), (-1, 1))
    assert err.value.segment is not None


def test_markers_to_word_rejects_unbalanced_path():
    with pytest.raises(PathConstraintError):
        markers_to_word((1, 1, -1, 1), (2, 4), (-1, 1))


def test_word_to_markers_builds_its_lists_without_revalidating(monkeypatch):
    from gesselwalks import dyck, iter_complete_words

    words = [GesselWord.from_codes(codes, 2) for n in range(4) for codes in iter_complete_words(2, n)]
    want = []
    for w in words:
        marks = [(p, c) for p, c in enumerate(w.codes(), start=1) if abs(c) == 1]
        want.append(marker_lists([c for _, c in marks], [p for p, _ in marks]))

    def fail(*args):
        pytest.fail("word_to_markers re-ran marker_lists")

    monkeypatch.setattr(dyck, "marker_lists", fail)
    assert [word_to_markers(w) for w in words] == want


def test_word_to_markers_needs_small_alphabet():
    with pytest.raises(MalformedWordError):
        word_to_markers(GesselWord.parse("3 2 1 -3 -2 -1"))


def test_word_to_markers_rejects_incomplete():
    with pytest.raises(MalformedWordError):
        word_to_markers(GesselWord.parse("2 1 -2", d=2))


def test_ballot_dp_cap():
    from gesselwalks import CapExceededError

    with pytest.raises(CapExceededError):
        ballot_count_dp(0, 0, 100)
    assert ballot_count_dp(0, 0, 100, max_steps=128) > 0


def test_count_ph_paths_against_iteration():
    cases = [
        PHConstraint((), ()),
        PHConstraint((1, 2), (1, 0)),
        PHConstraint((0, 1), (0, 0)),
        PHConstraint((2, 2), (1, 0)),
        PHConstraint((1, 4), (2, 0)),
        PHConstraint((1, 3, 5), (1, 2, 0)),
    ]
    for c in cases:
        for length in range(0, 11):
            assert count_ph_paths(c, length) == len(list(iter_ph_paths(c, length))), (
                c,
                length,
            )


def test_count_ph_paths_unconstrained_is_catalan():
    empty = PHConstraint((), ())
    for n in range(7):
        assert count_ph_paths(empty, 2 * n) == catalan(n)
        assert count_ph_paths(empty, 2 * n + 1) == 0


def test_high_floor_kills_all_paths():
    c = PHConstraint((1, 2), (9, 0))
    assert count_ph_paths(c, 6) == 0
    assert list(iter_ph_paths(c, 6)) == []


def test_marker_lists_validation():
    with pytest.raises(ValueError):
        marker_lists((1, 2), (1, 2))
    with pytest.raises(ValueError):
        marker_lists((1, -1), (2, 1))
    with pytest.raises(ValueError):
        marker_lists((1, -1), (0, 1))
    with pytest.raises(ValueError):
        marker_lists((1,), (1, 2))
