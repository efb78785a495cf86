from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesselwalks import (
    MalformedWordError,
    GesselWord,
    PathConstraintError,
    PHConstraint,
    ballot_count,
    catalan,
    count_ph_paths,
    is_complete,
    marker_floors,
    marker_lists,
    markers_to_word,
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
        heights = tuple(accumulate(steps, initial=0))
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


def test_constraint_entries_must_be_integers():
    with pytest.raises(ValueError, match="floors must be integers"):
        PHConstraint((1, 2), (1.5, 0))
    with pytest.raises(ValueError, match="positions must be integers"):
        PHConstraint((0.5, 2), (1, 0))
    # integral values of other types are stored as plain ints
    import numpy as np

    c = PHConstraint((np.int64(1), 2.0), [1.0, 0])
    assert c == PHConstraint((1, 2), (1, 0))
    assert all(type(v) is int for v in c.positions + c.floors)
    assert count_ph_paths(c, 4) == 1


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
    assert list(iter_ph_paths(c, 4)) == [(1, 1, -1, -1)]
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


def _rebuild_oracle(path, positions, signs):
    """markers_to_word restated from PHConstraint.floor_profile: the rebuilt
    codes, or (segment, abscissa, floor, height) of the PathConstraintError."""
    abscissae = tuple(p - i for i, p in enumerate(positions, start=1))
    floors = marker_floors(signs)
    prof = PHConstraint(abscissae, floors).floor_profile(len(path))
    for t, h in enumerate(accumulate(path, initial=0)):
        if h < 0:
            return None, t, 0, h
        if h < prof[t]:
            seg = next(
                i + 1
                for i in range(len(signs) - 1)
                if abscissae[i] <= t <= abscissae[i + 1] and floors[i] == prof[t]
            )
            return seg, t, prof[t], h
    if sum(path):
        return None, None, None, None  # ends above 0
    steps = iter(path)
    marker_at = dict(zip(positions, signs))
    length = len(path) + len(signs)
    return tuple(marker_at[p] if p in marker_at else 2 * next(steps) for p in range(1, length + 1))


@st.composite
def _markers_and_path(draw):
    """Balanced marker signs at strictly increasing 1-based word positions, and
    any +-1 path of the length they leave.

    The markers' path abscissae are drawn with repeats from [0, steps], so
    markers at position 1 (abscissa 0) and adjacent markers (one shared
    abscissa) come up often.
    """
    pairs = draw(st.integers(0, 4))
    signs = tuple(draw(st.permutations([1] * pairs + [-1] * pairs)))
    steps = draw(st.integers(0, 12))
    marks = st.lists(st.integers(0, steps), min_size=2 * pairs, max_size=2 * pairs)
    abscissae = sorted(draw(marks))
    positions = tuple(a + i for i, a in enumerate(abscissae, start=1))
    path = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=steps, max_size=steps)))
    return path, positions, signs


@given(_markers_and_path())
@example(((1, 1, -1, -1), (1, 2), (-1, 1)))  # leading marker: floor 1 at abscissa 0
@example(((1, -1, 1, -1), (2, 3, 5, 6), (-1, -1, 1, 1)))  # floors 1, 2, 1 from adjacent markers
@example(((1, 1, 1, -1, -1, -1), (3, 4, 6, 7), (-1, -1, 1, 1)))  # conforms
@settings(max_examples=400, deadline=None)
def test_markers_to_word_checks_the_floors_in_one_pass(case):
    path, positions, signs = case
    try:
        got = markers_to_word(path, positions, signs).codes()
    except PathConstraintError as err:
        got = err.segment, err.abscissa, err.floor, err.height
    assert got == _rebuild_oracle(path, positions, signs)


def test_markers_to_word_checks_a_conforming_path_without_the_floor_profile(monkeypatch):
    from gesselwalks import iter_complete_words

    words = [GesselWord.from_codes(c, 2) for n in range(5) for c in iter_complete_words(2, n)]
    cases = [(word_steps(w), word_to_markers(w)) for w in words]

    def fail(self, length):
        pytest.fail("markers_to_word built a floor profile")

    monkeypatch.setattr(PHConstraint, "floor_profile", fail)
    assert [markers_to_word(path, ml.word_positions, ml.signs) for path, ml in cases] == words


def test_markers_to_word_rejects_nonconforming_path():
    # floor 1 on abscissa range [1, 2] rules out the path UDUD
    with pytest.raises(PathConstraintError) as err:
        markers_to_word((1, -1, 1, -1), (2, 4), (-1, 1))
    assert err.value.segment is not None


def test_markers_to_word_rejects_unbalanced_path():
    with pytest.raises(PathConstraintError):
        markers_to_word((1, 1, -1, 1), (2, 4), (-1, 1))


@pytest.mark.parametrize(
    "path, message",
    [((2, -1, -1), "path step 0 is 2"), ((1, 0, 0, -1), "path step 1 is 0"), ((1, 1, -2), "path step 2 is -2")],
)
def test_markers_to_word_rejects_steps_other_than_plus_minus_one(path, message):
    # each of these ends at 0 without dipping below it
    with pytest.raises(MalformedWordError, match=message):
        markers_to_word(path, (), ())


def test_marker_data_must_be_integers():
    with pytest.raises(ValueError, match="signs must be integers"):
        marker_lists((1.5, -1), (1, 2))
    with pytest.raises(ValueError, match="positions must be integers"):
        markers_to_word((1, -1), (1.7, 2.9), (1, -1))
    # integral values of other types behave as plain ints
    import numpy as np

    want = marker_lists((1, -1), (1, 4))
    assert marker_lists(np.array([1, -1]), np.array([1, 4])) == want
    assert marker_lists((1.0, -1), (1, 4.0)) == want
    assert markers_to_word((1, -1), np.array([1, 4]), (np.int64(1), -1)).codes() == (1, 2, -2, -1)


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

    assert ballot_count_dp(0, 0, 64) == catalan(32)
    with pytest.raises(CapExceededError, match="cap 64"):
        ballot_count_dp(0, 0, 65)


def test_count_ph_paths_cap():
    from gesselwalks import CapExceededError

    empty = PHConstraint((), ())
    assert count_ph_paths(empty, 64) == catalan(32)
    with pytest.raises(CapExceededError, match="cap 64"):
        count_ph_paths(empty, 66)


def test_path_dp_caps_read_the_module_constant(monkeypatch):
    from gesselwalks import CapExceededError, dyck

    monkeypatch.setattr(dyck, "DEFAULT_MAX_STEPS", 128)
    assert ballot_count_dp(0, 0, 100) == catalan(50)
    assert count_ph_paths(PHConstraint((), ()), 100) == catalan(50)
    monkeypatch.setattr(dyck, "DEFAULT_MAX_STEPS", 4)
    with pytest.raises(CapExceededError):
        ballot_count_dp(0, 0, 6)
    with pytest.raises(CapExceededError):
        count_ph_paths(PHConstraint((), ()), 6)


@st.composite
def _constraints(draw):
    """A PHConstraint and a path length <= 12: non-decreasing positions drawn
    from [0, length + 2], so some reach past the path's end, and floors in
    [0, 4], often above every path that fits."""
    length = draw(st.integers(0, 12))
    m = draw(st.integers(0, 5))
    positions = sorted(draw(st.lists(st.integers(0, length + 2), min_size=m, max_size=m)))
    floors = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    return PHConstraint(tuple(positions), tuple(floors)), length


@given(_constraints())
@example((PHConstraint((), ()), 10))
@example((PHConstraint((1, 2), (1, 0)), 4))
@example((PHConstraint((0, 1), (0, 0)), 7))
@example((PHConstraint((0, 1), (1, 0)), 4))  # floor above 0 at abscissa 0
@example((PHConstraint((2, 2), (1, 0)), 6))
@example((PHConstraint((1, 4), (2, 0)), 8))
@example((PHConstraint((1, 3, 5), (1, 2, 0)), 10))
@settings(max_examples=300, deadline=None)
def test_count_ph_paths_against_iteration(case):
    constraint, length = case
    assert count_ph_paths(constraint, length) == len(list(iter_ph_paths(constraint, length)))


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
