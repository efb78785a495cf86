from collections import Counter, defaultdict
from itertools import product
from math import ceil, log2
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesselwalks import (
    CapExceededError,
    count_complete_words,
    count_confined_walks,
    dyck,
    g_sequence,
    gessel_closed_form,
    gessel_steps,
    walk_count_table,
    walks,
)


def test_steps_are_closed_under_negation():
    # a walk back to the origin, read backwards, takes the negated steps; the
    # half-sweep origin count rests on this
    for d in range(1, 9):
        steps = gessel_steps(d)
        assert {tuple(-x for x in s) for s in steps} == steps, d


def test_step_sets():
    assert gessel_steps(1) == frozenset({(1,), (-1,)})
    assert gessel_steps(2) == frozenset({(1, 1), (1, 0), (-1, 0), (-1, -1)})
    s3 = gessel_steps(3)
    assert len(s3) == 6
    assert (1, 1, 1) in s3 and (-1, 0, 0) in s3


def test_d1_counts_are_catalan():
    assert [count_confined_walks(1, 2 * n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert count_confined_walks(1, 3) == 0


def test_d2_matches_closed_form():
    for n in range(9):
        assert count_confined_walks(2, 2 * n) == gessel_closed_form(n)


def test_g_sequence_single_sweep():
    assert g_sequence(2, 7) == [gessel_closed_form(n) for n in range(8)]
    assert g_sequence(1, 5) == [1, 1, 2, 5, 14, 42]


def test_d3_matches_enumeration():
    for n in range(5):
        assert count_confined_walks(3, 2 * n) == count_complete_words(3, n)


def test_endpoints():
    # one step can only reach the four neighbours
    assert count_confined_walks(2, 1, end=(1, 1)) == 1
    assert count_confined_walks(2, 1, end=(1, 0)) == 1
    assert count_confined_walks(2, 1, end=(0, 1)) == 0
    # leaving the cone is impossible
    assert count_confined_walks(2, 4, end=(-1, 0)) == 0
    assert count_confined_walks(2, 2, end=(99, 0)) == 0


def test_odd_length_origin_return_is_zero():
    # x_1 = length (mod 2), so no sweep runs, not even one past both caps
    for d in range(1, 5):
        for length in (1, 5, 10**9 + 1):
            assert count_confined_walks(d, length) == 0
            assert count_confined_walks(d, length, end=(0,) * d) == 0


def _origin_by_full_sweep(d, n):
    """G_d(n) read at the origin after all 2n steps of the sweep toward it."""
    origin = (0,) * d
    for coset, limbs in walks._run_dp(d, 2 * n, origin):
        pass
    return walks._read(coset, limbs, origin, walks._limb_bits(d))


@pytest.mark.parametrize("d, n_max", [(1, 40), (2, 40), (3, 20), (4, 10)])
def test_half_sweep_matches_the_full_sweep_origin(d, n_max):
    # at d=2 the full sweep's origin count needs a second limb from n = 17 on
    for n in range(n_max + 1):
        want = _origin_by_full_sweep(d, n)
        assert count_confined_walks(d, 2 * n) == want, n
        assert count_confined_walks(d, 2 * n, end=(0,) * d) == want, n


@st.composite
def _origin_cases(draw):
    d = draw(st.integers(1, 4))
    return d, draw(st.integers(0, (150, 60, 24, 12)[d - 1]))


@given(_origin_cases())
@settings(max_examples=30, deadline=None)
def test_half_sweep_origin_count_property(case):
    d, n = case
    assert count_confined_walks(d, 2 * n) == _origin_by_full_sweep(d, n)


@pytest.mark.parametrize("shape", [(1,), (1023,), (32, 32), (1025,), (3, 1025)])
@pytest.mark.parametrize("bits", [42, 58, 59, 60])
def test_sum_of_squares_is_exact(shape, bits):
    # limbs below the top at 2^B - 1 and a top limb at 2^(B+1) - 1 fill every
    # piece but those of one cell, whose 1 keeps a low bit set in every sum;
    # w = 21 divides B = 42, so the top limb's extra bit needs a piece of its
    # own; the shapes straddle the 1024-cell chunks
    import numpy as np

    rng = np.random.default_rng(bits * 7919 + sum(shape))
    for n_limbs in (1, 2, 5):
        full = [np.full(shape, 2**bits - 1) for _ in range(n_limbs - 1)]
        full.append(np.full(shape, 2 ** (bits + 1) - 1))
        for limb in full:
            limb.reshape(-1)[0] = 1
        drawn = [rng.integers(0, 2**bits, shape) for _ in range(n_limbs - 1)]
        drawn.append(rng.integers(0, 2 ** (bits + 1), shape))
        for limbs in (full, drawn):
            values = [
                sum(int(v) << (bits * k) for k, v in enumerate(cell))
                for cell in zip(*(limb.reshape(-1).tolist() for limb in limbs))
            ]
            assert walks._sum_of_squares(limbs, bits) == sum(v * v for v in values)


def test_walk_table_total_and_lookup():
    tab = walk_count_table(2, 2)
    # total over all endpoints = all confined 2-step walks
    brute = 0
    steps = sorted(gessel_steps(2))
    for s1 in steps:
        for s2 in steps:
            x, y = s1
            if x < 0 or y < 0:
                continue
            x2, y2 = x + s2[0], y + s2[1]
            if x2 < 0 or y2 < 0:
                continue
            brute += 1
    assert sum(tab.counts.values()) == brute
    # keys are points of the orthant, not indices into the stored coset
    assert tab.counts == {(0, 0): 2, (0, 1): 1, (2, 0): 1, (2, 1): 2, (2, 2): 1}


def _layers_before_cap(monkeypatch, run):
    """The layers a call's sweep yields before it raises CapExceededError,
    and the error's text."""
    built = []
    sweep = walks._run_dp

    def counting(*args):
        for layer in sweep(*args):
            built.append(layer)
            yield layer

    monkeypatch.setattr(walks, "_run_dp", counting)
    with pytest.raises(CapExceededError) as caught:
        run()
    monkeypatch.setattr(walks, "_run_dp", sweep)
    return len(built), str(caught.value)


def test_cell_cap(monkeypatch):
    # the full box of 4473 x 4473 cells is the first square one above the cap;
    # a count back to the origin sweeps half its length
    assert 4472**2 <= walks.DEFAULT_MAX_CELLS < 4473**2
    for run in (
        lambda: count_confined_walks(2, 2 * 4472),
        lambda: walk_count_table(2, 4472),
        lambda: g_sequence(2, 2236),
    ):
        built, error = _layers_before_cap(monkeypatch, run)
        assert built == 0 and f"cap {walks.DEFAULT_MAX_CELLS}" in error


def test_cell_cap_counts_the_full_box(monkeypatch):
    # the cap is on the worst-case box 41 x 41 of the 40-step half sweep
    # that counts the walks back to the origin after 80 steps, not on the
    # live region
    monkeypatch.setattr(walks, "DEFAULT_MAX_CELLS", 41 * 41)
    assert count_confined_walks(2, 80) == gessel_closed_form(40)
    monkeypatch.setattr(walks, "DEFAULT_MAX_CELLS", 41 * 41 - 1)
    built, _ = _layers_before_cap(monkeypatch, lambda: count_confined_walks(2, 80))
    assert built == 0


def _admitted(d, length, end):
    """Whether a Gessel sweep from the origin passes both caps.

    The caps are checked before layer 0 is yielded, so no step runs."""
    try:
        next(walks._run_dp(d, length, end))
    except CapExceededError:
        return False
    return True


def test_work_cap(monkeypatch):
    # the largest sweeps under the cap, timed in CHANGES.md: the half sweeps
    # of single origin counts, d=2 at n = 805 and d=1 at n = 9,695, and the
    # origin sweeps of sequences, d=2 at n = 678 and d=1 at 12,471 steps
    assert _admitted(2, 805, None) and not _admitted(2, 806, None)
    assert _admitted(1, 9695, None) and not _admitted(1, 9696, None)
    assert _admitted(2, 1356, (0, 0)) and not _admitted(2, 1358, (0, 0))
    assert _admitted(1, 12471, (0,)) and not _admitted(1, 12472, (0,))
    for run in (
        lambda: count_confined_walks(2, 2 * 806),
        lambda: walk_count_table(2, 806),
        lambda: g_sequence(2, 679),
    ):
        built, error = _layers_before_cap(monkeypatch, run)
        assert built == 0 and f"work cap of {walks.DEFAULT_MAX_WORK} " in error


def test_work_cap_reads_the_module_constant(monkeypatch):
    monkeypatch.setattr(walks, "DEFAULT_MAX_WORK", 0)
    assert count_confined_walks(2, 0) == 1
    with pytest.raises(CapExceededError, match="work cap of 0 "):
        count_confined_walks(2, 2)


@pytest.mark.parametrize("d, length", [(1, 300), (2, 120), (3, 40)])
def test_work_cap_bounds_the_limb_count(d, length):
    # the work cap predicts at most ceil((t*log2(2d) + 1) / B) limbs
    # after t steps; the open-ended sweep holds the largest counts
    bits = walks._limb_bits(d)
    for t, (_, limbs) in enumerate(walks._run_dp(d, length)):
        assert len(limbs) <= ceil((t * log2(2 * d) + 1) / bits), t


def _layers(d, length, end=None):
    """(coset, limb shapes) of every layer of one sweep."""
    sweep = walks._run_dp(d, length, end)
    return [(coset, {limb.shape for limb in limbs}) for coset, limbs in sweep]


def test_sweep_covers_only_the_live_region():
    # a Gessel step moves x by +-1, so layer t holds only x = t (mod 2):
    # index (i, j) stands for the point (t % 2 + 2i, j)
    gessel_coset = [((t % 2, 2), (0, 1)) for t in range(11)]
    to_origin = _layers(2, 10, (0, 0))
    wedge = [min(t, 10 - t) for t in range(11)]
    assert to_origin == [(c, {(m // 2 + 1, m + 1)}) for c, m in zip(gessel_coset, wedge)]
    open_end = _layers(2, 10)
    assert open_end == [(c, {(t // 2 + 1, t + 1)}) for t, c in enumerate(gessel_coset)]


def _origin_sweep_limbs(length):
    """(limb count, largest top-limb value) after each step of the d=2 origin sweep."""
    sweep = walks._run_dp(2, length, (0, 0))
    return [(len(limbs), int(limbs[-1].max())) for _, limbs in sweep]


def test_second_limb_follows_the_values():
    # B = 62 - bit_length(4) = 59: the largest cell of step 33 times |steps|
    # is the first to pass 2^59 - 1, so step 34 is the first with two limbs
    sweep = _origin_sweep_limbs(80)
    assert [k for k, _ in sweep[:35]] == [1] * 34 + [2]
    assert sweep[32][1] * 4 < 2**59 <= sweep[33][1] * 4
    assert g_sequence(2, 40) == [gessel_closed_form(n) for n in range(41)]


def test_multi_limb_sweep_stays_exact():
    # 2n = 80 ends on three limbs: a third appears at step 65
    counts = [k for k, _ in _origin_sweep_limbs(80)]
    assert counts == [1] * 34 + [2] * 31 + [3] * 16
    assert count_confined_walks(2, 80) == gessel_closed_form(40)


def test_g_sequence_matches_closed_form_to_200():
    assert g_sequence(2, 200) == [gessel_closed_form(n) for n in range(201)]


def _brute_endpoints(d, length):
    """Endpoint counts over every Gessel step sequence from the origin that
    stays in the orthant."""
    counts = Counter()
    for seq in product(sorted(gessel_steps(d)), repeat=length):
        point = (0,) * d
        for s in seq:
            point = tuple(map(add, point, s))
            if min(point) < 0:
                break
        else:
            counts[point] += 1
    return counts


@st.composite
def _walk_cases(draw):
    d = draw(st.integers(1, 3))
    end = draw(st.tuples(*[st.integers(0, 8)] * d))
    length = draw(st.integers(0, 6))
    return end, length


@given(_walk_cases())
@example(((6, 6), 6))  # far corner of the box
@example(((4, 0), 3))  # end beyond L
@example(((2, 1), 3))  # end off the x_1 parity coset
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force(case):
    end, length = case
    d = len(end)
    brute = _brute_endpoints(d, length)
    assert count_confined_walks(d, length, end=end) == brute[end]
    assert walk_count_table(d, length).counts == dict(brute)


def _dict_dp(d, length):
    """Endpoint counts by a layer-by-layer DP over a dict of Python ints."""
    steps = gessel_steps(d)
    layer = {(0,) * d: 1}
    for _ in range(length):
        nxt = defaultdict(int)
        for point, count in layer.items():
            for s in steps:
                q = tuple(map(add, point, s))
                if min(q) >= 0:
                    nxt[q] += count
        layer = nxt
    return dict(layer)


@st.composite
def _long_walk_cases(draw):
    d = draw(st.integers(1, 3))
    # the dict DP touches every reachable cell, so d=3 stays short; its
    # second limb appears at step 27
    length = draw(st.integers(30, 70) if d < 3 else st.integers(24, 28))
    return d, length


@given(_long_walk_cases())
@example((2, 70))
@example((3, 40))
@settings(max_examples=25, deadline=None)
def test_multi_limb_dp_matches_dict_dp(case):
    d, length = case
    want = _dict_dp(d, length)
    assert walk_count_table(d, length).counts == want
    end = max(want, key=want.get)
    assert count_confined_walks(d, length, end=end) == want[end]


def test_d1_counts_match_ballot_numbers_to_300():
    # B = 60 for two steps, so these lengths cross several limb boundaries
    for length in (59, 60, 61, 62, 121, 122, 183, 244, 299, 300):
        for j in {0, 1, 2, length // 2, length - 2, length - 1, length, length + 1}:
            got = count_confined_walks(1, length, end=(j,))
            assert got == dyck.ballot_count(0, j, length)
    table = walk_count_table(1, 300)
    assert table.counts == {
        (j,): dyck.ballot_count(0, j, 300) for j in range(0, 301, 2)
    }


def test_bad_inputs():
    with pytest.raises(ValueError):
        count_confined_walks(0, 2)
    with pytest.raises(ValueError):
        count_confined_walks(2, -1)
    with pytest.raises(ValueError):
        count_confined_walks(2, 2, end=(1,))
    # walks take the Gessel steps from the origin; there is no knob for either
    for knob in ({"steps": gessel_steps(2)}, {"start": (0, 0)}):
        with pytest.raises(TypeError):
            count_confined_walks(2, 2, **knob)
        with pytest.raises(TypeError):
            walk_count_table(2, 2, **knob)


def test_walk_count_table_rejects_a_negative_length():
    for length in (-1, -3):
        with pytest.raises(ValueError, match="length must be >= 0"):
            walk_count_table(2, length)


def test_endpoint_coordinates_must_be_integers():
    import numpy as np

    # int() would truncate 0.5 to the origin and count its 11 walks
    for end in ((0.5, 0), (0, 1.5), (-0.5, 0)):
        with pytest.raises(ValueError, match="end must be integers"):
            count_confined_walks(2, 4, end=end)
    # integral values of other types behave as plain ints
    want = count_confined_walks(2, 4, end=(2, 0))
    assert count_confined_walks(2, 4, end=(2.0, 0)) == want
    assert count_confined_walks(2, 4, end=np.array([2, 0])) == want
    assert count_confined_walks(2, 4, end=(np.int64(2), np.int32(0))) == want
