from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesselwalks import (
    CapExceededError,
    count_complete_words,
    count_confined_walks,
    g_sequence,
    gessel_closed_form,
    gessel_steps,
    walk_count_table,
    walks,
)


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
    assert count_confined_walks(2, 5) == 0


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
    assert tab.total == brute
    assert tab.count((0, 0)) == 2
    assert tab.count((50, 50)) == 0


def test_custom_start():
    # from (1, 1) a single down-left step returns to the origin
    assert count_confined_walks(2, 1, start=(1, 1), end=(0, 0)) == 1


def test_custom_steps():
    # plain N/E/S/W steps from the origin back to itself, 2 steps
    nsew = {(0, 1), (1, 0), (0, -1), (-1, 0)}
    assert count_confined_walks(2, 2, steps=nsew) == 2


def test_cell_cap():
    with pytest.raises(CapExceededError):
        count_confined_walks(2, 40, max_cells=1000)


def test_cell_cap_counts_the_full_box():
    # the cap is on the worst-case box 41 x 41, not on the live wedge
    assert count_confined_walks(2, 40, max_cells=41 * 41) == gessel_closed_form(20)
    with pytest.raises(CapExceededError):
        count_confined_walks(2, 40, max_cells=41 * 41 - 1)


def test_sweep_covers_only_the_live_region():
    steps, origin, cap = gessel_steps(2), (0, 0), walks.DEFAULT_MAX_CELLS
    to_origin = [layer.shape for layer in walks._run_dp(2, steps, 10, origin, cap, origin)]
    assert to_origin == [(min(t, 10 - t) + 1,) * 2 for t in range(11)]
    open_end = [layer.shape for layer in walks._run_dp(2, steps, 10, (2, 0), cap)]
    assert open_end == [(t + 3, t + 1) for t in range(11)]


def _origin_sweep_dtypes(length):
    origin = (0, 0)
    sweep = walks._run_dp(2, gessel_steps(2), length, origin, walks.DEFAULT_MAX_CELLS, origin)
    return [layer.dtype for layer in sweep]


def test_dtype_gate_follows_the_values():
    # the largest cell of step 35 times |steps| first reaches 2^62
    dtypes = _origin_sweep_dtypes(80)
    assert dtypes[:36] == [np.dtype(np.int64)] * 36
    assert dtypes[36:] == [object] * 45
    assert g_sequence(2, 40) == [gessel_closed_form(n) for n in range(41)]


def test_object_dtype_path_stays_exact():
    # 2n = 80 runs past the switch at step 36
    assert _origin_sweep_dtypes(80)[-1] == object
    assert count_confined_walks(2, 80) == gessel_closed_form(40)


def test_g_sequence_matches_closed_form_to_200():
    assert g_sequence(2, 200) == [gessel_closed_form(n) for n in range(201)]


def _brute_endpoints(steps, length, start):
    """Endpoint counts over every step sequence that stays in the orthant."""
    counts = Counter()
    for seq in product(sorted(steps), repeat=length):
        point = start
        for s in seq:
            point = tuple(x + dx for x, dx in zip(point, s))
            if min(point) < 0:
                break
        else:
            counts[point] += 1
    return counts


@st.composite
def _walk_cases(draw):
    d = draw(st.integers(1, 3))
    step = st.tuples(*[st.integers(-2, 2)] * d)
    steps = draw(
        st.sets(step, min_size=1, max_size=4).filter(lambda ss: any(any(s) for s in ss))
    )
    start = draw(st.tuples(*[st.integers(0, 3)] * d))
    end = draw(st.tuples(*[st.integers(0, 8)] * d))
    length = draw(st.integers(0, 6))
    return steps, start, end, length


_GESSEL2 = gessel_steps(2)


@given(_walk_cases())
@example((_GESSEL2, (5, 0), (0, 0), 2))  # start outside the live region at t=0
@example((_GESSEL2, (0, 0), (6, 6), 6))  # far corner of the box
@example((_GESSEL2, (1, 0), (5, 0), 3))  # end beyond start + L*max_up
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force(case):
    steps, start, end, length = case
    d = len(start)
    brute = _brute_endpoints(steps, length, start)
    got = count_confined_walks(d, length, steps=steps, start=start, end=end)
    assert got == brute[end]
    table = walk_count_table(d, length, steps=steps, start=start)
    assert table.counts == dict(brute)


def test_bad_inputs():
    with pytest.raises(ValueError):
        count_confined_walks(0, 2)
    with pytest.raises(ValueError):
        count_confined_walks(2, -1)
    with pytest.raises(ValueError):
        count_confined_walks(2, 2, end=(1,))
