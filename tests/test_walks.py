import numpy as np
import pytest

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


def _final_layer_dtype(length):
    *_, layer = walks._run_dp(2, gessel_steps(2), length, (0, 0), walks.DEFAULT_MAX_CELLS)
    return layer.dtype


def test_int64_side_of_dtype_gate_stays_exact():
    # 4^30 = 2^60 < 2^62, so L=30 is the longest sweep kept in int64
    assert _final_layer_dtype(30) == np.int64
    assert _final_layer_dtype(31) == object
    assert count_confined_walks(2, 30) == gessel_closed_form(15)


def test_object_dtype_path_stays_exact():
    # 2n = 32 forces the arbitrary-precision layer path: 4^32 > 2^62
    assert count_confined_walks(2, 32) == gessel_closed_form(16)


def test_bad_inputs():
    with pytest.raises(ValueError):
        count_confined_walks(0, 2)
    with pytest.raises(ValueError):
        count_confined_walks(2, -1)
    with pytest.raises(ValueError):
        count_confined_walks(2, 2, end=(1,))
