import random
from fractions import Fraction
from math import factorial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesselwalks import (
    IntegralityError,
    adjacent_marker_sum_closed,
    adjacent_marker_sum_direct,
    bar_first_pair_count,
    bar_first_total,
    catalan,
    catalan_triangle,
    count_ph_paths,
    count_words_fixed_markers,
    diamond_equal,
    even_marker_sum_free_closed,
    even_marker_sum_free_direct,
    even_marker_sum_reflected_closed,
    even_marker_sum_reflected_direct,
    gessel_closed_form,
    marker_lists,
    marker_position_triangle,
    one_first_total,
    one_pair_closed,
    triangle_ext,
)
from gesselwalks.formulas import (
    _as_integer,
    _gbinom,
    _spread_sum,
    catalan_binomial_identity,
    catalan_convolution_identity,
    gessel_closed_sequence,
    split_triangular_sum,
)
from gesselwalks.dyck import ballot_count, binom, marker_floors


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+n-1) as an exact rational."""
    out = Fraction(1)
    for k in range(n):
        out *= Fraction(a) + k
    return out


def bar_first_total_by_pairs(n: int) -> int:
    """bar_first_total(n) as the sum of bar_first_pair_count over all position pairs."""
    return sum(
        bar_first_pair_count(i, j, n)
        for i in range(1, 2 * n)
        for j in range(i + 1, 2 * n + 1)
    )


def displayed_nested_sum(signs, ptil, n):
    """The paper's displayed nested sum for pinned markers, transcribed verbatim.

    Its middle factors take the floor on the right of each gap, and its
    product stops one marker early; the tests pin that it undercounts.
    """
    m = len(signs)
    floors = marker_floors(signs)
    ranges = [range(1 if signs[0] == 1 else 0, ptil[0])]
    ranges += [range(floors[i], ptil[i]) for i in range(1, m)]
    total = 0
    for ks in product(*ranges):
        term = ballot_count(0, ks[0], ptil[0] - 1) * ballot_count(ks[-1], 0, 2 * n - ptil[-1])
        for i in range(1, m - 1):
            f = floors[i]
            term *= ballot_count(ks[i - 1] - f, ks[i] - f, ptil[i] - ptil[i - 1] - 1)
        total += term
    return total


def test_pochhammer():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(5, 0) == 1
    assert pochhammer(2, 4) == 120


def test_gessel_closed_form_values():
    assert [gessel_closed_form(n) for n in range(7)] == [1, 2, 11, 85, 782, 8004, 88044]


def test_gessel_recurrence_matches_pochhammer_quotient():
    seq = gessel_closed_sequence(59)
    for n in range(60):
        num = 16**n * pochhammer(Fraction(5, 6), n) * pochhammer(Fraction(1, 2), n)
        den = pochhammer(2, n) * pochhammer(Fraction(5, 3), n)
        assert gessel_closed_form(n) == seq[n] == num / den


def test_one_pair_closed_values():
    assert [one_pair_closed(n) for n in range(1, 6)] == [1, 7, 38, 187, 874]
    with pytest.raises(ValueError):
        one_pair_closed(0)


def test_integrality_guard():
    with pytest.raises(IntegralityError):
        _as_integer(Fraction(1, 2), "guard check")
    assert _as_integer(Fraction(6, 3), "guard check") == 2


def test_catalan_triangle():
    assert catalan_triangle(3, 0) == 1
    assert catalan_triangle(3, 3) == 5
    assert catalan_triangle(4, 2) == 9
    assert catalan_triangle(2, 3) == 0
    assert catalan_triangle(-1, 0) == 0
    for m in range(10):
        for n in range(m + 1):
            assert catalan_triangle(m, n) == ballot_count(0, m - n, m + n)


def test_triangle_ext_extends_the_clamped_triangle():
    for m in range(10):
        for n in range(m + 2):
            if n <= m:
                assert triangle_ext(m, n) == catalan_triangle(m, n)
            else:
                assert catalan_triangle(m, n) == 0
    # off the wedge the extension is generally nonzero
    assert triangle_ext(-1, 0) == 1
    assert triangle_ext(0, 2) == -1


@given(st.integers(-40, 40), st.integers(-3, 40))
@settings(max_examples=400, deadline=None)
def test_gbinom_is_the_falling_factorial_quotient(r, k):
    # r (r-1) ... (r-k+1) / k!, for any integer r; 0 for k < 0
    falling = 1
    for t in range(max(k, 0)):
        falling *= r - t
    want = falling // factorial(k) if k >= 0 else 0
    assert _gbinom(r, k) == want


@pytest.mark.parametrize("reflected", [False, True])
def test_spread_sum_is_the_literal_quadruple_sum(reflected):
    for n in range(15):
        want = 0
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                for r in range(i):
                    for s in range(n - j):
                        low = n - s - r - 1 if reflected else 2 * j + s - n - r - 1
                        want += (
                            catalan_triangle(2 * i - r - 1, r)
                            * catalan_triangle(2 * n - 2 * j - s, s)
                            * binom(2 * j - 2 * i - 1, low)
                        )
        assert _spread_sum(n, reflected) == want, n


def test_bar_first_pair_spot_values():
    assert bar_first_pair_count(2, 3, 3) == 2
    assert bar_first_pair_count(3, 4, 3) == 1
    assert bar_first_pair_count(2, 4, 3) == 1
    assert bar_first_pair_count(2, 4, 4) == 3
    assert bar_first_pair_count(2, 3, 4) == 5
    # a bar-first word cannot open with the plain letter slot at 1
    assert bar_first_pair_count(1, 5, 3) == 0
    # nor put the plain letter at the very end
    assert bar_first_pair_count(3, 6, 3) == 0
    with pytest.raises(ValueError):
        bar_first_pair_count(3, 2, 3)


def test_pair_position_count_matches_enumeration():
    # a plain-first pair leaves Catalan(n-1) words wherever it sits
    for n in (2, 3, 4):
        tri = marker_position_triangle(n)
        for i in range(1, 2 * n):
            for j in range(i + 1, 2 * n + 1):
                want = tri.get((i, j), 0)
                assert catalan(n - 1) + bar_first_pair_count(i, j, n) == want, (i, j, n)


def test_diamond_blocks():
    for n in range(3, 7):
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                assert diamond_equal(i, j, n)
    with pytest.raises(ValueError):
        diamond_equal(2, 2, 5)
    with pytest.raises(ValueError):
        diamond_equal(1, 5, 5)


def test_partial_sums_direct_vs_closed():
    for n in range(2, 16):
        assert adjacent_marker_sum_direct(n) == adjacent_marker_sum_closed(n)
        assert even_marker_sum_free_direct(n) == even_marker_sum_free_closed(n)
    for n in range(3, 16):
        assert even_marker_sum_reflected_direct(n) == even_marker_sum_reflected_closed(n)


def test_partial_sums_small_n_edge():
    assert adjacent_marker_sum_closed(1) == 0
    assert even_marker_sum_free_closed(1) == 0
    assert even_marker_sum_reflected_closed(1) == 0
    assert even_marker_sum_reflected_closed(2) == 0


def test_totals():
    assert [bar_first_total(n) for n in range(1, 5)] == [0, 1, 8, 47]
    assert [one_first_total(n) for n in range(1, 5)] == [1, 6, 30, 140]
    for n in range(1, 9):
        assert bar_first_total(n) == bar_first_total_by_pairs(n)
        assert bar_first_total(n) + one_first_total(n) == one_pair_closed(n)


def test_identity_checkers():
    assert catalan_convolution_identity(0, 0, 0)
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert catalan_convolution_identity(a, b, c), (a, b, c)
    for a in range(8):
        for b in range(8):
            for c in range(b + 1):
                assert catalan_binomial_identity(a, b, c), (a, b, c)


def test_split_triangular_sum_random_tables():
    rng = random.Random(99)
    for _ in range(30):
        a = rng.randrange(0, 18)
        table = {(u, s): rng.randrange(-20, 21) for u in range(a + 1) for s in range(a + 1)}
        direct, split = split_triangular_sum(lambda u, s: table[(u, s)], a)
        assert direct == split, a


def test_fixed_markers_empty_is_full_count():
    assert count_words_fixed_markers((), (), 4) == catalan(4)


def test_fixed_markers_worked_example():
    assert count_words_fixed_markers((-1, 1), (2, 4), 3) == 1


def test_fixed_markers_unbalanced_signs_count_zero():
    assert count_words_fixed_markers((1, 1), (1, 2), 3) == 0


def test_fixed_markers_reject_non_integral_markers():
    with pytest.raises(ValueError, match="signs must be integers"):
        count_words_fixed_markers((1.5, -1), (1, 2), 1)
    with pytest.raises(ValueError, match="positions must be integers"):
        count_words_fixed_markers((1, -1), (1, 2.5), 1)


def test_fixed_markers_against_floor_dp():
    for n in (2, 3, 4):
        for n1 in (1, 2):
            if n1 > n:
                continue
            for signs in product((1, -1), repeat=2 * n1):
                if sum(signs) != 0:
                    continue
                for pos in combinations(range(1, 2 * n + 1), 2 * n1):
                    ml = marker_lists(signs, pos)
                    oracle = count_ph_paths(ml.constraint(), 2 * n - 2 * n1)
                    got = count_words_fixed_markers(signs, pos, n)
                    assert got == oracle, (n, signs, pos)


@st.composite
def _marker_configurations(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.integers(0, min(4, n)))
    signs = draw(st.permutations([1] * pairs + [-1] * pairs))
    positions = draw(
        st.lists(st.integers(1, 2 * n), min_size=2 * pairs, max_size=2 * pairs, unique=True)
    )
    return tuple(signs), tuple(sorted(positions)), n


@given(_marker_configurations())
@settings(max_examples=300, deadline=None)
def test_fixed_markers_against_floor_dp_property(case):
    # up to 8 markers and n = 12, past the exhaustive n <= 4 above
    signs, positions, n = case
    oracle = count_ph_paths(marker_lists(signs, positions).constraint(), 2 * n - len(signs))
    assert count_words_fixed_markers(signs, positions, n) == oracle


def test_fixed_markers_catalan_independence():
    # markers whose signs already form a legal path leave Catalan(n - n1)
    # choices regardless of where the markers sit
    for pos in combinations(range(1, 9), 2):
        assert count_words_fixed_markers((1, -1), pos, 4) == catalan(3)


def test_fixed_markers_literal_variant_differs():
    # the displayed bounds undercount even the smallest case
    assert count_words_fixed_markers((1, -1), (1, 2), 1) == 1
    assert displayed_nested_sum((1, -1), (1, 2), 1) == 0


def test_fixed_markers_validation():
    with pytest.raises(ValueError):
        count_words_fixed_markers((1, -1), (0, 2), 3)
    with pytest.raises(ValueError):
        count_words_fixed_markers((1, -1), (2, 9), 3)
    with pytest.raises(ValueError):
        count_words_fixed_markers((1, 2), (1, 2), 3)
