from fractions import Fraction
from itertools import product

import pytest

from gesselwalks import (
    IntegralityError,
    achievable_odd_sums,
    bar_first_total,
    diagonal_columns,
    disjoint_ten_pairs,
    max_suffix_balance,
    norton_count,
    one_first_total,
    one_pair_closed,
    stats,
    sum_witness,
    table_counts,
)
from gesselwalks import norton
from gesselwalks.norton import as_bits


def test_as_bits_forms():
    assert as_bits("1101") == (1, 1, 0, 1)
    assert as_bits("+-+-") == (1, 0, 1, 0)
    assert as_bits([1, 0, 1]) == (1, 0, 1)
    with pytest.raises(ValueError):
        as_bits("12")


def test_as_bits_rejects_bits_that_are_not_integers():
    import numpy as np

    # int() would truncate 0.5 and 0.9 to 0
    for w in ([0.5, 1], (1, 0.9, 0), [1.5, 0]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            as_bits(w)
    with pytest.raises(ValueError):
        stats([0.9, 1, 0])
    # integral values of other types behave as plain ints
    assert as_bits([1.0, 0, True]) == (1, 0, 1)
    assert as_bits(np.array([1, 0, 1])) == (1, 0, 1)


def test_each_public_call_reads_the_sign_word_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return as_bits(w)

    monkeypatch.setattr(norton, "as_bits", counted)
    word = "0111111"  # max suffix balance 5: targets 1 and 3, each witnessed
    for call in (achievable_odd_sums, stats, max_suffix_balance, disjoint_ten_pairs):
        calls.clear()
        call(word)
        assert calls == [word], call.__name__
    calls.clear()
    sum_witness(word, 3)
    assert calls == [word]
    norton_count(2)
    table_counts(2)
    assert calls == [word]


def test_max_suffix_balance():
    assert max_suffix_balance("1111") == 4
    assert max_suffix_balance("1100") == 0
    assert max_suffix_balance("0011") == 2
    assert max_suffix_balance("0000") == 0


def test_disjoint_ten_pairs():
    assert disjoint_ten_pairs("1100") == 2
    assert disjoint_ten_pairs("1010") == 2
    assert disjoint_ten_pairs("0011") == 0
    assert disjoint_ten_pairs("11011000") == 4
    assert disjoint_ten_pairs("1110100000") == 4
    # matching count + max suffix balance always partitions the ones
    for word in ("11011000", "1110100000", "0110", "111000"):
        assert disjoint_ten_pairs(word) + max_suffix_balance(word) == word.count("1")


def test_stats_modes():
    st = stats("1110")
    assert (st.n1, st.n10, st.multiplicity) == (3, 1, 1)
    # n10 counts disjoint 1-before-0 pairs, not adjacent "10" factors:
    # 11011000 has 4 disjoint pairs, so m = 0 and no odd target is attainable,
    # while its 2 adjacent factors would give m = 1
    word = "11011000"
    st = stats(word)
    assert (st.n1, st.n10, st.multiplicity) == (4, 4, 0)
    assert achievable_odd_sums(word) == frozenset()
    factors = sum(1 for a, b in zip(word, word[1:]) if a + b == "10")
    assert factors == 2 and (st.n1 - factors) // 2 == 1


TABLE1 = {
    "1111": ({1, 3}, (4, 0, 2)),
    "1110": ({1}, (3, 1, 1)),
    "1101": ({1}, (3, 1, 1)),
    "1011": ({1}, (3, 1, 1)),
    "0111": ({1}, (3, 0, 1)),
    "0011": ({1}, (2, 0, 1)),
}


def test_published_table_n2():
    for bits in product((0, 1), repeat=4):
        word = "".join(map(str, bits))
        ach = achievable_odd_sums(word)
        want = TABLE1.get(word)
        if want is None:
            assert ach == frozenset()
        else:
            st = stats(word)
            assert ach == want[0]
            assert (st.n1, st.n10, st.multiplicity) == want[1]


def test_norton_count_small():
    assert norton_count(1) == 1
    assert norton_count(2) == 7
    assert norton_count(3) == 38


def test_count_matches_single_pair_closed_form():
    for n in range(1, 6):
        assert norton_count(n) == one_pair_closed(n)


def test_witness_is_exact_and_ordered():
    for word in ("1111", "0111", "0011", "110011", "101010"):
        for t in achievable_odd_sums(word):
            a = sum_witness(word, t)
            assert all(isinstance(x, Fraction) for x in a)
            assert all(Fraction(0) < x < Fraction(1) for x in a)
            assert all(x < y for x, y in zip(a, a[1:]))
            bits = as_bits(word)
            signed = sum(x if b else -x for b, x in zip(bits, a))
            assert signed == t


def test_witness_rejects_unachievable_target():
    with pytest.raises(ValueError):
        sum_witness("1100", 1)
    with pytest.raises(ValueError):
        sum_witness("1111", 4)  # the maximum itself is an open bound
    with pytest.raises(ValueError):
        sum_witness("1111", 5)


def test_witness_handles_any_interior_target():
    # the builder is not restricted to odd targets; parity filtering
    # happens in achievable_odd_sums
    a = sum_witness("1111", 2)
    assert sum(a) == 2


def test_bad_witness_raises_even_under_optimize(monkeypatch):
    # the certificate check is a raise, not an assert, so python -O keeps it
    real = norton._witness

    def perturbed(bits, target):
        a = real(bits, target)
        return (a[0] / 2,) + a[1:]

    monkeypatch.setattr(norton, "_witness", perturbed)
    with pytest.raises(IntegralityError):
        achievable_odd_sums("1111")


def test_multiplicity_conjecture_small():
    for n in (1, 2, 3, 4):
        for bits in product((0, 1), repeat=2 * n):
            st = stats(bits)
            assert len(achievable_odd_sums(bits)) == max(st.multiplicity, 0), bits


TABLE2 = {
    (8, 1): 1, (8, 3): 1, (8, 5): 1, (8, 7): 1,
    (7, 1): 8, (7, 3): 8, (7, 5): 8,
    (6, 1): 28, (6, 3): 28, (6, 5): 1,
    (5, 1): 56, (5, 3): 8,
    (4, 1): 28, (4, 3): 1,
    (3, 1): 8,
    (2, 1): 1,
}


def test_published_table_n4():
    assert table_counts(4) == TABLE2
    assert sum(TABLE2.values()) == one_pair_closed(4)


def test_diagonal_report():
    rep = diagonal_columns(4)
    assert rep.columns == ((1,), (1, 8), (1, 8, 28), (1, 8, 28, 56), (1, 8, 28), (1, 8), (1,))
    assert rep.binomial_pattern_ok
    assert rep.full_contribution_total == 140 == one_first_total(4)
    assert rep.partial_contribution_total == 47 == bar_first_total(4)


def test_caps():
    from gesselwalks import CapExceededError

    # counts and tables share the cap n <= 10, checked before any word is built
    assert norton.DEFAULT_MAX_N == 10
    with pytest.raises(CapExceededError, match="cap n <= 10"):
        norton_count(11)
    with pytest.raises(CapExceededError, match="cap n <= 10"):
        table_counts(11)
    with pytest.raises(ValueError):
        norton_count(0)


def test_caps_read_the_module_constant(monkeypatch):
    from gesselwalks import CapExceededError

    monkeypatch.setattr(norton, "DEFAULT_MAX_N", 2)
    assert norton_count(2) == one_pair_closed(2)
    assert sum(table_counts(2).values()) == one_pair_closed(2)
    for run in (norton_count, table_counts, diagonal_columns):
        with pytest.raises(CapExceededError, match="cap n <= 2"):
            run(3)
