import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gesselwalks import (
    IntegralityError,
    achievable_odd_sums,
    bar_first_total,
    diagonal_columns,
    max_suffix_balance,
    norton_count,
    one_first_total,
    one_pair_closed,
    stats,
    table_counts,
)
from gesselwalks import norton
from gesselwalks.norton import as_bits

SRC = Path(__file__).resolve().parents[1] / "src"


def test_as_bits_forms():
    assert as_bits("1101") == (1, 1, 0, 1)
    assert as_bits("+-+-") == (1, 0, 1, 0)
    assert as_bits([1, 0, 1]) == (1, 0, 1)
    assert as_bits("1 1 0") == (1, 1, 0)  # whitespace is skipped
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
    for call in (achievable_odd_sums, stats, max_suffix_balance):
        calls.clear()
        call(word)
        assert calls == [word], call.__name__
    norton_count(2)
    table_counts(2)
    assert calls == [word]


def test_max_suffix_balance():
    assert max_suffix_balance("1111") == 4
    assert max_suffix_balance("1100") == 0
    assert max_suffix_balance("0011") == 2
    assert max_suffix_balance("0000") == 0


def test_disjoint_ten_pairs():
    assert stats("1100").n10 == 2
    assert stats("1010").n10 == 2
    assert stats("0011").n10 == 0
    assert stats("11011000").n10 == 4
    assert stats("1110100000").n10 == 4
    # matching count + max suffix balance always partitions the ones
    for word in ("11011000", "1110100000", "0110", "111000"):
        assert stats(word).n10 + max_suffix_balance(word) == word.count("1")


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


def witness(word, target):
    """The witness rationals for target, one row of _witness_block, after
    the certificate check."""
    words = np.array([as_bits(word)], dtype=np.int8)
    best, targets = np.array([max_suffix_balance(word)]), np.array([target])
    nums, scale = norton._witness_block(words, best, targets)
    norton._check_witness_block(words, nums, scale, targets)
    return tuple(Fraction(x, int(scale[0])) for x in nums[0].tolist())


def test_witness_is_exact_and_ordered():
    for word in ("1111", "0111", "0011", "110011", "101010"):
        for t in achievable_odd_sums(word):
            a = witness(word, t)
            assert all(Fraction(0) < x < Fraction(1) for x in a)
            assert all(x < y for x, y in zip(a, a[1:]))
            bits = as_bits(word)
            signed = sum(x if b else -x for b, x in zip(bits, a))
            assert signed == t


def test_witness_rejects_unachievable_target():
    with pytest.raises(ValueError, match="strictly between 0"):
        witness("1100", 1)
    with pytest.raises(ValueError, match="strictly between 0"):
        witness("1111", 4)  # the maximum itself is an open bound
    with pytest.raises(ValueError, match="strictly between 0"):
        witness("1111", 5)
    # the open bound is why achievable_odd_sums stops below the maximum
    assert achievable_odd_sums("1111") == {1, 3}
    assert achievable_odd_sums("11111") == {1, 3}


def test_witness_handles_any_interior_target():
    # the builder is not restricted to odd targets; parity filtering
    # happens in achievable_odd_sums
    a = witness("1111", 2)
    assert sum(a) == 2


def test_bad_witness_raises_even_under_optimize(monkeypatch):
    # the certificate check is a raise, not an assert, so python -O keeps it
    # on the integer certificate the builder returns: numerators over a scale
    real = norton._witness_block

    def perturbed(words, best, targets):
        nums, scale = real(words, best, targets)
        nums[:, 0] += 1
        return nums, scale

    monkeypatch.setattr(norton, "_witness_block", perturbed)
    with pytest.raises(IntegralityError):
        achievable_odd_sums("1111")
    with pytest.raises(IntegralityError):
        witness("1111", 3)


@pytest.mark.parametrize(
    "call, args",
    [
        (norton_count, (2.5,)),
        (table_counts, (2.5,)),
        (diagonal_columns, (2.5,)),
    ],
)
def test_non_integral_arguments_raise_value_error(call, args):
    with pytest.raises(ValueError, match="must be an integer"):
        call(*args)


def test_integral_arguments_of_other_types_act_as_ints():
    assert norton_count(2.0) == norton_count(2) == 7
    assert table_counts(2.0) == table_counts(2)
    assert diagonal_columns(2.0) == diagonal_columns(2)


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


def _words(length):
    return list(product((0, 1), repeat=length))


def _block_rows(length):
    """(rows as tuples, best per row) of every block of _sign_word_blocks."""
    rows, bests = [], []
    for words, best in norton._sign_word_blocks(length):
        assert words.shape == (len(best), length) and len(words) <= norton.CHUNK
        rows += map(tuple, words.tolist())
        bests += best.tolist()
    return rows, bests


@pytest.mark.parametrize("chunk", [5, norton.CHUNK])
def test_sign_word_blocks_hold_every_word_in_order(monkeypatch, chunk):
    monkeypatch.setattr(norton, "CHUNK", chunk)
    for length in range(0, 13 if chunk > 5 else 7):
        rows, bests = _block_rows(length)
        assert rows == _words(length)
        assert bests == [max_suffix_balance(w) for w in rows]
    # the counts read the same blocks, so they cannot move with the chunk
    assert norton_count(4) == 187
    assert table_counts(4) == TABLE2


def greedy_ten_pairs(bits):
    """Disjoint 1-before-0 pairs by a left-to-right scan in which each 0
    takes an open 1 if there is one: the brute-force n10."""
    open_ones = pairs = 0
    for b in bits:
        if b:
            open_ones += 1
        elif open_ones:
            open_ones -= 1
            pairs += 1
    return pairs


def test_block_stats_are_the_greedy_scan():
    for length in range(13):
        for words, best in norton._sign_word_blocks(length):
            n1, n10 = norton._stats_block(words)
            got = list(zip(n1.tolist(), n10.tolist()))
            assert got == [(sum(w), greedy_ten_pairs(w)) for w in words.tolist()], length
            counts = norton._achievable_counts(words, best).tolist()
            assert counts == [max_suffix_balance(w) // 2 for w in words.tolist()]


def test_achievable_counts_witness_a_slice_of_pairs_at_a_time(monkeypatch):
    # with CHUNK 3, a slice of (word, target) pairs holds at most 3 * 2 * 10
    # cells: 7 pairs of the 187 of length 8
    cells = []
    real = norton._witness_block

    def counted(words, best, targets):
        cells.append(words.size)
        return real(words, best, targets)

    monkeypatch.setattr(norton, "_witness_block", counted)
    monkeypatch.setattr(norton, "CHUNK", 3)
    words = np.array(_words(8), dtype=np.int8)
    best = np.array([max_suffix_balance(w) for w in _words(8)])
    counts = norton._achievable_counts(words, best).tolist()
    assert counts == [b // 2 for b in best.tolist()]
    assert max(cells) == 7 * 8 and sum(cells) == 8 * norton_count(4)


def test_block_witness_is_ordered_and_sums_to_its_target():
    # every (word, odd target) pair of a length in one block: numerators
    # strictly increasing inside (0, scale), signed sum target * scale
    for length in range(1, 13):
        pairs = [
            (w, t) for w in _words(length) for t in range(1, max_suffix_balance(w), 2)
        ]
        if not pairs:
            continue
        words = np.array([w for w, _ in pairs], dtype=np.int8)
        best = np.array([max_suffix_balance(w) for w, _ in pairs])
        targets = np.array([t for _, t in pairs])
        nums, scale = norton._witness_block(words, best, targets)
        for (w, t), row, q in zip(pairs, nums.tolist(), scale.tolist()):
            assert 0 < row[0] and row[-1] < q, (w, t)
            assert all(x < y for x, y in zip(row, row[1:])), (w, t)
            assert sum(x if b else -x for b, x in zip(w, row)) == t * q, (w, t)
        norton._check_witness_block(words, nums, scale, targets)


def test_long_word_witnesses_stay_in_small_blocks():
    # 1,500 targets of 3,000 numerators each, built in blocks no larger
    # than those of _sign_word_blocks
    tracemalloc.start()
    try:
        got = achievable_odd_sums("1" * 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == frozenset(range(1, 3000, 2))
    assert peak < 16 * 2**20


def test_block_witness_rejects_unattainable_targets():
    words = np.array([[1, 1, 1, 1], [0, 0, 1, 1]], dtype=np.int8)
    for targets in ([1, 2], [4, 1], [0, 1]):
        with pytest.raises(ValueError, match="strictly between 0"):
            norton._witness_block(words, np.array([4, 2]), np.array(targets))


def test_verify_multiplicity_check_builds_every_witness(monkeypatch):
    from gesselwalks import verify

    calls = []
    real = norton._witness_block

    def counted(words, best, targets):
        calls.append(len(targets))
        return real(words, best, targets)

    # table-n2 first witnesses every (word, odd target) pair of length 4 in
    # one block
    table = [sum(max_suffix_balance(w) // 2 for w in _words(4))]
    monkeypatch.setattr(norton, "_witness_block", counted)
    (entry,) = [e for e in verify.suite_norton(n_max=1, len_max=8) if "multiplicity" in e.name]
    assert entry.actual == f"all {4 + 16 + 64 + 256} sign words agree"
    # then one call per length, and one witness per (word, odd target) pair
    assert calls == table + [norton_count(n) for n in range(1, 5)]


PERTURBED_BLOCK_WITNESS = """
from gesselwalks import IntegralityError, norton

real = norton._witness_block

def perturbed(words, best, targets):
    nums, scale = real(words, best, targets)
    nums[-1, 0] += 1
    return nums, scale

norton._witness_block = perturbed
words, best = next(norton._sign_word_blocks(6))
try:
    norton._achievable_counts(words, best)
except IntegralityError as exc:
    print(exc)
"""


def test_bad_block_witness_raises_even_under_optimize():
    # the last pair of the length-6 block is 111111 with target 5
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", PERTURBED_BLOCK_WITNESS],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    _, (scale,) = norton._witness_block(np.ones((1, 6), dtype=np.int8), np.array([6]), np.array([5]))
    total = Fraction(5 * int(scale) + 1, int(scale))
    assert (out.returncode, out.stdout, out.stderr) == (
        0, f"witness for 111111 sums to {total}, not 5\n", ""
    )
