"""Signed sums of an increasing sequence in (0, 1).

A sign word w in {0,1}^(2n) fixes which of 2n reals 0 < a_1 < ... < a_2n < 1
are added (bit 1) and which subtracted (bit 0).  Over all admissible a the
attainable totals form an open interval whose endpoints are the extreme
suffix balances of the sign pattern, so a positive odd target t is
attainable iff t < max_suffix_balance(w).  Every positive membership claim
is certified by an explicit rational witness built from a perturbed
threshold configuration.

The statistic n10 counts the maximal number of disjoint 1-before-0 index
pairs; with m(w) = floor((n1 - n10) / 2) the number of attainable positive
odd targets equals max(m(w), 0).

Each check has one implementation, a block core over 0/1 arrays of sign
words: _stats_block, _witness_block and _check_witness_block work row by
row from cumulative sums.  The counts over all words of a length
(norton_count, table_counts and so diagonal_columns) and verify's
multiplicity check and n = 2 table read every word of that length as
blocks of at most CHUNK rows from _sign_word_blocks; stats is one row of
_stats_block, and achievable_odd_sums one row of _achievable_counts.  numpy
is imported inside them, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exceptions import CapExceededError, IntegralityError, checked_at_least

DEFAULT_MAX_N = 10

# Rows per block of sign words; _achievable_counts witnesses its (word,
# target) pairs in slices of no more cells than such a block of the
# longest words.
CHUNK = 4096


def as_bits(w) -> tuple[int, ...]:
    """Normalize a sign word: '1101', '++-+', or any 0/1 iterable."""
    if isinstance(w, str):
        out = []
        for ch in w:
            if ch in "1+":
                out.append(1)
            elif ch in "0-":
                out.append(0)
            elif ch.isspace():
                continue
            else:
                raise ValueError(f"bad sign character {ch!r}")
        return tuple(out)
    w = tuple(w)
    bits = tuple(map(int, w))
    if bits != w or any(b not in (0, 1) for b in bits):
        raise ValueError("sign word bits must be 0 or 1")
    return bits


@dataclass(frozen=True)
class SignWordStats:
    n1: int
    n10: int
    multiplicity: int


def _max_suffix(bits) -> int:
    best = 0
    run = 0
    for b in reversed(bits):
        run += 1 if b else -1
        if run > best:
            best = run
    return best


def stats(w) -> SignWordStats:
    import numpy as np

    n1, n10 = (int(a[0]) for a in _stats_block(np.array([as_bits(w)], dtype=np.int8)))
    return SignWordStats(n1, n10, (n1 - n10) // 2)


def max_suffix_balance(w) -> int:
    """max over k of (#1s - #0s) among the last k bits (k = 0 included)."""
    return _max_suffix(as_bits(w))


def achievable_odd_sums(w) -> frozenset[int]:
    """Positive odd targets attainable for the sign word, each witnessed."""
    import numpy as np

    bits = as_bits(w)
    best = _max_suffix(bits)
    _achievable_counts(np.array([bits], dtype=np.int8), np.array([best]))
    return frozenset(range(1, best, 2))


def _sign_word_blocks(length):
    """Yield (words, best) for every sign word of this length, in the order
    of product((0, 1), repeat=length), CHUNK rows at a time: words is an
    (R, length) int8 array of bits and best the (R,) max_suffix_balance of
    its rows, read from the cumulative sums of the reversed +-1 signs."""
    import numpy as np

    shifts = np.arange(length - 1, -1, -1)
    for start in range(0, 1 << length, CHUNK):
        index = np.arange(start, min(start + CHUNK, 1 << length))
        words = (index[:, None] >> shifts & 1).astype(np.int8)
        suffix = np.cumsum(2 * words[:, ::-1] - 1, axis=1)
        yield words, suffix.max(axis=1, initial=0)


def _stats_block(words):
    """(n1, n10) of stats() for each row of words, an (R, L) 0/1 array.

    n10 is the number of 1-before-0 pairs that a greedy left-to-right scan
    matches, each 0 taking an open 1 if there is one.  The scan leaves a 0
    unmatched whenever no 1 is open, so the unmatched 0s number the deepest
    deficit of #0s over #1s among the prefixes, and n10 is the 0s less
    those."""
    import numpy as np

    n1 = words.sum(axis=1, dtype=np.int64)
    prefix = np.cumsum(2 * words - 1, axis=1)
    return n1, words.shape[1] - n1 + prefix.min(axis=1, initial=0)


def _witness_block(words, best, targets):
    """(numerators, scale) of exact rationals 0 < a_1 < ... < a_L < 1 whose
    signed sum is the target, for each row of words, an (R, L) 0/1 array
    whose max suffix balances are best: an (R, L) int64 array of numerators
    and the (R,) scales, not yet checked.  ValueError unless every target
    has 0 < target < best, since no denominator would serve another target.

    Start from the threshold configuration attaining the max suffix balance
    (zeros before the first cut attaining it, ones after, the cut read from
    the suffix sums), scale the jump to hit the target, and tilt everything
    by a small increasing ramp.  Over the common denominator
    scale = denom * best, the ramp is best per position and the base
    (L + 2) best, so base sigma + ramp wsum + jump best == target scale
    solves to the jump below.  Each row's denom starts at 4 (L + 1) and is
    doubled until all of its strict inequalities verify.

    The jump is positive once denom > ((L + 2) sigma + wsum) / target, and
    the last numerator falls below scale once denom (best - target) >
    (2L + 2) best - (L + 2) sigma - wsum.  Both right sides are below
    4 (L + 2)^2, so denom < 8 (L + 2)^2 and every value is below
    scale < 8 L (L + 2)^2: under 2^16 at verify's len_max cap of 16, and
    inside int64 for every L below 2^19, where one word's witnesses would
    already hold over 2^36 numerators.
    """
    import numpy as np

    if not ((0 < targets) & (targets < best)).all():
        raise ValueError("every target must lie strictly between 0 and its word's best")
    rows, L = words.shape
    eps = 2 * words.astype(np.int64) - 1
    suffix = np.cumsum(eps[:, ::-1], axis=1)[:, ::-1]
    cut = np.argmax(suffix == best[:, None], axis=1)  # the first cut attaining it
    sigma = eps.sum(axis=1)
    i = np.arange(1, L + 1)
    wsum = eps @ i
    after = i > cut[:, None]
    denom = np.full(rows, 4 * (L + 1), dtype=np.int64)
    while True:
        scale = denom * best
        jump = targets * denom - (L + 2) * sigma - wsum
        nums = ((L + 2) + i) * best[:, None] + jump[:, None] * after
        ok = (jump > 0) & (nums[:, 0] > 0) & (nums[:, -1] < scale)
        ok &= (nums[:, 1:] > nums[:, :-1]).all(axis=1)
        if ok.all():
            return nums, scale
        denom = np.where(ok, denom, 2 * denom)


def _check_witness_block(words, nums, scale, targets):
    """Raise IntegralityError for the first row of words whose witness
    nums / scale does not sum to its target."""
    import numpy as np

    total = np.where(words == 1, nums, -nums).sum(axis=1)
    bad = np.flatnonzero(total != targets * scale)
    if len(bad):
        r = int(bad[0])
        word = "".join(map(str, words[r].tolist()))
        got = Fraction(int(total[r]), int(scale[r]))
        raise IntegralityError(f"witness for {word} sums to {got}, not {int(targets[r])}")


def _achievable_counts(words, best):
    """len(achievable_odd_sums) of each row of words, whose max suffix
    balances are best: every odd target below best is witnessed and
    checked, a slice of (word, target) pairs at a time, and counted per
    row.  A slice holds no more cells than a block of CHUNK words of
    length 2 DEFAULT_MAX_N, so one long word's witnesses stay small."""
    import numpy as np

    half = best // 2
    rows = np.repeat(np.arange(len(words)), half)
    # the odd targets 1, 3, ..., best - 1 of each row, rows in order
    targets = 2 * (np.arange(len(rows)) - np.repeat(np.cumsum(half) - half, half)) + 1
    step = max(CHUNK * 2 * DEFAULT_MAX_N // max(words.shape[1], 1), 1)
    for start in range(0, len(rows), step):
        at = slice(start, start + step)
        pairs = words[rows[at]]
        nums, scale = _witness_block(pairs, best[rows[at]], targets[at])
        _check_witness_block(pairs, nums, scale, targets[at])
    return np.bincount(rows, minlength=len(words))


def _check_n(n) -> int:
    """n as an int, once it is known to be in 1..DEFAULT_MAX_N; ValueError
    if int() would change it."""
    n = checked_at_least(n, 1, "n")
    if n > DEFAULT_MAX_N:
        raise CapExceededError(f"2^{2 * n} sign words exceed cap n <= {DEFAULT_MAX_N}")
    return n


def norton_count(n: int) -> int:
    """Total number of (word, attainable positive odd target) incidences."""
    n = _check_n(n)
    return sum(int((best // 2).sum()) for _, best in _sign_word_blocks(2 * n))


def table_counts(n: int) -> dict[tuple[int, int], int]:
    """Counts keyed by (number of 1s, odd target) over all sign words."""
    import numpy as np

    n = _check_n(n)
    length = 2 * n
    # words per (n1, max suffix balance); a word counts at each odd t below it
    tally = np.zeros((length + 1) ** 2, dtype=np.int64)
    for words, best in _sign_word_blocks(length):
        tally += np.bincount(
            words.sum(axis=1, dtype=np.int64) * (length + 1) + best, minlength=len(tally)
        )
    above = np.cumsum(tally.reshape(length + 1, length + 1)[:, ::-1], axis=1)[:, ::-1]
    table: dict[tuple[int, int], int] = {}
    for n1 in range(length + 1):
        for t in range(1, length, 2):
            if above[n1, t + 1]:
                table[n1, t] = int(above[n1, t + 1])
    return table


@dataclass(frozen=True)
class DiagonalReport:
    columns: tuple[tuple[int, ...], ...]
    binomial_pattern_ok: bool
    full_contribution_total: int
    partial_contribution_total: int


def diagonal_columns(n: int) -> DiagonalReport:
    """Read the profile table along 45-degree diagonals.

    The diagonal starting at row n1=r, target 1 walks up-right; its nonzero
    entries, read from the all-ones end, should be binom(2n,0), binom(2n,1),
    ...  Cells where every sign word of the profile contributes (count =
    binom(2n, #zeros)) should sum to formulas.one_first_total(n), and the
    remaining nonzero cells to bar_first_total(n); the report holds both
    totals, and verify's norton/diagonal-binomials compares them.  A broken
    pattern is reported, not raised.
    """
    n = _check_n(n)
    table = table_counts(n)
    columns = []
    pattern_ok = True
    for r in range(2 * n, 1, -1):
        vals = []
        for k in range(0, 2 * n - r + 1):
            v = table.get((r + k, 1 + 2 * k), 0)
            vals.append(v)
        while vals and vals[-1] == 0:
            vals.pop()
        col = tuple(reversed(vals))
        columns.append(col)
        if any(v == 0 for v in col):
            pattern_ok = False
        expect = tuple(comb(2 * n, k) for k in range(len(col)))
        if col != expect:
            pattern_ok = False
    full = 0
    partial = 0
    for (n1, _t), v in table.items():
        if v == comb(2 * n, 2 * n - n1):
            full += v
        else:
            partial += v
    return DiagonalReport(tuple(columns), pattern_ok, full, partial)
