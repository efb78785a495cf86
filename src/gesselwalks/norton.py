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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm

from .exceptions import CapExceededError, IntegralityError

DEFAULT_MAX_N = 10


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


def _ten_pairs(bits) -> int:
    open_ones = 0
    pairs = 0
    for b in bits:
        if b:
            open_ones += 1
        elif open_ones:
            open_ones -= 1
            pairs += 1
    return pairs


def _max_suffix(bits) -> int:
    best = 0
    run = 0
    for b in reversed(bits):
        run += 1 if b else -1
        if run > best:
            best = run
    return best


def disjoint_ten_pairs(w) -> int:
    """Maximal number of disjoint (1 at i, 0 at j>i) index pairs."""
    return _ten_pairs(as_bits(w))


def stats(w) -> SignWordStats:
    bits = as_bits(w)
    n1 = sum(bits)
    n10 = _ten_pairs(bits)
    return SignWordStats(n1, n10, (n1 - n10) // 2)


def max_suffix_balance(w) -> int:
    """max over k of (#1s - #0s) among the last k bits (k = 0 included)."""
    return _max_suffix(as_bits(w))


def _check_witness(bits, nums, scale, target):
    """Raise unless the signed sum of the witness nums / scale is target."""
    total = sum(x if b else -x for b, x in zip(bits, nums))
    if total != target * scale:
        raise IntegralityError(
            f"witness for {''.join(map(str, bits))} sums to "
            f"{Fraction(total, scale)}, not {target}"
        )


def sum_witness(w, target: int) -> tuple[Fraction, ...]:
    """Exact rationals 0 < a_1 < ... < a_2n < 1 whose signed sum is target.

    Start from the threshold configuration attaining the max suffix balance
    (zeros before the cut, ones after), scale the jump to hit the target,
    and tilt everything by a small increasing ramp; the denominator is
    doubled until all strict inequalities verify.  The search runs on the
    integer numerators over the common denominator denom * best.  Raises
    ValueError when the target is not attainable.
    """
    return _witness(as_bits(w), target)


def _witness(bits, target):
    L = len(bits)
    best = _max_suffix(bits)
    if not (0 < target < best):
        raise ValueError(f"target {target} not attainable for {''.join(map(str, bits))}")
    # first cut attaining the max suffix balance
    run = 0
    cut = L
    for k in range(L - 1, -1, -1):
        run += 1 if bits[k] else -1
        if run == best:
            cut = k
    eps = tuple(1 if b else -1 for b in bits)
    sigma = sum(eps)
    wsum = sum((i + 1) * e for i, e in enumerate(eps))
    denom = 4 * (L + 1)
    while True:
        # numerators over scale = denom * best: eta = best and
        # base = (L + 2) * best, so base*sigma + eta*wsum + jump*best ==
        # target * scale solves to the jump below
        scale = denom * best
        jump = target * denom - (L + 2) * sigma - wsum
        nums = [
            (L + 2) * best + (i + 1) * best + (jump if i >= cut else 0) for i in range(L)
        ]
        if jump > 0 and nums[0] > 0 and nums[-1] < scale and all(
            x < y for x, y in zip(nums, nums[1:])
        ):
            _check_witness(bits, nums, scale, target)
            return tuple(Fraction(x, scale) for x in nums)
        denom *= 2


def achievable_odd_sums(w) -> frozenset[int]:
    """Positive odd targets attainable for the sign word, each witnessed."""
    bits = as_bits(w)
    best = _max_suffix(bits)
    out = set()
    for t in range(1, best, 2):
        # re-check the exact certificate for membership, in integers over
        # the lcm of its denominators
        a = _witness(bits, t)
        scale = lcm(*(x.denominator for x in a))
        _check_witness(bits, [x.numerator * (scale // x.denominator) for x in a], scale, t)
        out.add(t)
    return frozenset(out)


def _check_n(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_MAX_N:
        raise CapExceededError(f"2^{2 * n} sign words exceed cap n <= {DEFAULT_MAX_N}")


def norton_count(n: int) -> int:
    """Total number of (word, attainable positive odd target) incidences."""
    _check_n(n)
    total = 0
    for bits in product((0, 1), repeat=2 * n):
        total += _max_suffix(bits) // 2
    return total


def table_counts(n: int) -> dict[tuple[int, int], int]:
    """Counts keyed by (number of 1s, odd target) over all sign words."""
    _check_n(n)
    table: dict[tuple[int, int], int] = {}
    for bits in product((0, 1), repeat=2 * n):
        n1 = sum(bits)
        best = _max_suffix(bits)
        for t in range(1, best, 2):
            key = (n1, t)
            table[key] = table.get(key, 0) + 1
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
