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
odd targets equals max(m(w), 0).  An alternative 'factors' reading of n10
(adjacent "10" occurrences) is exposed for comparison; it breaks the count
conjecture, e.g. on 11011000.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .exceptions import CapExceededError, IntegralityError

DEFAULT_MAX_N = 10
DEFAULT_TABLE_MAX_N = 6


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
    bits = tuple(int(b) for b in w)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("sign word bits must be 0 or 1")
    return bits


@dataclass(frozen=True)
class SignWordStats:
    n1: int
    n10: int
    multiplicity: int


def disjoint_ten_pairs(w) -> int:
    """Maximal number of disjoint (1 at i, 0 at j>i) index pairs."""
    open_ones = 0
    pairs = 0
    for b in as_bits(w):
        if b:
            open_ones += 1
        elif open_ones:
            open_ones -= 1
            pairs += 1
    return pairs


def ten_factor_count(w) -> int:
    """Adjacent '10' occurrences (the rejected alternative reading)."""
    bits = as_bits(w)
    return sum(1 for a, b in zip(bits, bits[1:]) if a == 1 and b == 0)


def stats(w, *, n10_mode: str = "disjoint") -> SignWordStats:
    bits = as_bits(w)
    n1 = sum(bits)
    if n10_mode == "disjoint":
        n10 = disjoint_ten_pairs(bits)
    elif n10_mode == "factors":
        n10 = ten_factor_count(bits)
    else:
        raise ValueError(f"n10_mode must be 'disjoint' or 'factors', got {n10_mode!r}")
    return SignWordStats(n1, n10, (n1 - n10) // 2)


def max_suffix_balance(w) -> int:
    """max over k of (#1s - #0s) among the last k bits (k = 0 included)."""
    bits = as_bits(w)
    best = 0
    run = 0
    for b in reversed(bits):
        run += 1 if b else -1
        if run > best:
            best = run
    return best


def _check_witness(bits, a, target):
    total = sum(x if b else -x for b, x in zip(bits, a))
    if total != target:
        raise IntegralityError(
            f"witness for {''.join(map(str, bits))} sums to {total}, not {target}"
        )


def sum_witness(w, target: int) -> tuple[Fraction, ...]:
    """Exact rationals 0 < a_1 < ... < a_2n < 1 whose signed sum is target.

    Start from the threshold configuration attaining the max suffix balance
    (zeros before the cut, ones after), scale the jump to hit the target,
    and tilt everything by a small increasing ramp; the denominator is
    doubled until all strict inequalities verify.  Raises ValueError when
    the target is not attainable.
    """
    bits = as_bits(w)
    L = len(bits)
    best = max_suffix_balance(bits)
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
        eta = Fraction(1, denom)
        base = Fraction(L + 2, denom)
        # base*sigma + eta*wsum + jump*best == target
        jump = Fraction(target - base * sigma - eta * wsum, best)
        a = tuple(
            base + (i + 1) * eta + (jump if i >= cut else 0) for i in range(L)
        )
        if jump > 0 and a[0] > 0 and a[-1] < 1 and all(
            x < y for x, y in zip(a, a[1:])
        ):
            _check_witness(bits, a, target)
            return a
        denom *= 2


def achievable_odd_sums(w) -> frozenset[int]:
    """Positive odd targets attainable for the sign word, each witnessed."""
    bits = as_bits(w)
    best = max_suffix_balance(bits)
    out = set()
    for t in range(1, best, 2):
        # re-check the exact certificate for membership
        _check_witness(bits, sum_witness(bits, t), t)
        out.add(t)
    return frozenset(out)


def _check_n(n, max_n):
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise CapExceededError(
            f"2^{2 * n} sign words exceed cap n <= {max_n}; override max_n to force"
        )


def norton_count(n: int, *, max_n: int = DEFAULT_MAX_N) -> int:
    """Total number of (word, attainable positive odd target) incidences."""
    _check_n(n, max_n)
    total = 0
    for bits in product((0, 1), repeat=2 * n):
        total += max_suffix_balance(bits) // 2
    return total


def table_counts(n: int, *, max_n: int = DEFAULT_TABLE_MAX_N) -> dict[tuple[int, int], int]:
    """Counts keyed by (number of 1s, odd target) over all sign words."""
    _check_n(n, max_n)
    table: dict[tuple[int, int], int] = {}
    for bits in product((0, 1), repeat=2 * n):
        n1 = sum(bits)
        best = max_suffix_balance(bits)
        for t in range(1, best, 2):
            key = (n1, t)
            table[key] = table.get(key, 0) + 1
    return table


def table_csv_rows(n: int, **kw) -> list[str]:
    """CSV rows, one per sign profile (most plus signs first), odd-target columns."""
    table = table_counts(n, **kw)
    targets = list(range(1, 2 * n, 2))
    rows = ["profile," + ",".join(str(t) for t in targets)]
    for n1 in range(2 * n, 1, -1):
        n0 = 2 * n - n1
        label = f"{n1}+" if n0 == 0 else f"{n1}+{n0}-"
        cells = [str(table.get((n1, t), "")) for t in targets]
        rows.append(label + "," + ",".join(cells))
    return rows


@dataclass(frozen=True)
class DiagonalReport:
    columns: tuple[tuple[int, ...], ...]
    binomial_pattern_ok: bool
    full_contribution_total: int
    expected_full_total: int
    partial_contribution_total: int
    expected_partial_total: int

    @property
    def full_contribution_ok(self) -> bool:
        return self.full_contribution_total == self.expected_full_total

    @property
    def partial_contribution_ok(self) -> bool:
        return self.partial_contribution_total == self.expected_partial_total

    @property
    def ok(self) -> bool:
        return (
            self.binomial_pattern_ok
            and self.full_contribution_ok
            and self.partial_contribution_ok
        )


def diagonal_columns(n: int, **kw) -> DiagonalReport:
    """Read the profile table along 45-degree diagonals.

    The diagonal starting at row n1=r, target 1 walks up-right; its nonzero
    entries, read from the all-ones end, should be binom(2n,0), binom(2n,1),
    ...  Cells where every sign word of the profile contributes (count =
    binom(2n, #zeros)) sum to one_first_total(n); the remaining nonzero
    cells sum to bar_first_total(n).  Mismatches are reported, not raised.
    """
    from .formulas import bar_first_total, one_first_total

    table = table_counts(n, **kw)
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
    return DiagonalReport(
        tuple(columns),
        pattern_ok,
        full,
        one_first_total(n),
        partial,
        bar_first_total(n),
    )
