"""Closed forms and nested binomial sums for d=2 word counts.

All arithmetic is exact: integers throughout, with fractions.Fraction for
the hypergeometric-style quotients.  Any value that must be an integer is
reduced via _as_integer, which raises IntegralityError instead of rounding;
none of those guards should ever fire for arguments in the documented
ranges.

The single-pair count decomposes by which marker letter comes first.  When
the plain 1 leads, the count is a bare Catalan number regardless of the
marker positions.  When the barred letter leads, the count is the double
sum bar_first_pair_count; summing it over all position pairs reduces, via
the equal-block structure of the position triangle, to
4*(free - reflected) + adjacent, the three nested sums implemented below
in both direct and closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .dyck import _ballot_count, binom, catalan, marker_lists
from .exceptions import CapExceededError, IntegralityError

# gessel_closed_sequence, gessel_closed_form and so `count --method closed` stop
# at this n: printing G(0..n_max) grows as n_max^3, and `count --method closed
# --n-max 15000` ran in about 18 s on 2 vCPUs (20000: 43 s)
CLOSED_MAX_N = 15_000


def _as_integer(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise IntegralityError(f"{what} evaluated to non-integer {x}")
    return int(x)


def gessel_closed_form(n: int) -> int:
    """Origin-to-origin d=2 Gessel walk count for 2n steps.

    Runs the recurrence of gessel_closed_sequence keeping only the last term.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    for g in _gessel_terms(n):
        pass
    return g


def gessel_closed_sequence(n_max: int) -> list[int]:
    """[G(0), ..., G(n_max)], the origin-to-origin d=2 Gessel walk counts.

    16^n (5/6)_n (1/2)_n / ((2)_n (5/3)_n), evaluated in one pass of its
    term ratio G(k+1) = G(k) * 4(6k+5)(2k+1) / ((k+2)(3k+5)), which stays
    integral.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(_gessel_terms(n_max))


def _gessel_terms(n_max: int):
    """Yield G(0), ..., G(n_max) by the term ratio, checking each division."""
    if n_max > CLOSED_MAX_N:
        raise CapExceededError(f"closed form up to n={n_max} exceeds cap n <= {CLOSED_MAX_N}")
    g = 1
    yield g
    for k in range(n_max):
        g, r = divmod(g * 4 * (6 * k + 5) * (2 * k + 1), (k + 2) * (3 * k + 5))
        if r:
            raise IntegralityError(f"Gessel count recurrence not integral at n={k + 1}")
        yield g


def one_pair_closed(n: int) -> int:
    """Complete d=2 words of length 2n with a single 1/1-bar pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    val = Fraction(2 * n + 1, 2) * comb(2 * n, n) - 2 ** (2 * n - 1)
    return _as_integer(val, "single-pair count")


def catalan_triangle(m: int, n: int) -> int:
    """Ballot-style triangle value ((m-n+1)/(m+1)) * binom(m+n, n).

    Zero outside 0 <= n <= m; counts nonnegative paths from 0 to m-n in
    m+n steps.
    """
    if n < 0 or m < 0 or n > m:
        return 0
    num = comb(m + n, n) * (m - n + 1)
    q, r = divmod(num, m + 1)
    if r:
        raise IntegralityError(f"catalan_triangle({m}, {n}) not integral")
    return q


def bar_first_pair_count(i: int, j: int, n: int) -> int:
    """Complete words with the barred marker at position i, plain at j > i.

    Double sum over the path heights flanking the two markers; every term
    is a product of two triangle values and a reflected binomial bracket.
    """
    if not 1 <= i < j <= 2 * n:
        raise ValueError(f"need 1 <= i < j <= 2n, got ({i}, {j}, n={n})")
    total = 0
    length_mid = j - i - 1
    for k1 in range(1, i):
        if (i - 1 - k1) % 2:
            continue
        first = catalan_triangle((i - 1 + k1) // 2, (i - 1 - k1) // 2)
        if not first:
            continue
        for k2 in range(0, j):
            if (2 * n - j - k2) % 2:
                continue
            last = catalan_triangle((2 * n - j + k2) // 2, (2 * n - j - k2) // 2)
            if not last:
                continue
            if (length_mid + k1 - k2) % 2:
                continue
            mid = binom(length_mid, (length_mid + k1 - k2) // 2) - binom(
                length_mid, (length_mid + k1 + k2) // 2
            )
            total += first * last * mid
    return total


def diamond_equal(i: int, j: int, n: int) -> bool:
    """Equal-block check: the four bar-first counts at rows 2i, 2i+1 and
    columns 2j, 2j+1 coincide (requires 1 <= i < j <= n-1)."""
    if not 1 <= i < j <= n - 1:
        raise ValueError(f"need 1 <= i < j <= n-1, got ({i}, {j}, n={n})")
    vals = {
        bar_first_pair_count(a, b, n)
        for a in (2 * i, 2 * i + 1)
        for b in (2 * j, 2 * j + 1)
    }
    return len(vals) == 1


def count_words_fixed_markers(
    signs: Sequence[int], word_positions: Sequence[int], n: int
) -> int:
    """Complete d=2 words of length 2n with all markers pinned.

    signs lists the 1/1-bar letters in order (+1 plain, -1 barred) and
    word_positions their 1-based slots.  The count is the nested sum of
    ballot products over the marker heights, evaluated by sequential
    contraction; it must agree with count_ph_paths on the derived floor
    constraint.  Unbalanced signs give 0.
    """
    ml = marker_lists(signs, word_positions)
    m = len(ml.signs)
    if m and ml.word_positions[-1] > 2 * n:
        raise ValueError("positions must lie in [1, 2n]")
    if m == 0:
        return catalan(n)
    if sum(ml.signs) != 0:
        return 0
    path_len = 2 * n - m
    ppos = ml.path_positions

    # heights at each marker abscissa; contract left to right
    his = [min(pp, path_len - pp) for pp in ppos]
    vec = {k: _ballot_count(0, k, ppos[0]) for k in range(0, his[0] + 1)}
    for a in range(1, m):
        seg = ppos[a] - ppos[a - 1]
        f = ml.floors[a - 1]
        nxt = {}
        for k2 in range(0, his[a] + 1):
            tot = 0
            for k1, v in vec.items():
                if v:
                    tot += v * _ballot_count(k1 - f, k2 - f, seg)
            nxt[k2] = tot
        vec = nxt
    tail = path_len - ppos[-1]
    return sum(v * _ballot_count(k, 0, tail) for k, v in vec.items())


def adjacent_marker_sum_direct(n: int) -> int:
    """Direct nested sum over bar-first words with markers at (2i, 2i+1)."""
    total = 0
    for i in range(1, n):
        for r in range(1, i + 1):
            for s in range(1, i + 1):
                bracket = binom(0, r - s) - binom(0, r + s - 1)
                if bracket:
                    total += (
                        catalan_triangle(i - 1 + r, i - r)
                        * catalan_triangle(n - i + s - 1, n - i - s)
                        * bracket
                    )
    return total


def adjacent_marker_sum_closed(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1) * catalan(n - 1)


def _spread_sum(n: int, reflected: bool) -> int:
    # the catalan_triangle factors depend only on (i, r) and on (j, s)
    left = {
        i: [catalan_triangle(2 * i - r - 1, r) for r in range(i)] for i in range(1, n - 1)
    }
    right = {
        j: [catalan_triangle(2 * n - 2 * j - s, s) for s in range(n - j)] for j in range(2, n)
    }
    total = 0
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            # the binomial's top depends only on (i, j): one row per pair
            m = 2 * j - 2 * i - 1
            row = [comb(m, k) for k in range(m + 1)]
            for r in range(0, i):
                for s in range(0, n - j):
                    k = n - s - r - 1 if reflected else 2 * j + s - n - r - 1
                    if 0 <= k <= m:
                        total += left[i][r] * right[j][s] * row[k]
    return total


def even_marker_sum_free_direct(n: int) -> int:
    """Direct quadruple sum: free-path half of the even-position pairs."""
    return _spread_sum(n, reflected=False)


def even_marker_sum_reflected_direct(n: int) -> int:
    """Direct quadruple sum: reflected half of the even-position pairs."""
    return _spread_sum(n, reflected=True)


def even_marker_sum_free_closed(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    val = Fraction(n + 2, 4) * comb(2 * n, n) - 3 * Fraction(2) ** (2 * n - 3)
    return _as_integer(val, "even-position free sum")


def even_marker_sum_reflected_closed(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    val = (
        Fraction(n, 2) * binom(2 * n - 2, n - 4)
        - Fraction(2) ** (2 * n - 2)
        + Fraction(factorial(2 * n) * (3 * n * n + n + 2), 2 * factorial(n) * factorial(n + 2))
    )
    return _as_integer(val, "even-position reflected sum")


def bar_first_total(n: int) -> int:
    """All bar-first single-pair words of length 2n, closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    poly = n**3 + 4 * n**2 + 5 * n + 2
    val = Fraction(poly * factorial(2 * n), 2 * factorial(n) * factorial(n + 2)) - 2 ** (
        2 * n - 1
    )
    return _as_integer(val, "bar-first total")


def one_first_total(n: int) -> int:
    """All one-first single-pair words: Catalan(n-1) per position pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2 * n - 1) * binom(2 * n - 2, n - 1)


def _gbinom(r: int, k: int) -> int:
    """Generalized binomial: r can be any integer, 0 for k < 0."""
    if k < 0:
        return 0
    if r >= 0:
        return comb(r, k)
    return (-1) ** k * comb(k - r - 1, k)  # upper negation


def triangle_ext(m: int, n: int) -> int:
    """binom(m+n, n) - binom(m+n, n-1) with generalized binomials.

    Agrees with catalan_triangle on 0 <= n <= m and extends it off the
    counting wedge (where it can go negative); the convolution identities
    hold for this extension on their full parameter ranges.
    """
    if n < 0:
        return 0
    return _gbinom(m + n, n) - _gbinom(m + n, n - 1)


def catalan_convolution_identity(a: int, b: int, c: int) -> bool:
    """sum_i T(i+a, i) T(b-i, c-i) == T(a+b+1, c) for the extended triangle.

    Holds for all a, b, c >= 0.  The clamped catalan_triangle satisfies it
    too, but only where the left side keeps its support (c <= b).
    """
    lhs = sum(
        triangle_ext(i + a, i) * triangle_ext(b - i, c - i)
        for i in range(0, c + 1)
    )
    return lhs == triangle_ext(a + b + 1, c)


def catalan_binomial_identity(a: int, b: int, c: int) -> bool:
    """sum_j T(a-j, b-j) binom(2j+1, j-c) == binom(a+b+2, b-c).

    Holds for all a, b >= 0 and 0 <= c <= b over the extended triangle.
    """
    lhs = sum(
        triangle_ext(a - j, b - j) * binom(2 * j + 1, j - c)
        for j in range(c, b + 1)
    )
    return lhs == binom(a + b + 2, b - c)


def split_triangular_sum(f: Callable[[int, int], int], a: int) -> tuple[int, int]:
    """Evaluate sum_{u+s<=a} f(u,s) directly and via the three-band split.

    Returns (direct, decomposed); the decomposition walks the u>=s and
    s>=u diagonal bands and removes the double-counted diagonal.
    """
    direct = sum(f(u, s) for u in range(a + 1) for s in range(a + 1 - u))
    part1 = sum(
        f(u, u - v) for v in range(a + 1) for u in range(v, (a + v) // 2 + 1)
    )
    part2 = sum(
        f(s - v, s) for v in range(a + 1) for s in range(v, (a + v) // 2 + 1)
    )
    part3 = sum(f(u, u) for u in range(a // 2 + 1))
    return direct, part1 + part2 - part3
