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
in both direct and closed form.  The two even-position sums share one
table: _even_marker_sums builds the part of their quadruple sum that does
not depend on n once, and returns both halves for every n up to a bound.
The public per-n direct functions read it, and verify builds it once per
identities run.  Every public function takes its integer arguments
through exceptions.checked_ints, or checked_at_least where n has a lower
bound (n >= 0 for G(n), n >= 1 for the single-pair sums), so integral
floats and numpy integers act as ints.

The fixed-marker count has one implementation,
_count_words_fixed_markers_block, which runs the ballot-product
contraction for a block of marker configurations at once: verify passes it
whole blocks, and count_words_fixed_markers checks its arguments and
passes it one row.  The two triangle identities keep their literal sums as
the public functions, and verify reads block cores that tests pin to them:
_convolution_identity_block and _binomial_identity_block evaluate every
triple from one table of triangle_ext values with one object-dtype matmul.
numpy is imported inside the block cores, so importing the package does
not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .dyck import _ballot_count, binom, catalan, marker_lists
from .exceptions import CapExceededError, IntegralityError, checked_at_least, checked_ints

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
    n = checked_at_least(n, 0, "n")
    for g in _gessel_terms(n):
        pass
    return g


def gessel_closed_sequence(n_max: int) -> list[int]:
    """[G(0), ..., G(n_max)], the origin-to-origin d=2 Gessel walk counts.

    16^n (5/6)_n (1/2)_n / ((2)_n (5/3)_n), evaluated in one pass of its
    term ratio G(k+1) = G(k) * 4(6k+5)(2k+1) / ((k+2)(3k+5)), which stays
    integral.
    """
    n_max = checked_at_least(n_max, 0, "n_max")
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
    n = checked_at_least(n, 1, "n")
    val = Fraction(2 * n + 1, 2) * comb(2 * n, n) - 2 ** (2 * n - 1)
    return _as_integer(val, "single-pair count")


def catalan_triangle(m: int, n: int) -> int:
    """Ballot-style triangle value ((m-n+1)/(m+1)) * binom(m+n, n).

    Zero outside 0 <= n <= m; counts nonnegative paths from 0 to m-n in
    m+n steps.  ValueError if int() would change m or n.
    """
    return _catalan_triangle(*checked_ints((m, n), "m and n must be integers"))


def _catalan_triangle(m: int, n: int) -> int:
    """catalan_triangle on ints, which are not checked."""
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
    i, j, n = checked_ints((i, j, n), "i, j and n must be integers")
    if not 1 <= i < j <= 2 * n:
        raise ValueError(f"need 1 <= i < j <= 2n, got ({i}, {j}, n={n})")
    total = 0
    length_mid = j - i - 1
    # the height k1 before i has the parity of i - 1, and k2 after j that of
    # j; neither triangle value is 0 for k1 < i and k2 <= 2n - j
    for k1 in range(1 + i % 2, i, 2):
        first = _catalan_triangle((i - 1 + k1) // 2, (i - 1 - k1) // 2)
        for k2 in range(j % 2, min(j, 2 * n - j + 1), 2):
            last = _catalan_triangle((2 * n - j + k2) // 2, (2 * n - j - k2) // 2)
            mid = binom(length_mid, (length_mid + k1 - k2) // 2) - binom(
                length_mid, (length_mid + k1 + k2) // 2
            )
            total += first * last * mid
    return total


def diamond_equal(i: int, j: int, n: int) -> bool:
    """Equal-block check: the four bar-first counts at rows 2i, 2i+1 and
    columns 2j, 2j+1 coincide (requires 1 <= i < j <= n-1)."""
    i, j, n = checked_ints((i, j, n), "i, j and n must be integers")
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
    ballot products over the marker heights, one row of
    _count_words_fixed_markers_block; it must agree with count_ph_paths on
    the derived floor constraint.  Unbalanced signs give 0.
    """
    import numpy as np

    (n,) = checked_ints((n,), "n must be an integer")
    ml = marker_lists(signs, word_positions)
    m = len(ml.signs)
    if m and ml.word_positions[-1] > 2 * n:
        raise ValueError("positions must lie in [1, 2n]")
    if sum(ml.signs) != 0:
        return 0
    row = (np.array(v, dtype=np.int64).reshape(1, m) for v in (ml.signs, ml.word_positions))
    return int(_count_words_fixed_markers_block(*row, n)[0])


def _count_words_fixed_markers_block(signs, word_positions, n: int):
    """count_words_fixed_markers on each row of the (R, m) signs and (R, m)
    1-based word positions arrays, for words of length 2n: an (R,) array.

    Trusted: every row's signs are balanced +-1 at strictly increasing
    positions in 1..2n.  The count contracts left to right over the marker
    heights, on all rows at once: each step gathers every row's ballot
    matrix, ballot(k1 - f, k2 - f, seg) with f the floor the markers so far
    leave, from one table and multiplies it into the row's vector.  A path
    above min(p, 2n - m - p) at a marker's abscissa p cannot have climbed
    there from 0 or return to 0 in time, so the vectors run over heights up
    to the largest of the rows' bounds at each marker, and the table holds
    only the segment lengths the rows use.  Every value counts +-1 paths,
    or path prefixes, of at most 2n - m steps, so it is below 2^(2n - m):
    the arrays are int64 while 2n - m < 63, which covers verify's cpt cap
    n <= 7, and hold Python ints from there on.
    """
    import numpy as np

    rows, m = signs.shape
    path_len = 2 * n - m
    dtype = np.int64 if path_len < 63 else object
    if m == 0:
        return np.full(rows, catalan(n), dtype=dtype)
    ppos = word_positions - np.arange(1, m + 1)
    floors = np.maximum(-np.cumsum(signs, axis=1), 0)  # marker_floors
    # marker a's heights run up to the largest of the rows' bounds there
    bounds = np.minimum(ppos, path_len - ppos).max(axis=0).tolist()
    top, low = max(bounds), -(m // 2)  # no height above top, no floor above m / 2
    heights = [np.arange(b + 1) for b in bounds]
    # each row's m + 1 segments: before the first marker, between markers,
    # after the last; seg[r, a] indexes the table by the segment's length
    steps = np.hstack([ppos[:, :1], np.diff(ppos, axis=1), path_len - ppos[:, -1:]])
    used = np.zeros(path_len + 1, dtype=bool)
    used[steps] = True
    lengths, seg = np.flatnonzero(used), (np.cumsum(used) - 1)[steps]
    # ballot[s, a, b] = _ballot_count(a + low, b + low, lengths[s])
    span = range(low, top + 1)
    ballot = np.array(
        [[[_ballot_count(a, b, s) for b in span] for a in span] for s in lengths.tolist()],
        dtype=dtype,
    )
    vec = ballot[seg[:, 0, None], -low, heights[0] - low]
    for a in range(1, m):
        f = floors[:, a - 1, None] + low
        k1, k2 = heights[a - 1] - f, heights[a] - f
        matrix = ballot[seg[:, a, None, None], k1[:, :, None], k2[:, None, :]]
        vec = np.matmul(vec[:, None, :], matrix)[:, 0]
    return (vec * ballot[seg[:, m, None], heights[-1] - low, -low]).sum(axis=1)


def adjacent_marker_sum_direct(n: int) -> int:
    """Direct nested sum over bar-first words with markers at (2i, 2i+1).

    The sum runs over 1 <= r, s <= i < n with the bracket binom(0, r - s) -
    binom(0, r + s - 1), which is 1 at s = r and 0 at every other s, so only
    the s = r terms are summed.
    """
    (n,) = checked_ints((n,), "n must be an integer")
    return sum(
        _catalan_triangle(i - 1 + r, i - r) * _catalan_triangle(n - i + r - 1, n - i - r)
        for i in range(1, n)
        for r in range(1, i + 1)
    )


def adjacent_marker_sum_closed(n: int) -> int:
    n = checked_at_least(n, 1, "n")
    return (n - 1) * catalan(n - 1)


def _even_marker_sums(n_max: int) -> tuple[list[int], list[int]]:
    """(free, reflected): the two halves of the even-position pairs sum for
    every n in 0..n_max, as lists indexed by n, from one shared table.

    Each half is the quadruple sum over 1 <= i < j < n, 0 <= r < i and
    0 <= s < n - j of T(2i - r - 1, r) T(2(n - j) - s, s) binom(2(j - i) - 1, k),
    T the catalan triangle, with k = 2j + s - n - r - 1 for the free half and
    k = n - s - r - 1 for the reflected one.  The (i, r) part does not depend
    on n: A[j][w], the sum over i < j and r of T(2i - r - 1, r)
    binom(2(j - i) - 1, w - r), is the x^w coefficient of the sum over i < j of
    L_i(x) (1 + x)^(2(j - i) - 1), with L_i(x) = sum_r T(2i - r - 1, r) x^r,
    so A[j + 1] = (1 + x) ((1 + x) A[j] + L_j) from A[1] = 0.  Then the free
    half is the sum over j and s of T(2(n - j) - s, s) A[j][2j - n - 1 + s],
    and the reflected half reads A[j][n - 1 - s].  The same terms as the
    quadruple sum, regrouped; no closed form enters.
    """

    def times_one_plus_x(poly):
        return [a + b for a, b in zip(poly + [0], [0] + poly)]

    # table[j] = A[j]: its 2j - 2 coefficients, zero-padded to at least n_max
    # so that every read past them finds 0
    table = [[0] * n_max, [0] * n_max]
    for j in range(2, n_max):
        inner = times_one_plus_x(table[j - 1][: 2 * j - 4])
        for r in range(j - 1):
            inner[r] += _catalan_triangle(2 * j - r - 3, r)  # L_{j-1}
        a = times_one_plus_x(inner)
        table.append(a + [0] * (n_max - len(a)))
    right = [[_catalan_triangle(2 * e - s, s) for s in range(e)] for e in range(n_max + 1)]
    free, reflected = [0] * (n_max + 1), [0] * (n_max + 1)
    for n in range(n_max + 1):
        for j in range(2, n):
            a = table[j]
            for s, t in enumerate(right[n - j]):
                reflected[n] += t * a[n - 1 - s]
                if 2 * j + s > n:
                    free[n] += t * a[2 * j - n - 1 + s]
    return free, reflected


def even_marker_sum_free_direct(n: int) -> int:
    """Direct quadruple sum: free-path half of the even-position pairs."""
    (n,) = checked_ints((n,), "n must be an integer")
    return _even_marker_sums(n)[0][n] if n > 0 else 0


def even_marker_sum_reflected_direct(n: int) -> int:
    """Direct quadruple sum: reflected half of the even-position pairs."""
    (n,) = checked_ints((n,), "n must be an integer")
    return _even_marker_sums(n)[1][n] if n > 0 else 0


def even_marker_sum_free_closed(n: int) -> int:
    n = checked_at_least(n, 1, "n")
    val = Fraction(n + 2, 4) * comb(2 * n, n) - 3 * Fraction(2) ** (2 * n - 3)
    return _as_integer(val, "even-position free sum")


def even_marker_sum_reflected_closed(n: int) -> int:
    n = checked_at_least(n, 1, "n")
    val = (
        Fraction(n, 2) * binom(2 * n - 2, n - 4)
        - Fraction(2) ** (2 * n - 2)
        + Fraction(factorial(2 * n) * (3 * n * n + n + 2), 2 * factorial(n) * factorial(n + 2))
    )
    return _as_integer(val, "even-position reflected sum")


def bar_first_total(n: int) -> int:
    """All bar-first single-pair words of length 2n, closed form."""
    n = checked_at_least(n, 1, "n")
    poly = n**3 + 4 * n**2 + 5 * n + 2
    val = Fraction(poly * factorial(2 * n), 2 * factorial(n) * factorial(n + 2)) - 2 ** (
        2 * n - 1
    )
    return _as_integer(val, "bar-first total")


def one_first_total(n: int) -> int:
    """All one-first single-pair words: Catalan(n-1) per position pair."""
    n = checked_at_least(n, 1, "n")
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
    return _triangle_ext(*checked_ints((m, n), "m and n must be integers"))


def _triangle_ext(m: int, n: int) -> int:
    """triangle_ext on ints, which are not checked."""
    if n < 0:
        return 0
    return _gbinom(m + n, n) - _gbinom(m + n, n - 1)


def catalan_convolution_identity(a: int, b: int, c: int) -> bool:
    """sum_i T(i+a, i) T(b-i, c-i) == T(a+b+1, c) for the extended triangle.

    Holds for all a, b, c >= 0.  The clamped catalan_triangle satisfies it
    too, but only where the left side keeps its support (c <= b).
    """
    a, b, c = checked_ints((a, b, c), "a, b and c must be integers")
    lhs = sum(
        _triangle_ext(i + a, i) * _triangle_ext(b - i, c - i)
        for i in range(0, c + 1)
    )
    return lhs == _triangle_ext(a + b + 1, c)


def catalan_binomial_identity(a: int, b: int, c: int) -> bool:
    """sum_j T(a-j, b-j) binom(2j+1, j-c) == binom(a+b+2, b-c).

    Holds for all a, b >= 0 and 0 <= c <= b over the extended triangle.
    """
    a, b, c = checked_ints((a, b, c), "a, b and c must be integers")
    lhs = sum(
        _triangle_ext(a - j, b - j) * binom(2 * j + 1, j - c)
        for j in range(c, b + 1)
    )
    return lhs == binom(a + b + 2, b - c)


def _triangle_ext_table(bound: int):
    """table[m + bound, n] = triangle_ext(m, n) for -bound <= m <= 2 bound + 1
    and 0 <= n <= bound, as Python ints in an object array."""
    import numpy as np

    table = np.empty((3 * bound + 2, bound + 1), dtype=object)
    for m in range(-bound, 2 * bound + 2):
        for k in range(bound + 1):
            table[m + bound, k] = _triangle_ext(m, k)
    return table


def _convolution_identity_block(bound: int):
    """(triples, holds): every (a, b, c) in 0..bound, in the order of
    product(range(bound + 1), repeat=3), as a (N, 3) array, and whether
    catalan_convolution_identity holds for each.

    The left sides are one object-dtype matmul: X[a, i] = T(i + a, i)
    against Y[(b, c), i] = T(b - i, c - i), which is 0 for i > c, so the
    sum over every i <= bound is the sum over i <= c.  Values are Python
    ints, so any bound is exact.
    """
    import numpy as np

    table = _triangle_ext_table(bound)
    r = np.arange(bound + 1)
    a, i = r[:, None], r[None, :]
    x = table[i + a + bound, i]  # [a, i]
    b, c, i = r[:, None, None], r[None, :, None], r[None, None, :]
    y = np.where(c >= i, table[b - i + bound, np.maximum(c - i, 0)], 0)  # [b, c, i]
    lhs = (x @ y.reshape(-1, bound + 1).T).ravel()  # [a, (b, c)]
    triples = np.argwhere(np.ones((bound + 1,) * 3, dtype=bool))
    a, b, c = triples.T
    return triples, (lhs == table[a + b + 1 + bound, c]).astype(bool)


def _binomial_identity_block(bound: int):
    """(triples, holds): every (a, b, c) with a, b in 0..bound and c <= b, in
    the order verify lists them, as a (N, 3) array, and whether
    catalan_binomial_identity holds for each.

    The left sides are one object-dtype matmul: U[(a, b), j] = T(a - j, b - j),
    which is 0 for j > b, against V[j, c] = binom(2j + 1, j - c), which is
    0 for j < c.  Values are Python ints, so any bound is exact.
    """
    import numpy as np

    table = _triangle_ext_table(bound)
    # binoms[s, k] = binom(s, k) for every top either side reads
    binoms = np.array(
        [[binom(s, k) for k in range(bound + 1)] for s in range(2 * bound + 3)], dtype=object
    )
    r = np.arange(bound + 1)
    a, b, j = r[:, None, None], r[None, :, None], r[None, None, :]
    u = np.where(b >= j, table[a - j + bound, np.maximum(b - j, 0)], 0)  # [a, b, j]
    j, c = r[:, None], r[None, :]
    v = np.where(j >= c, binoms[2 * j + 1, np.maximum(j - c, 0)], 0)  # [j, c]
    lhs = (u.reshape(-1, bound + 1) @ v).reshape((bound + 1,) * 3)  # [a, b, c]
    triples = np.argwhere(np.broadcast_to(r[:, None] >= r, lhs.shape))  # c <= b
    a, b, c = triples.T
    return triples, (lhs[a, b, c] == binoms[a + b + 2, b - c]).astype(bool)


def split_triangular_sum(f: Callable[[int, int], int], a: int) -> tuple[int, int]:
    """Evaluate sum_{u+s<=a} f(u,s) directly and via the three-band split.

    Returns (direct, decomposed); the decomposition walks the u>=s and
    s>=u diagonal bands and removes the double-counted diagonal.
    """
    (a,) = checked_ints((a,), "a must be an integer")
    direct = sum(f(u, s) for u in range(a + 1) for s in range(a + 1 - u))
    part1 = sum(
        f(u, u - v) for v in range(a + 1) for u in range(v, (a + v) // 2 + 1)
    )
    part2 = sum(
        f(s - v, s) for v in range(a + 1) for s in range(v, (a + v) // 2 + 1)
    )
    part3 = sum(f(u, u) for u in range(a // 2 + 1))
    return direct, part1 + part2 - part3
