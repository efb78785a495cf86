"""Named verification suites emitting ReportEntry streams.

Each entry checks one cross-route equality over its cases, or pins a value;
on failure `actual` lists the first mismatches.  Conjecture entries gate no
exit code unless the caller promotes them.

A check hands `_agree` its cases whole: one list block for a scalar check,
one array block per length for the fiber counts and one of at most
(bound + 1)^3 = 68,921 triples for a triangle identity.  `_agree` confirms
equal got and want in one comparison, scans the rows only of a block that
differs, and renders only the first four mismatches.  Only the cores that
allocate per row cut their input into chunks: the marker configurations,
the floor rows and the enumerator's and norton's word blocks.

The bijection and cpt suites read the enumerator's word blocks: dyck's
ragged cores round-trip a block in one split and one interleave, a word's
marker class is one integer key, a class's floor row comes from one
segmented max over its key, and the floor DP runs once per marker count of
a length on the distinct rows.  The identities suite reads both
even-position sums from one table built once per run.  cpt's ballot
products, norton's witnesses and the triangle identities run on blocks
through private block cores, and the public fixed-marker count, stats and
witnessed sums are one-row calls of the same cores; the triangle
identities keep their literal sums, and dyck keeps scalar cores for its
public one-word functions, where a one-row block would cost far more.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import combinations

from . import dyck, enumeration, formulas, norton, walks
from .exceptions import CapExceededError, checked_at_least

# theorem checks the walk DP and enumeration up to these n; cpt pins <= 2 pairs
THEOREM_DP_N_MAX = 10
THEOREM_ENUM_N_MAX = 5
CPT_N1_MAX = 2
# Marker configurations, or class keys turned into floor rows, per block
DP_CHUNK = 4096


@dataclass
class ReportEntry:
    name: str
    params: dict = field(default_factory=dict)
    expected: str = ""
    actual: str = ""
    status: str = "pass"
    runtime_ms: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    @property
    def conjecture_failed(self) -> bool:
        return self.status == "conjecture-fail"

    def to_dict(self, *, timing: bool = True) -> dict:
        out = asdict(self)
        runtime_ms = out.pop("runtime_ms")
        if timing:
            out["runtime_ms"] = round(runtime_ms, 3)
        return out


def _run(name, params, expected, fn, *, conjecture=False):
    t0 = time.perf_counter()
    ok, actual = fn()
    ms = (time.perf_counter() - t0) * 1000.0
    status = ("conjecture-" if conjecture else "") + ("pass" if ok else "fail")
    return ReportEntry(name, params, expected, actual, status, ms)


def _agree(name, params, expected, blocks, unit, *, conjecture=False):
    """Entry checking got == want for every case of ``blocks``, an iterable of
    (cases, got, want) read inside the timer: a lazy one times building the
    cases too.

    got and want hold one value per case: numpy arrays, compared whole and,
    unless equal, row by row in one pass, or lists of Python values (see
    _cases).  cases(i) is the label of case i; it is called, before the next
    block is drawn, only for the first four mismatches, which the digest
    shows as (case, got, want) with array rows as tuples.
    """
    def tally():
        shown, bad, total = [], 0, 0
        for cases, got, want in blocks:
            misses = _mismatches(got, want)
            for i in misses[: 4 - len(shown)]:
                shown.append(str((cases(i), _value(got, i), _value(want, i))))
            bad += len(misses)
            total += len(got)
        if not bad:
            return True, f"all {total} {unit} agree"
        more = "" if bad <= 4 else f" (+{bad - 4} more)"
        return False, f"{bad}/{total} {unit} disagree: {'; '.join(shown)}{more}"

    return _run(name, params, expected, tally, conjecture=conjecture)


def _mismatches(got, want) -> list[int]:
    """Indices of the cases whose got differs from their want."""
    if isinstance(got, list):
        return [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    import numpy as np

    if np.array_equal(got, want):
        return []
    if np.shape(got) != np.shape(want):  # no row can equal a row of another shape
        return list(range(len(got)))
    diff = np.asarray(got != want)
    return np.flatnonzero(diff.any(axis=tuple(range(1, diff.ndim)))).tolist()


def _value(values, i):
    """Case i's value as the digest shows it: a row of an array as a tuple."""
    if isinstance(values, list):
        return values[i]
    value = values[i].tolist()
    return tuple(value) if isinstance(value, list) else value


def _cases(triples):
    """The (case, got, want) triples of a scalar check as one block of lists;
    a generator, so the triples are built inside the entry's timer."""
    block = list(triples)
    yield (lambda i: block[i][0]), [got for _, got, _ in block], [want for _, _, want in block]


def _rows(values):
    """The label function of a block whose case labels are the rows of values."""
    return lambda i: tuple(values[i].tolist())


def suite_theorem(n_max: int = 30):
    def first_values():
        got = tuple(formulas.one_pair_closed(n) for n in range(1, 5))
        return got == (1, 7, 38, 187), str(got)

    def gessel_values():
        got = tuple(formulas.gessel_closed_form(n) for n in range(0, 5))
        return got == (1, 2, 11, 85, 782), str(got)

    def engines():
        closed = formulas.gessel_closed_sequence(max(THEOREM_DP_N_MAX, THEOREM_ENUM_N_MAX))
        for n, dp in enumerate(walks.g_sequence(2, THEOREM_DP_N_MAX)):
            yield ("dp", n), dp, closed[n]
        for n in range(THEOREM_ENUM_N_MAX + 1):
            en = enumeration.count_complete_words(2, n)
            yield ("enum", n), en, closed[n]

    assembly = (
        (n, formulas.one_pair_closed(n), formulas.bar_first_total(n) + formulas.one_first_total(n))
        for n in range(1, n_max + 1)
    )
    return [
        _run("theorem/one-pair-values", {"n": "1..4"}, "(1, 7, 38, 187)", first_values),
        _agree(
            "theorem/one-pair-assembly",
            {"n_max": n_max},
            "closed form == bar-first + one-first",
            _cases(assembly),
            "n values",
        ),
        _run("theorem/gessel-values", {"n": "0..4"}, "(1, 2, 11, 85, 782)", gessel_values),
        _agree(
            "theorem/engine-agreement",
            {"dp_n_max": THEOREM_DP_N_MAX, "enum_n_max": THEOREM_ENUM_N_MAX},
            "closed == walk DP == enumeration",
            _cases(engines()),
            "engine pairs",
        ),
    ]


def suite_identities(n_max: int = 30, bound: int = 15, seed: int = 20260826):
    # the adjacent sum runs once per n, and the two even-position sums read
    # one shared table, built inside the timer of the first entry that needs
    # it: the per-sum entries and bar-first-assembly read the same values
    adjacent = cache(formulas.adjacent_marker_sum_direct)
    even_sums = cache(lambda: formulas._even_marker_sums(n_max))

    def free(n):
        return even_sums()[0][n]

    def reflected(n):
        return even_sums()[1][n]

    def against_closed(sum_direct, sum_closed, n_min):
        return _cases((n, sum_direct(n), sum_closed(n)) for n in range(n_min, n_max + 1))

    def bar_first_parts():
        for n in range(1, n_max + 1):
            total = 4 * (free(n) - reflected(n)) + adjacent(n)
            yield n, total, formulas.bar_first_total(n)

    def holds(identity_block):
        import numpy as np

        triples, ok = identity_block(bound)
        yield _rows(triples), ok, np.ones_like(ok)

    def split_tables():
        rng = random.Random(seed)
        for t in range(25):
            a = rng.randrange(0, 21)
            table = {(u, s): rng.randrange(-50, 51) for u in range(a + 1) for s in range(a + 1)}
            yield (t, a), *formulas.split_triangular_sum(lambda u, s: table[u, s], a)

    return [
        _agree(
            "identities/adjacent-sum",
            {"n": f"2..{n_max}"},
            "direct == (n-1) Catalan(n-1)",
            against_closed(adjacent, formulas.adjacent_marker_sum_closed, 2),
            "n values",
        ),
        _agree(
            "identities/even-pairs-free-sum",
            {"n": f"2..{n_max}"},
            "direct == closed",
            against_closed(free, formulas.even_marker_sum_free_closed, 2),
            "n values",
        ),
        _agree(
            "identities/even-pairs-reflected-sum",
            {"n": f"3..{n_max}"},
            "direct == closed",
            against_closed(reflected, formulas.even_marker_sum_reflected_closed, 3),
            "n values",
        ),
        _agree(
            "identities/bar-first-assembly",
            {"n_max": n_max},
            "4*(free - reflected) + adjacent == closed total",
            _cases(bar_first_parts()),
            "n values",
        ),
        _agree(
            "identities/triangle-convolution",
            {"bound": bound},
            "LHS == RHS for all triples",
            holds(formulas._convolution_identity_block),
            "triples",
        ),
        _agree(
            "identities/triangle-binomial",
            {"bound": bound},
            "LHS == RHS for all triples",
            holds(formulas._binomial_identity_block),
            "triples",
        ),
        _agree(
            "identities/triangular-split",
            {"trials": 25, "seed": seed},
            "direct == band decomposition",
            _cases(split_tables()),
            "random tables",
        ),
    ]


def _class_keys(words):
    """One integer per row of words, an (R, 2n) array of complete d=2 words,
    naming its marker class: bit p - 1 is set for a marker at word position
    p, and bit 2n + p - 1 when that marker is a plain 1.  The 4n bits fit
    an int64 for every length up to 31, far above the enumeration cap."""
    import numpy as np

    bits = np.int64(1) << np.arange(words.shape[1], dtype=np.int64)
    return (np.abs(words) == 1) @ bits | ((words == 1) @ bits) << words.shape[1]


def _class_key(n, signs, positions):
    """_class_keys of marker classes of length-2n words, given by their
    signs and 1-based positions: (m,) sequences for one class, or (R, m)
    arrays for one class per row."""
    import numpy as np

    positions = np.asarray(positions, dtype=np.int64)
    bits = np.int64(1) << positions - 1
    return (bits | (np.asarray(signs) > 0) << 2 * n + positions - 1).sum(axis=-1)


def _class_of(n, key):
    """(n, signs, positions) of a marker class key of length-2n words."""
    positions = tuple(p for p in range(1, 2 * n + 1) if key >> p - 1 & 1)
    signs = tuple(1 if key >> 2 * n + p - 1 & 1 else -1 for p in positions)
    return n, signs, positions


def _class_tally(key_blocks):
    """(keys, words per key), the keys ascending, over blocks of class keys."""
    import numpy as np

    return np.unique(np.concatenate(list(key_blocks)), return_counts=True)


def _floor_rows(n, keys):
    """Yield (indices, floor rows) for the marker class keys of length-2n
    words, one group per marker count m: row r is the floor_profile, over
    abscissae 0..2n-m, of the PHConstraint of class keys[indices[r]].

    The classes are balanced, as those of complete words are, so the floor
    after each letter, max(0, -run) over the marker signs so far, holds
    until the next marker.  Abscissa t is reached at the path's start
    (t = 0) or at its t-th step letter, and stays until the next step
    letter: its floor is the largest after any of those letters, one
    segmented max per group."""
    import numpy as np

    length = 2 * n
    bits = np.arange(length)
    marks = (keys[:, None] >> bits & 1).astype(bool)
    signs = (2 * (keys[:, None] >> bits + length & 1) - 1) * marks
    floors = np.zeros((len(keys), length + 1), dtype=np.int64)
    floors[:, 1:] = -signs
    for t in range(2, length + 1):  # -run, one add per column
        floors[:, t] += floors[:, t - 1]
    np.maximum(floors, 0, out=floors)
    opens = np.ones(floors.shape, dtype=bool)
    opens[:, 1:] = ~marks
    counts = np.count_nonzero(marks, axis=1)
    for m in np.unique(counts).tolist():
        idx = np.flatnonzero(counts == m)
        rows = np.maximum.reduceat(floors[idx].ravel(), np.flatnonzero(opens[idx]))
        yield idx, rows.reshape(len(idx), length - m + 1)


def _floor_path_counts(n, keys):
    """The floor DP's path count for each marker class key of length-2n
    words: one batched DP run per marker count, on the distinct floor rows
    of all the keys.  Rows are built a chunk of DP_CHUNK keys at a
    time and kept as codes, which are decoded back into the distinct rows.

    A row is told apart by one base-(n + 1) code: its floors lie in [0, n]
    and it has at most 2n + 1 of them, so the code fits an int64 while
    (n + 1)^(2n + 1) < 2^63, for every n up to 8, above both verify caps."""
    import numpy as np

    base = (n + 1) ** np.arange(2 * n + 1, dtype=np.int64)
    codes = np.zeros(len(keys), dtype=np.int64)
    widths = np.zeros(len(keys), dtype=np.int64)  # 2n + 1 - marker count
    for start in range(0, len(keys), DP_CHUNK):
        for idx, rows in _floor_rows(n, keys[start : start + DP_CHUNK]):
            codes[start + idx] = rows @ base[: rows.shape[1]]
            widths[start + idx] = rows.shape[1]
    out = np.zeros(len(keys), dtype=np.int64)
    for width in np.unique(widths).tolist():
        at = np.flatnonzero(widths == width)
        distinct, inverse = np.unique(codes[at], return_inverse=True)
        rows = distinct[:, None] // base[:width] % (n + 1)
        out[at] = np.asarray(dyck._count_paths(0, 0, width - 1, rows))[inverse]
    return out


def suite_bijection(len_max: int = 12):
    # the round trip runs the bijection's ragged block cores once on each of
    # the enumerator's blocks (the floor check stays inside
    # _interleave_ragged), and tallies the words per marker class for
    # fiber-counts as it goes
    tallies = []

    def round_trips():
        for n in range(len_max // 2 + 1):
            keys = []
            for words in enumeration._word_blocks(2, n, None):
                rebuilt = dyck._interleave_ragged(*dyck._split_ragged(words))
                keys.append(_class_keys(words))
                yield (lambda r: n), rebuilt, words
            tallies.append((n, *_class_tally(keys)))

    def fibers():
        for n, keys, sizes in tallies:
            yield (lambda r: _class_of(n, int(keys[r]))), _floor_path_counts(n, keys), sizes

    return [
        _agree(
            "bijection/round-trip",
            {"len_max": len_max},
            "markers_to_word(word_to_markers(w)) == w",
            round_trips(),
            "words",
        ),
        _agree(
            "bijection/fiber-counts",
            {"len_max": len_max},
            "count_ph_paths == words per marker class",
            fibers(),
            "marker classes",
        ),
    ]


def suite_diamond(n_max: int = 8):
    return [
        _agree(
            "diamond/equal-blocks",
            {"n_max": n_max},
            "four bar-first counts equal per block",
            _cases(
                ((i, j, n), formulas.diamond_equal(i, j, n), True)
                for n in range(3, n_max + 1)
                for i in range(1, n - 1)
                for j in range(i + 1, n)
            ),
            "blocks",
        )
    ]


def _balanced_signs(pairs):
    """Every balanced +-1 sign word of 2 * pairs letters as the rows of an
    int64 array, in the order of product((1, -1), repeat=2 * pairs)."""
    import numpy as np

    width = 2 * pairs
    index = np.arange(1 << width)[:, None]
    signs = 1 - 2 * (index >> np.arange(width - 1, -1, -1) & 1)
    return signs[signs.sum(axis=1) == 0]


def _configurations(n, signs):
    """Yield (signs, positions) blocks of at most DP_CHUNK marker
    configurations of length-2n words: each row of signs, an (S, m) array,
    with every m-set of 1-based positions, in the order of
    product(signs, combinations(range(1, 2n + 1), m))."""
    import numpy as np

    m = signs.shape[1]
    sets = list(combinations(range(1, 2 * n + 1), m))
    positions = np.array(sets, dtype=np.int64).reshape(len(sets), m)
    total = len(signs) * len(sets)
    for start in range(0, total, DP_CHUNK):
        index = np.arange(start, min(start + DP_CHUNK, total))
        yield signs[index // len(sets)], positions[index % len(sets)]


def suite_cpt(n_max: int = 5):
    # both entries run the ballot products on blocks of configurations
    import numpy as np

    def label(n, signs, positions):
        return lambda r: (n, tuple(signs[r].tolist()), tuple(positions[r].tolist()))

    def three_routes():
        for n in range(1, n_max + 1):
            # a complete word holds as many 1s as 1-bars, so the marker cap
            # keeps exactly the words of the classes looked up below
            blocks = enumeration._word_blocks(2, n, CPT_N1_MAX)
            keys, sizes = _class_tally(map(_class_keys, blocks))
            for n1 in range(1, min(CPT_N1_MAX, n) + 1):
                for signs, positions in _configurations(n, _balanced_signs(n1)):
                    formula = formulas._count_words_fixed_markers_block(signs, positions, n)
                    key = _class_key(n, signs, positions)
                    at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
                    fibers = np.where(keys[at] == key, sizes[at], 0)
                    oracles = _floor_path_counts(n, key)
                    yield (
                        label(n, signs, positions),
                        np.stack([formula, fibers], axis=1),
                        np.stack([oracles, oracles], axis=1),
                    )

    def legal_descents():
        for n in range(1, n_max + 1):
            for n1 in range(n + 1):
                balanced = _balanced_signs(n1)
                legal = balanced[(np.cumsum(balanced, axis=1) >= 0).all(axis=1)]
                for signs, positions in _configurations(n, legal):
                    got = formulas._count_words_fixed_markers_block(signs, positions, n)
                    want = np.full(len(got), dyck.catalan(n - n1))
                    yield label(n, signs, positions), got, want

    return [
        _agree(
            "cpt/ballot-product-vs-oracle",
            {"n_max": n_max, "n1_max": CPT_N1_MAX},
            "ballot-product sum == brute force == floor DP",
            three_routes(),
            "marker configurations",
        ),
        _agree(
            "cpt/catalan-independence",
            {"n_max": n_max},
            "count == Catalan(n - pairs) whenever marker signs are a legal path",
            legal_descents(),
            "legal-descent configurations",
        ),
    ]


TABLE1_EXPECTED = {
    "1111": (frozenset({1, 3}), (4, 0, 2)),
    "1110": (frozenset({1}), (3, 1, 1)),
    "1101": (frozenset({1}), (3, 1, 1)),
    "1011": (frozenset({1}), (3, 1, 1)),
    "0111": (frozenset({1}), (3, 0, 1)),
    "0011": (frozenset({1}), (2, 0, 1)),
}

TABLE2_EXPECTED = {
    (8, 1): 1, (8, 3): 1, (8, 5): 1, (8, 7): 1,
    (7, 1): 8, (7, 3): 8, (7, 5): 8,
    (6, 1): 28, (6, 3): 28, (6, 5): 1,
    (5, 1): 56, (5, 3): 8,
    (4, 1): 28, (4, 3): 1,
    (3, 1): 8,
    (2, 1): 1,
}


def suite_norton(n_max: int = 6, len_max: int = 12):
    def count_n2():
        got = norton.norton_count(2)
        return got == 7, str(got)

    def table1_rows():
        # the 16 words in one block; _achievable_counts builds and checks a
        # witness for every odd target below each word's best
        for words, best in norton._sign_word_blocks(4):
            n1, n10 = norton._stats_block(words)
            norton._achievable_counts(words, best)
            for bits, top, ones, tens in zip(*(a.tolist() for a in (words, best, n1, n10))):
                word = "".join(map(str, bits))
                ach = frozenset(range(1, top, 2))
                if word in TABLE1_EXPECTED:
                    yield word, (ach, (ones, tens, (ones - tens) // 2)), TABLE1_EXPECTED[word]
                else:  # a row the table leaves out attains no odd sum
                    yield word, ach, frozenset()

    def table2_cells():
        got = norton.table_counts(4)
        for cell in {**TABLE2_EXPECTED, **got}:
            yield cell, got.get(cell), TABLE2_EXPECTED.get(cell)

    def diagonals():
        for n in range(2, n_max + 1):
            r = norton.diagonal_columns(n)
            got = r.binomial_pattern_ok, r.full_contribution_total, r.partial_contribution_total
            yield n, got, (True, formulas.one_first_total(n), formulas.bar_first_total(n))

    def multiplicity():
        # stats, achievable_odd_sums and its witnesses on blocks of sign words
        import numpy as np

        for n in range(1, len_max // 2 + 1):
            for words, best in norton._sign_word_blocks(2 * n):
                n1, n10 = norton._stats_block(words)
                got = norton._achievable_counts(words, best)
                yield _rows(words), got, np.maximum((n1 - n10) // 2, 0)

    totals = ((n, norton.norton_count(n), formulas.one_pair_closed(n)) for n in range(1, n_max + 1))
    return [
        _run("norton/total-n2", {"n": 2}, "7", count_n2),
        _agree(
            "norton/table-n2",
            {"n": 2},
            "rows and stats as published",
            _cases(table1_rows()),
            "sign words",
        ),
        _agree("norton/table-n4", {"n": 4}, "16 nonzero cells", _cases(table2_cells()), "cells"),
        _agree(
            "norton/multiplicity-conjecture",
            {"len_max": len_max},
            "|achievable| == max(m, 0)",
            multiplicity(),
            "sign words",
            conjecture=True,
        ),
        _agree(
            "norton/count-conjecture",
            {"n_max": n_max},
            "norton count == single-pair word count",
            _cases(totals),
            "n values",
            conjecture=True,
        ),
        _agree(
            "norton/diagonal-binomials",
            {"n_max": n_max},
            "diagonals are consecutive binomials; contribution split matches",
            _cases(diagonals()),
            "n values",
            conjecture=True,
        ),
    ]


# Each suite in report order, with the cap on each bound it takes (None: any
# integer); defaults live in the suite_<name> signatures.  A cap is the engine's
# own where it has one, else the largest round value at which the suite ran in
# under about 30 s on 2 vCPUs (README).
SUITES = {
    "theorem": {"n_max": 4000},
    "identities": {"n_max": 70, "bound": 40, "seed": None},
    "bijection": {"len_max": enumeration.DEFAULT_MAX_LENGTH},
    "diamond": {"n_max": 50},
    "cpt": {"n_max": enumeration.DEFAULT_MAX_LENGTH // 2},
    "norton": {"n_max": norton.DEFAULT_MAX_N, "len_max": 16},
}


def run_suite(name: str, **bounds: int) -> list[ReportEntry]:
    """Run one suite, or every suite for ``"all"``, each with the bounds it takes.

    Every bound is checked before any suite runs: a negative bound, or one
    that no selected suite takes, raises ValueError; a bound above a selected
    suite's cap raises CapExceededError.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    selected = SUITES if name == "all" else {name: SUITES[name]}
    for key, value in bounds.items():
        caps = [c[key] for c in selected.values() if key in c]
        if not caps:
            raise ValueError(f"suite {name} takes no bound {key}")
        if None not in caps:
            checked_at_least(value, 0, key)
    for suite, caps in selected.items():
        for key, cap in caps.items():
            if cap is not None and bounds.get(key, 0) > cap:
                raise CapExceededError(f"suite {suite}: {key} {bounds[key]} exceeds the cap {cap}")
    entries = []
    for suite, caps in selected.items():
        # through the module namespace, so a wrapper bound there sees the call
        run = globals()[f"suite_{suite}"]
        entries += run(**{key: value for key, value in bounds.items() if key in caps})
    return entries
