"""Named verification suites emitting ReportEntry streams.

Each entry checks one cross-route equality over its cases, or pins a value;
on failure `actual` lists the first mismatches.  Conjecture entries gate no
exit code unless the caller promotes them.

The bijection and cpt suites read the enumerator's word blocks as arrays:
the block cores of dyck round-trip whole blocks, each word's marker class
is one integer key, and the floor DP runs on a stack of floor rows built
from the keys.  The scalar cores stay for the public one-word functions,
where a one-row block would cost about twenty times as much.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import accumulate, combinations, product, repeat

from . import dyck, enumeration, formulas, norton, walks
from .exceptions import CapExceededError

# theorem checks the walk DP and enumeration up to these n; cpt pins <= 2 pairs
THEOREM_DP_N_MAX = 10
THEOREM_ENUM_N_MAX = 5
CPT_N1_MAX = 2


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


def _agree(name, params, expected, cases, unit, *, conjecture=False):
    """Entry checking got == want for each (case, got, want) of ``cases``, which
    is read inside the timer: a lazy iterable times building each case too."""
    def tally():
        bad, total = [], 0
        for total, (case, got, want) in enumerate(cases, start=1):
            if got != want:
                bad.append((case, got, want))
        if not bad:
            return True, f"all {total} {unit} agree"
        digest = "; ".join(str(m) for m in bad[:4])
        more = "" if len(bad) <= 4 else f" (+{len(bad) - 4} more)"
        return False, f"{len(bad)}/{total} {unit} disagree: {digest}{more}"

    return _run(name, params, expected, tally, conjecture=conjecture)


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
            assembly,
            "n values",
        ),
        _run("theorem/gessel-values", {"n": "0..4"}, "(1, 2, 11, 85, 782)", gessel_values),
        _agree(
            "theorem/engine-agreement",
            {"dp_n_max": THEOREM_DP_N_MAX, "enum_n_max": THEOREM_ENUM_N_MAX},
            "closed == walk DP == enumeration",
            engines(),
            "engine pairs",
        ),
    ]


def suite_identities(n_max: int = 30, bound: int = 15, seed: int = 20260826):
    # each direct nested sum runs once per n: the per-sum entries and
    # bar-first-assembly read the same values
    @cache
    def direct(sum_direct, n):
        return sum_direct(n)

    def against_closed(sum_direct, sum_closed, n_min):
        return ((n, direct(sum_direct, n), sum_closed(n)) for n in range(n_min, n_max + 1))

    def bar_first_parts():
        for n in range(1, n_max + 1):
            free = direct(formulas.even_marker_sum_free_direct, n)
            reflected = direct(formulas.even_marker_sum_reflected_direct, n)
            adjacent = direct(formulas.adjacent_marker_sum_direct, n)
            yield n, 4 * (free - reflected) + adjacent, formulas.bar_first_total(n)

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
            against_closed(
                formulas.adjacent_marker_sum_direct, formulas.adjacent_marker_sum_closed, 2
            ),
            "n values",
        ),
        _agree(
            "identities/even-pairs-free-sum",
            {"n": f"2..{n_max}"},
            "direct == closed",
            against_closed(
                formulas.even_marker_sum_free_direct, formulas.even_marker_sum_free_closed, 2
            ),
            "n values",
        ),
        _agree(
            "identities/even-pairs-reflected-sum",
            {"n": f"3..{n_max}"},
            "direct == closed",
            against_closed(
                formulas.even_marker_sum_reflected_direct,
                formulas.even_marker_sum_reflected_closed,
                3,
            ),
            "n values",
        ),
        _agree(
            "identities/bar-first-assembly",
            {"n_max": n_max},
            "4*(free - reflected) + adjacent == closed total",
            bar_first_parts(),
            "n values",
        ),
        _agree(
            "identities/triangle-convolution",
            {"bound": bound},
            "LHS == RHS for all triples",
            (
                ((a, b, c), formulas.catalan_convolution_identity(a, b, c), True)
                for a, b, c in product(range(bound + 1), repeat=3)
            ),
            "triples",
        ),
        _agree(
            "identities/triangle-binomial",
            {"bound": bound},
            "LHS == RHS for all triples",
            (
                ((a, b, c), formulas.catalan_binomial_identity(a, b, c), True)
                for a, b in product(range(bound + 1), repeat=2)
                for c in range(b + 1)
            ),
            "triples",
        ),
        _agree(
            "identities/triangular-split",
            {"trials": 25, "seed": seed},
            "direct == band decomposition",
            split_tables(),
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
    """_class_keys of one marker class of length-2n words."""
    return sum((1 | (s > 0) << 2 * n) << p - 1 for s, p in zip(signs, positions))


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
    abscissae 0..2n-m, of the PHConstraint of class keys[indices[r]]."""
    import numpy as np

    length = 2 * n
    bits = np.arange(length)
    marks = (keys[:, None] >> bits & 1).astype(bool)
    plus = (keys[:, None] >> bits + length & 1).astype(bool)
    counts = np.count_nonzero(marks, axis=1)
    for m in np.unique(counts).tolist():
        idx = np.flatnonzero(counts == m)
        mask = marks[idx]
        # path abscissa of the i-th marker (0-based): word position - (i + 1)
        abscissae = np.nonzero(mask)[1].reshape(len(idx), m) - np.arange(m)
        signs = np.where(plus[idx][mask], 1, -1).reshape(len(idx), m)
        floors = np.maximum(-np.cumsum(signs, axis=1), 0)  # marker_floors
        t = np.arange(length - m + 1)
        rows = np.zeros((len(idx), len(t)), dtype=np.int64)
        for i in range(m - 1):
            segment = (abscissae[:, i, None] <= t) & (t <= abscissae[:, i + 1, None])
            rows = np.maximum(rows, segment * floors[:, i, None])
        yield idx, rows


def _floor_path_counts(n, keys):
    """The floor DP's path count for each marker class key of length-2n
    words: one batched DP run per marker count in each chunk of
    dyck.DP_CHUNK keys, so the floor rows never outgrow the DP's own chunks."""
    import numpy as np

    out = np.zeros(len(keys), dtype=np.int64)
    for start in range(0, len(keys), dyck.DP_CHUNK):
        for idx, rows in _floor_rows(n, keys[start : start + dyck.DP_CHUNK]):
            out[start + idx] = dyck._count_paths(0, 0, rows.shape[1] - 1, rows)
    return out


def suite_bijection(len_max: int = 12):
    # the round trip runs the bijection's block cores on the enumerator's
    # blocks (the floor check stays inside _interleave_block), and tallies
    # the words per marker class for fiber-counts as it goes
    import numpy as np

    tallies = []

    def round_trips():
        for n in range(len_max // 2 + 1):
            keys = []
            for words in enumeration._word_blocks(2, n, None):
                rebuilt = np.empty_like(words)
                for rows, positions, signs, path in dyck._split_block(words):
                    rebuilt[rows] = dyck._interleave_block(path, positions, signs)
                keys.append(_class_keys(words))
                bad = np.flatnonzero((rebuilt != words).any(axis=1))
                yield from repeat((n, 0, 0), len(words) - len(bad))
                for r in bad.tolist():
                    yield n, tuple(rebuilt[r].tolist()), tuple(words[r].tolist())
            tallies.append((n, *_class_tally(keys)))

    def fibers():
        for n, keys, sizes in tallies:
            paths = _floor_path_counts(n, keys)
            bad = np.flatnonzero(paths != sizes)
            yield from repeat((n, 0, 0), len(keys) - len(bad))
            for r in bad.tolist():
                yield _class_of(n, int(keys[r])), int(paths[r]), int(sizes[r])

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
            (
                ((i, j, n), formulas.diamond_equal(i, j, n), True)
                for n in range(3, n_max + 1)
                for i in range(1, n - 1)
                for j in range(i + 1, n)
            ),
            "blocks",
        )
    ]


def _balanced_signs(pairs):
    return [s for s in product((1, -1), repeat=2 * pairs) if sum(s) == 0]


def suite_cpt(n_max: int = 5):
    import numpy as np

    def three_routes():
        for n in range(1, n_max + 1):
            blocks = enumeration._word_blocks(2, n, None)
            keys, sizes = _class_tally(map(_class_keys, blocks))
            fibers = dict(zip(keys.tolist(), sizes.tolist()))
            cases = [
                (signs, positions)
                for n1 in range(1, min(CPT_N1_MAX, n) + 1)
                for signs in _balanced_signs(n1)
                for positions in combinations(range(1, 2 * n + 1), 2 * n1)
            ]
            keys = [_class_key(n, signs, positions) for signs, positions in cases]
            oracles = _floor_path_counts(n, np.array(keys, dtype=np.int64)).tolist()
            for (signs, positions), key, oracle in zip(cases, keys, oracles):
                formula = formulas.count_words_fixed_markers(signs, positions, n)
                yield (n, signs, positions), (formula, fibers.get(key, 0)), (oracle, oracle)

    def legal_descents():
        for n in range(1, n_max + 1):
            for n1 in range(n + 1):
                legal = [s for s in _balanced_signs(n1) if min(accumulate(s), default=0) >= 0]
                for signs, positions in product(legal, combinations(range(1, 2 * n + 1), 2 * n1)):
                    got = formulas.count_words_fixed_markers(signs, positions, n)
                    yield (n, signs, positions), got, dyck.catalan(n - n1)

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
        for word in map("".join, product("01", repeat=4)):
            ach = norton.achievable_odd_sums(word)
            st = norton.stats(word)
            if word in TABLE1_EXPECTED:
                yield word, (ach, (st.n1, st.n10, st.multiplicity)), TABLE1_EXPECTED[word]
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

    multiplicity = (
        (bits, len(norton.achievable_odd_sums(bits)), max(norton.stats(bits).multiplicity, 0))
        for n in range(1, len_max // 2 + 1)
        for bits in product((0, 1), repeat=2 * n)
    )
    totals = ((n, norton.norton_count(n), formulas.one_pair_closed(n)) for n in range(1, n_max + 1))
    return [
        _run("norton/total-n2", {"n": 2}, "7", count_n2),
        _agree(
            "norton/table-n2", {"n": 2}, "rows and stats as published", table1_rows(), "sign words"
        ),
        _agree("norton/table-n4", {"n": 4}, "16 nonzero cells", table2_cells(), "cells"),
        _agree(
            "norton/multiplicity-conjecture",
            {"len_max": len_max},
            "|achievable| == max(m, 0)",
            multiplicity,
            "sign words",
            conjecture=True,
        ),
        _agree(
            "norton/count-conjecture",
            {"n_max": n_max},
            "norton count == single-pair word count",
            totals,
            "n values",
            conjecture=True,
        ),
        _agree(
            "norton/diagonal-binomials",
            {"n_max": n_max},
            "diagonals are consecutive binomials; contribution split matches",
            diagonals(),
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
        if value < 0 and None not in caps:
            raise ValueError(f"{key} must be >= 0, got {value}")
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
