"""Named verification suites emitting ReportEntry streams.

Each suite drives the cross-checks of one theme and aggregates them into a
few report lines; `actual` carries a short mismatch digest on failure so a
red line is diagnosable on its own.  Conjecture-status entries never gate
an exit code unless the caller promotes them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from . import dyck, enumeration, formulas, norton, walks

SUITES = ("theorem", "identities", "bijection", "diamond", "cpt", "norton", "all")


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
        out = {
            "name": self.name,
            "params": dict(self.params),
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
        }
        if timing:
            out["runtime_ms"] = round(self.runtime_ms, 3)
        return out


def _run(name, params, expected, fn, *, conjecture=False):
    t0 = time.perf_counter()
    ok, actual = fn()
    ms = (time.perf_counter() - t0) * 1000.0
    if conjecture:
        status = "conjecture-pass" if ok else "conjecture-fail"
    else:
        status = "pass" if ok else "fail"
    return ReportEntry(name, params, expected, actual, status, ms)


def _tally(mismatches, total, unit="cases"):
    if not mismatches:
        return True, f"all {total} {unit} agree"
    digest = "; ".join(str(m) for m in mismatches[:4])
    more = "" if len(mismatches) <= 4 else f" (+{len(mismatches) - 4} more)"
    return False, f"{len(mismatches)}/{total} {unit} disagree: {digest}{more}"


def suite_theorem(n_max: int = 30, enum_n_max: int = 5, dp_n_max: int = 10):
    entries = []

    def first_values():
        got = tuple(formulas.one_pair_closed(n) for n in range(1, 5))
        return got == (1, 7, 38, 187), str(got)

    entries.append(
        _run("theorem/one-pair-values", {"n": "1..4"}, "(1, 7, 38, 187)", first_values)
    )

    def assembly():
        bad = []
        for n in range(1, n_max + 1):
            lhs = formulas.one_pair_closed(n)
            rhs = formulas.bar_first_total(n) + formulas.one_first_total(n)
            if lhs != rhs:
                bad.append((n, lhs, rhs))
        return _tally(bad, n_max, "n values")

    entries.append(
        _run(
            "theorem/one-pair-assembly",
            {"n_max": n_max},
            "closed form == bar-first + one-first",
            assembly,
        )
    )

    def gessel_values():
        got = tuple(formulas.gessel_closed_form(n) for n in range(0, 5))
        return got == (1, 2, 11, 85, 782), str(got)

    entries.append(
        _run("theorem/gessel-values", {"n": "0..4"}, "(1, 2, 11, 85, 782)", gessel_values)
    )

    def engines():
        bad = []
        seq = walks.g_sequence(2, dp_n_max)
        for n in range(0, dp_n_max + 1):
            closed = formulas.gessel_closed_form(n)
            if seq[n] != closed:
                bad.append(("dp", n, seq[n], closed))
        for n in range(0, enum_n_max + 1):
            en = enumeration.count_complete_words(2, n)
            if en != formulas.gessel_closed_form(n):
                bad.append(("enum", n, en))
        return _tally(bad, dp_n_max + enum_n_max + 2, "engine pairs")

    entries.append(
        _run(
            "theorem/engine-agreement",
            {"dp_n_max": dp_n_max, "enum_n_max": enum_n_max},
            "closed == walk DP == enumeration",
            engines,
        )
    )
    return entries


def suite_identities(n_max: int = 30, bound: int = 15, seed: int = 20260826):
    entries = []

    def closed_vs_direct(direct, closed, lo):
        def body():
            bad = []
            for n in range(lo, n_max + 1):
                d_val = direct(n)
                c_val = closed(n)
                if d_val != c_val:
                    bad.append((n, d_val, c_val))
            return _tally(bad, len(range(lo, n_max + 1)), "n values")

        return body

    entries.append(
        _run(
            "identities/adjacent-sum",
            {"n": f"2..{n_max}"},
            "direct == (n-1) Catalan(n-1)",
            closed_vs_direct(
                formulas.adjacent_marker_sum_direct, formulas.adjacent_marker_sum_closed, 2
            ),
        )
    )
    entries.append(
        _run(
            "identities/even-pairs-free-sum",
            {"n": f"2..{n_max}"},
            "direct == closed",
            closed_vs_direct(
                formulas.even_marker_sum_free_direct, formulas.even_marker_sum_free_closed, 2
            ),
        )
    )
    entries.append(
        _run(
            "identities/even-pairs-reflected-sum",
            {"n": f"3..{n_max}"},
            "direct == closed",
            closed_vs_direct(
                formulas.even_marker_sum_reflected_direct,
                formulas.even_marker_sum_reflected_closed,
                3,
            ),
        )
    )

    def bar_assembly():
        bad = []
        for n in range(1, n_max + 1):
            assembled = 4 * (
                formulas.even_marker_sum_free_direct(n)
                - formulas.even_marker_sum_reflected_direct(n)
            ) + formulas.adjacent_marker_sum_direct(n)
            if assembled != formulas.bar_first_total(n):
                bad.append((n, assembled, formulas.bar_first_total(n)))
        return _tally(bad, n_max, "n values")

    entries.append(
        _run(
            "identities/bar-first-assembly",
            {"n_max": n_max},
            "4*(free - reflected) + adjacent == closed total",
            bar_assembly,
        )
    )

    def catid():
        bad = []
        total = 0
        for a in range(bound + 1):
            for b in range(bound + 1):
                for c in range(bound + 1):
                    total += 1
                    if not formulas.catalan_convolution_identity(a, b, c):
                        bad.append((a, b, c))
        return _tally(bad, total, "triples")

    entries.append(
        _run(
            "identities/triangle-convolution",
            {"bound": bound},
            "LHS == RHS for all triples",
            catid,
        )
    )

    def catid2():
        bad = []
        total = 0
        for a in range(bound + 1):
            for b in range(bound + 1):
                for c in range(b + 1):
                    total += 1
                    if not formulas.catalan_binomial_identity(a, b, c):
                        bad.append((a, b, c))
        return _tally(bad, total, "triples")

    entries.append(
        _run(
            "identities/triangle-binomial",
            {"bound": bound},
            "LHS == RHS for all triples",
            catid2,
        )
    )

    def splitsum():
        rng = random.Random(seed)
        bad = []
        trials = 25
        for t in range(trials):
            a = rng.randrange(0, 21)
            table = {
                (u, s): rng.randrange(-50, 51)
                for u in range(a + 1)
                for s in range(a + 1)
            }
            direct, split = formulas.split_triangular_sum(
                lambda u, s: table[(u, s)], a
            )
            if direct != split:
                bad.append((t, a, direct, split))
        return _tally(bad, trials, "random tables")

    entries.append(
        _run(
            "identities/triangular-split",
            {"trials": 25, "seed": seed},
            "direct == band decomposition",
            splitsum,
        )
    )
    return entries


def _marker_groups(n):
    """Group the complete d=2 words of length 2n by (signs, positions)."""
    groups = {}
    for codes in enumeration.iter_complete_words(2, n):
        signs = tuple(1 if c == 1 else -1 for c in codes if abs(c) == 1)
        positions = tuple(p for p, c in enumerate(codes, start=1) if abs(c) == 1)
        groups.setdefault((signs, positions), []).append(codes)
    return groups


def suite_bijection(len_max: int = 12):
    entries = []

    def round_trip():
        bad = []
        total = 0
        for n in range(0, len_max // 2 + 1):
            for codes in enumeration.iter_complete_words(2, n):
                total += 1
                word = dyck.GesselWord.from_codes(codes, 2)
                ml = dyck.word_to_markers(word)
                path = dyck.word_steps(word)
                back = dyck.markers_to_word(path, ml.word_positions, ml.signs)
                if back.codes() != codes:
                    bad.append(codes)
        return _tally(bad, total, "words")

    entries.append(
        _run(
            "bijection/round-trip",
            {"len_max": len_max},
            "markers_to_word(word_to_markers(w)) == w",
            round_trip,
        )
    )

    def fiber_counts():
        bad = []
        total = 0
        for n in range(0, len_max // 2 + 1):
            for (signs, positions), members in _marker_groups(n).items():
                total += 1
                ml = dyck.marker_lists(signs, positions)
                got = dyck.count_ph_paths(ml.constraint(), 2 * n - len(signs))
                if got != len(members):
                    bad.append((n, signs, positions, got, len(members)))
        return _tally(bad, total, "marker classes")

    entries.append(
        _run(
            "bijection/fiber-counts",
            {"len_max": len_max},
            "count_ph_paths == words per marker class",
            fiber_counts,
        )
    )
    return entries


def suite_diamond(n_max: int = 8):
    def body():
        bad = []
        total = 0
        for n in range(3, n_max + 1):
            for i in range(1, n - 1):
                for j in range(i + 1, n):
                    total += 1
                    if not formulas.diamond_equal(i, j, n):
                        bad.append((i, j, n))
        return _tally(bad, total, "blocks")

    return [
        _run(
            "diamond/equal-blocks",
            {"n_max": n_max},
            "four bar-first counts equal per block",
            body,
        )
    ]


def _balanced_signs(pairs):
    return [
        s
        for s in product((1, -1), repeat=2 * pairs)
        if sum(s) == 0
    ]


def suite_cpt(n_max: int = 5, n1_max: int = 2):
    entries = []

    def against_brute_and_oracle():
        bad = []
        total = 0
        for n in range(1, n_max + 1):
            groups = _marker_groups(n)
            fibers = {
                key: len(v) for key, v in groups.items()
            }
            for n1 in range(1, min(n1_max, n) + 1):
                for signs in _balanced_signs(n1):
                    for positions in combinations(range(1, 2 * n + 1), 2 * n1):
                        total += 1
                        formula = formulas.count_words_fixed_markers(signs, positions, n)
                        brute = fibers.get((tuple(signs), tuple(positions)), 0)
                        ml = dyck.marker_lists(signs, positions)
                        oracle = dyck.count_ph_paths(ml.constraint(), 2 * n - 2 * n1)
                        if not (formula == brute == oracle):
                            bad.append((n, signs, positions, formula, brute, oracle))
        return _tally(bad, total, "marker configurations")

    entries.append(
        _run(
            "cpt/ballot-product-vs-oracle",
            {"n_max": n_max, "n1_max": n1_max},
            "ballot-product sum == brute force == floor DP",
            against_brute_and_oracle,
        )
    )

    def catalan_independence():
        bad = []
        total = 0
        for n in range(1, n_max + 1):
            for n1 in range(0, n + 1):
                for signs in _balanced_signs(n1):
                    run = 0
                    legal = True
                    for s in signs:
                        run += s
                        if run < 0:
                            legal = False
                            break
                    if not legal:
                        continue
                    want = dyck.catalan(n - n1)
                    for positions in combinations(range(1, 2 * n + 1), 2 * n1):
                        total += 1
                        got = formulas.count_words_fixed_markers(signs, positions, n)
                        if got != want:
                            bad.append((n, signs, positions, got, want))
        return _tally(bad, total, "legal-descent configurations")

    entries.append(
        _run(
            "cpt/catalan-independence",
            {"n_max": n_max},
            "count == Catalan(n - pairs) whenever marker signs are a legal path",
            catalan_independence,
        )
    )
    return entries


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


def suite_norton(n_max: int = 6, pairs_len_max: int = 12):
    entries = []

    def count_n2():
        got = norton.norton_count(2)
        return got == 7, str(got)

    entries.append(_run("norton/total-n2", {"n": 2}, "7", count_n2))

    def table1():
        bad = []
        for bits in product((0, 1), repeat=4):
            word = "".join(map(str, bits))
            ach = norton.achievable_odd_sums(word)
            st = norton.stats(word)
            expected = TABLE1_EXPECTED.get(word)
            if expected is None:
                if ach:
                    bad.append((word, sorted(ach)))
            else:
                want_set, (n1, n10, m) = expected
                if ach != want_set or (st.n1, st.n10, st.multiplicity) != (n1, n10, m):
                    bad.append((word, sorted(ach), st))
        return _tally(bad, 16, "sign words")

    entries.append(
        _run("norton/table-n2", {"n": 2}, "rows and stats as published", table1)
    )

    def table2():
        got = norton.table_counts(4)
        if got == TABLE2_EXPECTED:
            return True, "all 16 cells agree"
        diff = {k: (got.get(k), TABLE2_EXPECTED.get(k)) for k in set(got) ^ set(TABLE2_EXPECTED)}
        diff.update(
            {k: (got[k], TABLE2_EXPECTED[k]) for k in got if k in TABLE2_EXPECTED and got[k] != TABLE2_EXPECTED[k]}
        )
        return False, f"cell mismatches: {diff}"

    entries.append(_run("norton/table-n4", {"n": 4}, "16 nonzero cells", table2))

    def multiplicity():
        bad = []
        total = 0
        for n in range(1, pairs_len_max // 2 + 1):
            for bits in product((0, 1), repeat=2 * n):
                total += 1
                ach = norton.achievable_odd_sums(bits)
                st = norton.stats(bits)
                if len(ach) != max(st.multiplicity, 0):
                    bad.append(("".join(map(str, bits)), len(ach), st.multiplicity))
        return _tally(bad, total, "sign words")

    entries.append(
        _run(
            "norton/multiplicity-conjecture",
            {"len_max": pairs_len_max},
            "|achievable| == max(m, 0)",
            multiplicity,
            conjecture=True,
        )
    )

    def totals():
        bad = []
        for n in range(1, n_max + 1):
            got = norton.norton_count(n)
            want = formulas.one_pair_closed(n)
            if got != want:
                bad.append((n, got, want))
        return _tally(bad, n_max, "n values")

    entries.append(
        _run(
            "norton/count-conjecture",
            {"n_max": n_max},
            "norton count == single-pair word count",
            totals,
            conjecture=True,
        )
    )

    def diagonals():
        bad = []
        for n in range(2, n_max + 1):
            rep = norton.diagonal_columns(n, max_n=n_max)
            if not (rep.binomial_pattern_ok and rep.full_contribution_ok and rep.partial_contribution_ok):
                bad.append(
                    (
                        n,
                        rep.binomial_pattern_ok,
                        rep.full_contribution_total,
                        rep.expected_full_total,
                        rep.partial_contribution_total,
                        rep.expected_partial_total,
                    )
                )
        return _tally(bad, len(range(2, n_max + 1)), "n values")

    entries.append(
        _run(
            "norton/diagonal-binomials",
            {"n_max": n_max},
            "diagonals are consecutive binomials; contribution split matches",
            diagonals,
            conjecture=True,
        )
    )
    return entries


def run_suite(name: str, **bounds) -> list[ReportEntry]:
    """Run one suite, or every suite for ``"all"``.

    A bound left out or passed as None takes the suite's default; an
    explicit value, including 0, is used as given.  Negative size bounds
    raise ValueError.
    """
    for key, value in bounds.items():
        if key != "seed" and value is not None and value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")

    def get(key, default):
        value = bounds.get(key)
        return default if value is None else value

    if name == "theorem":
        return suite_theorem(n_max=get("n_max", 30), enum_n_max=min(get("n_max", 5), 5))
    if name == "identities":
        return suite_identities(
            n_max=get("n_max", 30), bound=get("bound", 15), seed=get("seed", 20260826)
        )
    if name == "bijection":
        return suite_bijection(len_max=get("len_max", 12))
    if name == "diamond":
        return suite_diamond(n_max=get("n_max", 8))
    if name == "cpt":
        return suite_cpt(n_max=get("n_max", 5), n1_max=get("n1_max", 2))
    if name == "norton":
        return suite_norton(n_max=get("n_max", 6), pairs_len_max=get("len_max", 12))
    if name == "all":
        out = []
        for sub in ("theorem", "identities", "bijection", "diamond", "cpt", "norton"):
            out.extend(run_suite(sub, **bounds))
        return out
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
