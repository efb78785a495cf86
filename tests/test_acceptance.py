"""Acceptance checks, one test per criterion.

Each test funnels through _report so the terminal summary carries one
PASS/FAIL line per criterion; a failing criterion still fails its test the
normal way.  All checks are exact integer comparisons.  The criteria that a
verify suite covers run that suite at its default bounds and pin the case
totals it reports.
"""

from functools import cache
from itertools import product

from gesselwalks import verify
from gesselwalks.cli import main
from gesselwalks.dyck import ballot_count, ballot_count_dp
from gesselwalks.oeis import compare
from gesselwalks.verify import TABLE1_EXPECTED, TABLE2_EXPECTED
from gesselwalks import norton

RESULTS = []


def _report(num, name, ok, detail=""):
    RESULTS.append((num, name, ok, detail))
    assert ok, f"[acceptance {num:02d}] {name}: FAIL ({detail})"


@cache
def _suite(name):
    return tuple(getattr(verify, f"suite_{name}")())


def _suite_check(name, pinned):
    """Run a verify suite at its default bounds: every entry must pass and
    each entry named in ``pinned`` must report exactly that ``actual``."""
    entries = _suite(name)
    bad = [
        (e.name, e.status, e.actual)
        for e in entries
        if e.status != "pass" or pinned.get(e.name, e.actual) != e.actual
    ]
    missing = sorted(set(pinned) - {e.name for e in entries})
    if bad or missing:
        return False, f"mismatches: {bad}, missing: {missing}"
    return True, "; ".join(pinned.values())


# (name, status, actual) of every verify entry at the default bounds, in report order
SPEC = (
    ("theorem/one-pair-values", "pass", "(1, 7, 38, 187)"),
    ("theorem/one-pair-assembly", "pass", "all 30 n values agree"),
    ("theorem/gessel-values", "pass", "(1, 2, 11, 85, 782)"),
    ("theorem/engine-agreement", "pass", "all 17 engine pairs agree"),
    ("identities/adjacent-sum", "pass", "all 29 n values agree"),
    ("identities/even-pairs-free-sum", "pass", "all 29 n values agree"),
    ("identities/even-pairs-reflected-sum", "pass", "all 28 n values agree"),
    ("identities/bar-first-assembly", "pass", "all 30 n values agree"),
    ("identities/triangle-convolution", "pass", "all 4096 triples agree"),
    ("identities/triangle-binomial", "pass", "all 2176 triples agree"),
    ("identities/triangular-split", "pass", "all 25 random tables agree"),
    ("bijection/round-trip", "pass", "all 96929 words agree"),
    ("bijection/fiber-counts", "pass", "all 30945 marker classes agree"),
    ("diamond/equal-blocks", "pass", "all 56 blocks agree"),
    ("cpt/ballot-product-vs-oracle", "pass", "all 1966 marker configurations agree"),
    ("cpt/catalan-independence", "pass", "all 2573 legal-descent configurations agree"),
    ("norton/total-n2", "pass", "7"),
    ("norton/table-n2", "pass", "all 16 sign words agree"),
    ("norton/table-n4", "pass", "all 16 cells agree"),
    ("norton/multiplicity-conjecture", "conjecture-pass", "all 5460 sign words agree"),
    ("norton/count-conjecture", "conjecture-pass", "all 6 n values agree"),
    ("norton/diagonal-binomials", "conjecture-pass", "all 5 n values agree"),
)


def test_verify_spec_at_default_bounds():
    got = tuple((e.name, e.status, e.actual) for suite in verify.SUITES for e in _suite(suite))
    assert got == SPEC


def test_criterion_01_profile_triangle_rows(capsys):
    expected = {
        0: "1",
        1: "1,1",
        2: "2,7,2",
        3: "5,37,38,5",
        4: "14,177,390,187,14",
    }
    bad = []
    for k, want in expected.items():
        code = main(["triangle", "--kind", "profile", "--n", str(k), "--format", "csv"])
        out = capsys.readouterr().out.strip()
        if code != 0 or out != want:
            bad.append((k, out))
    _report(1, "profile triangle rows k=0..4", not bad, f"mismatches: {bad}" if bad else "")


def test_criterion_02_closed_vs_dp_vs_enumeration():
    ok, detail = _suite_check("theorem", {
        "theorem/gessel-values": "(1, 2, 11, 85, 782)",
        "theorem/engine-agreement": "all 17 engine pairs agree",
    })
    _report(2, "closed form == walk DP (n<=10) == enumeration (n<=5)", ok, detail)


def test_criterion_03_single_pair_closed_form():
    ok, detail = _suite_check("theorem", {
        "theorem/one-pair-values": "(1, 7, 38, 187)",
        "theorem/one-pair-assembly": "all 30 n values agree",
    })
    _report(3, "single-pair closed form assembly n<=30", ok, detail)


def test_criterion_04_partial_sum_closed_forms():
    ok, detail = _suite_check("identities", {
        "identities/adjacent-sum": "all 29 n values agree",
        "identities/even-pairs-free-sum": "all 29 n values agree",
        "identities/even-pairs-reflected-sum": "all 28 n values agree",
        "identities/bar-first-assembly": "all 30 n values agree",
    })
    _report(4, "partial sums direct == closed n<=30", ok, detail)


def test_criterion_05_ballot_formula_vs_dp():
    bad = sum(
        1
        for i in range(13)
        for j in range(13)
        for k in range(25)
        if ballot_count(i, j, k) != ballot_count_dp(i, j, k)
    )
    _report(5, "ballot closed form == DP oracle (i,j<=12, k<=24)", bad == 0, f"{bad} bad")


def test_criterion_06_bijection_round_trip():
    ok, detail = _suite_check("bijection", {
        "bijection/round-trip": "all 96929 words agree",
        "bijection/fiber-counts": "all 30945 marker classes agree",
    })
    _report(6, "marker bijection round-trip + fiber counts (length <= 12)", ok, detail)


def test_criterion_07_fixed_marker_formula():
    # 1966 + 2573 = 4539 configurations
    ok, detail = _suite_check("cpt", {
        "cpt/ballot-product-vs-oracle": "all 1966 marker configurations agree",
        "cpt/catalan-independence": "all 2573 legal-descent configurations agree",
    })
    _report(7, "fixed-marker count == brute force; Catalan independence", ok, detail)


def test_criterion_08_diamond_blocks():
    ok, detail = _suite_check("diamond", {"diamond/equal-blocks": "all 56 blocks agree"})
    _report(8, "four-way equal blocks 1<=i<j<=n-1, n<=8", ok, detail)


def test_criterion_09_triangle_identities():
    ok, detail = _suite_check("identities", {
        "identities/triangle-convolution": "all 4096 triples agree",
        "identities/triangle-binomial": "all 2176 triples agree",
        "identities/triangular-split": "all 25 random tables agree",
    })
    _report(9, "triangle identities exhaustive A,B,C <= 15", ok, detail)


def test_criterion_10_norton_tables_and_conjectures():
    ok = norton.norton_count(2) == 7
    for bits in product((0, 1), repeat=4):
        word = "".join(map(str, bits))
        ach = norton.achievable_odd_sums(word)
        want = TABLE1_EXPECTED.get(word)
        if want is None:
            ok = ok and not ach
        else:
            st = norton.stats(word)
            ok = ok and ach == want[0] and (st.n1, st.n10, st.multiplicity) == want[1]
    ok = ok and norton.table_counts(4) == TABLE2_EXPECTED
    conj = [e for e in _suite("norton") if "conjecture" in e.status]
    conj_ok = all(e.status == "conjecture-pass" for e in conj)
    detail = "conjectures: " + ", ".join(
        f"{e.name.split('/')[1]}={'pass' if e.status == 'conjecture-pass' else 'FAIL'}"
        for e in conj
    )
    _report(10, "sign-word tables exact; conjecture suite reported", ok and conj_ok, detail)


def test_criterion_11_oeis_cross_checks():
    bad = []
    for seq_id in ("A135404", "A000531", "A045720"):
        rows = compare(seq_id, 10)
        if not rows or not all(r["match"] for r in rows):
            bad.append(seq_id)
    _report(11, "vendored b-file prefixes match computed terms (n<=10)", not bad, str(bad))
