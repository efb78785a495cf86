import argparse
import csv
import errno
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesselwalks import dyck, enumeration, formulas, norton, oeis, verify, walks
from gesselwalks import cli
from gesselwalks.cli import _factorize, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_single(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "3")
    assert code == 0
    assert out.strip() == "85"


def test_count_methods_agree(capsys):
    outs = []
    for method in ("dp", "enum", "closed"):
        code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "4", "--method", method)
        assert code == 0
        outs.append(out.strip())
    assert outs == ["782", "782", "782"]


def test_count_sequence_csv(capsys):
    for method in ("dp", "closed"):
        argv = ("count", "--d", "2", "--n-max", "4", "--format", "csv", "--method", method)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines() == ["0,1", "1,2", "2,11", "3,85", "4,782"]


def test_count_walk_endpoint(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--length", "1", "--endpoint", "1,1")
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("argv", [("--endpoint", "-1,0"), ("--endpoint=-1,0",), ("--endp", "-1,0")])
def test_a_negative_endpoint_parses_in_every_spelling(capsys, argv):
    # argparse alone reads "-1,0" after a space as an unknown option
    assert run_cli(capsys, "count", "--d", "2", "--length", "3", *argv) == (0, "0\n", "")


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


def test_count_json_string_counts(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "8004"


@pytest.fixture
def default_int_digit_limit():
    """Run a test under Python's default limit on int-to-str digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_count_prints_counts_past_the_digit_limit(capsys, default_int_digit_limit, fmt):
    # G(3579) is the first term with more than 4,300 digits
    code, out, err = run_cli(capsys, "count", "--method", "closed", "--n", "3579", "--format", fmt)
    assert code == 0, err
    text = json.loads(out)["count"] if fmt == "json" else out.strip()
    assert len(text) == 4301
    assert int(text) == formulas.gessel_closed_sequence(3579)[-1]


def test_count_factor(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "4", "--factor")
    assert code == 0
    assert "2 * 17 * 23" in out


def test_count_factor_of_one(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "0", "--factor")
    assert code == 0
    assert out.splitlines() == ["1", "  = 1"]


def test_count_n_max_json_is_always_a_list(capsys):
    for n_max in (0, 1):
        code, out, _ = run_cli(
            capsys, "count", "--d", "2", "--n-max", str(n_max), "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["count"] for row in rows] == ["1", "2"][: n_max + 1]
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "0", "--format", "json")
    assert json.loads(out) == {"d": 2, "n": 0, "count": "1"}


def test_factorize_is_bounded():
    start = time.perf_counter()
    factors, cofactor = _factorize((2**61 - 1) * (2**89 - 1))
    assert time.perf_counter() - start < 1.0
    assert factors == {}
    assert cofactor == (2**61 - 1) * (2**89 - 1)
    assert _factorize(2**2 * 999983) == ({2: 2, 999983: 1}, 1)


def test_count_factor_reports_cofactor(capsys):
    argv = ("count", "--d", "2", "--length", "41", "--endpoint=1,0", "--factor")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    product = int(data["cofactor"])
    for p, e in data["factors"].items():
        product *= int(p) ** e
    assert product == int(data["count"])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == f"  = {data['cofactor']} (unfactored)"


@pytest.mark.parametrize("mode", [("--n", "3"), ("--n-max", "3"), ("--length", "3")])
def test_count_csv_reads_as_csv_with_and_without_factor(capsys, mode):
    for extra, fields in (((), 2), (("--factor",), 3)):
        code, out, _ = run_cli(capsys, "count", "--d", "2", *mode, "--format", "csv", *extra)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows
        assert all(len(row) == fields for row in rows), rows
    # the factorization is the third field; a zero count leaves it empty
    want = {
        "--n": ["3,85,5 * 17"],
        "--n-max": ["0,1,1", "1,2,2", "2,11,11", "3,85,5 * 17"],
        "--length": ["3,0,"],
    }[mode[0]]
    assert out.splitlines() == want


def test_count_csv_factor_field_names_the_cofactor(capsys):
    argv = ("count", "--d", "2", "--length", "41", "--endpoint=1,0", "--factor")
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    data = json.loads(out)
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    ((length, count, factors),) = csv.reader(io.StringIO(out))
    assert (length, count) == ("41", data["count"])
    assert factors.endswith(f"{data['cofactor']} (unfactored)")


def test_count_flag_conflicts(capsys):
    with pytest.raises(SystemExit) as e:
        main(["count", "--d", "2", "--n", "3", "--n-max", "5"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e2:
        main(["count", "--d", "2"])
    assert e2.value.code == 2
    with pytest.raises(SystemExit) as e3:
        main(["count", "--d", "3", "--n", "2", "--method", "closed"])
    assert e3.value.code == 2


@pytest.mark.parametrize(
    "bad",
    [
        ("count", "--d", "2", "--n", "3", "--n-max", "5", "--format", "csv"),
        ("count", "--d", "2", "--n", "3", "--format", "xml"),
    ],
)
def test_a_usage_error_leaves_the_next_call_unchanged(capsys, bad):
    # main reuses one parser, so a failed parse must not leak into the next
    valid = ("count", "--d", "2", "--n-max", "4", "--format", "json")
    alone = run_cli(capsys, *valid)
    with pytest.raises(SystemExit) as e:
        main(list(bad))
    assert e.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *valid) == alone


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3", "--no-timing"),
        ("triangle", "--n", "3", "--no-timing"),
        ("oeis", "--sequence", "A135404", "--no-timing"),
        ("verify", "--suite", "diamond", "--format", "csv"),
        ("count", "--n", "3", "--method", "enum", "--cap", "14"),
        ("triangle", "--n", "3", "--cap", "14"),
    ],
)
def test_flags_only_on_the_subcommands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err or "invalid choice" in out.err


def test_count_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--d", "2", "--n", "9", "--method", "enum")
    assert code == 3
    assert "cap" in err.lower() or "length" in err.lower()


ENUM_ABOVE = str(enumeration.DEFAULT_MAX_LENGTH // 2 + 1)
CLOSED_ABOVE = str(formulas.CLOSED_MAX_N + 1)


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("count", "--method", "enum", "--n", ENUM_ABOVE), "enumeration cap"),
        # d=3 used to count n = 0..7 for 24 s before the cap fired at n = 8
        (("count", "--method", "enum", "--d", "3", "--n-max", ENUM_ABOVE), "enumeration cap"),
        (("triangle", "--kind", "profile", "--n", ENUM_ABOVE), "enumeration cap"),
        (("triangle", "--kind", "positions", "--n", ENUM_ABOVE), "enumeration cap"),
        (("count", "--method", "closed", "--n", CLOSED_ABOVE), "cap n <="),
        (("count", "--method", "closed", "--n-max", CLOSED_ABOVE), "cap n <="),
        # the first n and length past the DP work cap, pinned in test_walks;
        # --n and an origin --length sweep half the length that --n-max does
        (("count", "--d", "2", "--n", "806"), "work cap"),
        (("count", "--d", "2", "--n-max", "679"), "work cap"),
        (("count", "--d", "1", "--length", "19392"), "work cap"),
        # the first d=4 --n past the cell cap, and a d whose first layer has
        # 2^999999 cells: the pre-pass stops multiplying them past the cap
        (("count", "--d", "4", "--n", "66"), "cell cap"),
        (("count", "--d", "1000000", "--n", "1"), "cell cap"),
        # 533,638,364,926 words, hours at tens of millions of words a second
        (("count", "--method", "enum", "--d", "8", "--n", "7"), "enumeration work cap"),
        (("count", "--method", "enum", "--d", "8", "--n-max", "7"), "enumeration work cap"),
    ],
)
def test_each_route_exits_at_its_cap_before_any_work(capsys, argv, cap):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and cap in err


def test_closed_single_term_keeps_one_term_in_memory():
    # G(15000) alone takes 7.5 kB; keeping G(0..15000) peaked at 74 MB
    probe = (
        "import resource, subprocess, sys\n"
        "argv = ['count', '--method', 'closed', '--n', sys.argv[1]]\n"
        "subprocess.run([sys.executable, '-m', 'gesselwalks', *argv],"
        " stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(formulas.CLOSED_MAX_N)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 40 * 1024  # ru_maxrss is in KiB


def test_count_json_list_streams_one_row_at_a_time():
    # building the whole JSON list of G(0..6000) first peaked at 94 MB
    probe = (
        "import resource, subprocess, sys\n"
        "argv = ['count', '--method', 'closed', '--n-max', '6000', '--format', 'json']\n"
        "subprocess.run([sys.executable, '-m', 'gesselwalks', *argv],"
        " stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 40 * 1024  # ru_maxrss is in KiB


@pytest.mark.parametrize("argv", [("--n-max", "0"), ("--n-max", "12", "--factor")])
def test_count_json_list_is_the_bytes_of_json_dumps(capsys, argv):
    code, out, _ = run_cli(capsys, "count", *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)) == int(argv[1]) + 1


def test_closed_route_cap_exits_before_any_work(capsys, monkeypatch):
    above = formulas.CLOSED_MAX_N + 1
    for flag in ("--n", "--n-max"):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--method", "closed", flag, str(above))
        assert (code, out) == (3, "")
        assert f"cap n <= {formulas.CLOSED_MAX_N}" in err
        assert time.perf_counter() - t0 < 0.5
    # the cap itself still runs: checked at a small cap
    monkeypatch.setattr(formulas, "CLOSED_MAX_N", 4)
    assert run_cli(capsys, "count", "--method", "closed", "--n-max", "4")[0] == 0
    assert run_cli(capsys, "count", "--method", "closed", "--n", "5")[0] == 3


@pytest.mark.parametrize("method", ["enum", "closed"])
def test_length_rejects_other_methods(capsys, method):
    with pytest.raises(SystemExit) as e:
        main(["count", "--d", "2", "--length", "4", "--method", method])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--length" in out.err and f"--method {method}" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "-1"),
        ("count", "--d", "0", "--n", "2"),
        ("triangle", "--n", "-2"),
    ],
)
def test_library_value_errors_exit_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_triangle_profile(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--kind", "profile", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.strip() == "5,37,38,5"


def test_triangle_positions_json(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--kind", "positions", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0] == [2]
    assert data["rows"][4] == [2, 4, 3, 4, 2]


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_triangle_positions_empty(capsys, fmt):
    code, out, err = run_cli(capsys, "triangle", "--kind", "positions", "--n", "0", "--format", fmt)
    assert (code, out, err) == (0, "", "")


def test_verify_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "diamond", "--n-max", "5", "--no-timing"
    )
    assert code == 0
    assert "[     PASS]" in out
    assert "ms]" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "norton", "--n-max", "3", "--len-max", "6",
        "--format", "json",
    )
    assert code == 0
    entries = json.loads(out)
    statuses = {e["name"]: e["status"] for e in entries}
    assert statuses["norton/total-n2"] == "pass"
    assert statuses["norton/multiplicity-conjecture"] == "conjecture-pass"


def test_verify_zero_bounds_run_as_given(capsys, monkeypatch):
    suite_of = []

    def tagged(suite, run):
        def tagged_run(**bounds):
            entries = run(**bounds)
            suite_of.extend(suite for _ in entries)
            return entries

        return tagged_run

    for suite in verify.SUITES:
        name = f"suite_{suite}"
        monkeypatch.setattr(verify, name, tagged(suite, getattr(verify, name)))
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "all", "--n-max", "0", "--len-max", "0",
        "--bound", "0", "--seed", "0", "--format", "json", "--no-timing",
    )
    assert code == 0
    params = {e["name"]: e["params"] for e in json.loads(out)}
    assert params["diamond/equal-blocks"] == {"n_max": 0}
    assert params["bijection/round-trip"] == {"len_max": 0}
    assert params["identities/triangle-binomial"] == {"bound": 0}
    assert params["identities/triangular-split"]["seed"] == 0
    # no suite reports a negative case total for an empty range
    assert "all -" not in out
    # perfbench matches replies by entry name: each names its suite, none repeats
    names = [e["name"] for e in json.loads(out)]
    assert [name.split("/")[0] for name in names] == suite_of
    assert len(set(names)) == len(names) == 22


def test_verify_failure_digest_and_exit(capsys, monkeypatch):
    one_first_total = formulas.one_first_total
    monkeypatch.setattr(formulas, "one_first_total", lambda n: one_first_total(n) + 1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem", "--format", "json")
    entry = {e["name"]: e for e in json.loads(out)}["theorem/one-pair-assembly"]
    assert code == 1
    assert entry["status"] == "fail"
    shown = "; ".join(
        f"({n}, {formulas.one_pair_closed(n)}, {formulas.one_pair_closed(n) + 1})" for n in range(1, 5)
    )
    assert entry["actual"] == f"30/30 n values disagree: {shown} (+26 more)"


def _per_case_digest(cases, unit):
    """The actual text of the per-case loop: each (case, got, want) compared
    in turn, the first four mismatches shown, the rest counted."""
    bad, total = [], 0
    for total, (case, got, want) in enumerate(cases, start=1):
        if got != want:
            bad.append((case, got, want))
    if not bad:
        return f"all {total} {unit} agree"
    more = "" if len(bad) <= 4 else f" (+{len(bad) - 4} more)"
    return f"{len(bad)}/{total} {unit} disagree: {'; '.join(map(str, bad[:4]))}{more}"


@pytest.mark.parametrize("size", [3, 4096])
@pytest.mark.parametrize("flips", [(), (3,), (0, 9, 15), (1, 2, 3, 4, 11, 17), tuple(range(20))])
def test_a_failing_block_gives_the_per_case_digest(flips, size):
    import numpy as np

    # 20 cases: array rows, an empty block, array scalars, then list blocks
    want = np.arange(40).reshape(20, 2)
    got = want.copy()
    got[list(flips), 1] += 1
    pairs = list(zip(got.tolist(), want.tolist()))
    cases = [(("row", i), tuple(g), tuple(w)) for i, (g, w) in enumerate(pairs[:8])]
    cases += [(("scalar", i), g[1], w[1]) for i, (g, w) in enumerate(pairs[8:14], start=8)]
    cases += [(("set", i), frozenset(g), frozenset(w)) for i, (g, w) in enumerate(pairs[14:], 14)]

    # then, failing with the flips, a block of 4,096 rows whose only miss is
    # its last row, and rows of one column against equal-valued rows of two
    long_want = np.arange(4096)
    long_got = long_want.copy()
    long_got[-1] += bool(flips)
    shaped_want = np.array([[5, 5], [6, 6]])
    shaped_got = shaped_want[:, : 2 - bool(flips)]
    long_pairs = zip(long_got.tolist(), long_want.tolist())
    cases += [(("long", i), g, w) for i, (g, w) in enumerate(long_pairs)]
    cases += [
        (("shape", i), tuple(g), tuple(w))
        for i, (g, w) in enumerate(zip(shaped_got.tolist(), shaped_want.tolist()))
    ]

    def blocks():
        yield (lambda i: ("row", i)), got[:8], want[:8]
        yield (lambda i: ("row", 8 + i)), got[8:8], want[8:8]
        yield (lambda i: ("scalar", 8 + i)), got[8:14, 1], want[8:14, 1]
        for start in range(14, 20, size):  # the list cases, in one block or two
            yield from verify._cases(cases[start : min(start + size, 20)])
        yield (lambda i: ("long", i)), long_got, long_want
        yield (lambda i: ("shape", i)), shaped_got, shaped_want

    entry = verify._agree("check", {}, "", blocks(), "cases")
    assert entry.actual == _per_case_digest(cases, "cases")
    assert entry.failed == bool(flips)


def test_cpt_configurations_are_every_marker_configuration_in_order(monkeypatch):
    from itertools import combinations, product

    monkeypatch.setattr(verify, "DP_CHUNK", 7)
    for pairs in range(4):
        balanced = [s for s in product((1, -1), repeat=2 * pairs) if sum(s) == 0]
        assert list(map(tuple, verify._balanced_signs(pairs).tolist())) == balanced
        for n in range(pairs, 5):
            got = [
                (tuple(s), tuple(p))
                for signs, positions in verify._configurations(n, verify._balanced_signs(pairs))
                for s, p in zip(signs.tolist(), positions.tolist())
            ]
            assert got == list(product(balanced, combinations(range(1, 2 * n + 1), 2 * pairs)))


def test_identities_failure_digest_names_the_failing_triples(monkeypatch):
    from itertools import product

    # a wrong triangle value makes some triples fail in both identities; the
    # digest, over one block of every triple, is the one the per-case loop gives
    core = formulas._triangle_ext
    def wrong(m, n):
        return core(m, n) + ((m, n) == (3, 1))

    monkeypatch.setattr(formulas, "_triangle_ext", wrong)
    entries = {e.name: e for e in verify.suite_identities(n_max=2, bound=4)}
    convolution = [
        (t, formulas.catalan_convolution_identity(*t), True) for t in product(range(5), repeat=3)
    ]
    binomial = [
        ((a, b, c), formulas.catalan_binomial_identity(a, b, c), True)
        for a, b in product(range(5), repeat=2)
        for c in range(b + 1)
    ]
    for name, cases in (("convolution", convolution), ("binomial", binomial)):
        entry = entries[f"identities/triangle-{name}"]
        assert entry.failed
        assert entry.actual == _per_case_digest(cases, "triples")


def test_verify_reports_do_not_depend_on_the_block_size(monkeypatch):
    # every suite passes at bound 20, where each triangle identity checks its
    # 9,261 triples in one block
    assert all(e.status.endswith("pass") for e in verify.run_suite("all", bound=20))

    def report():
        entries = verify.run_suite("all", n_max=4, len_max=8, bound=4)
        return [(e.name, e.status, e.actual) for e in entries]

    want = report()
    monkeypatch.setattr(verify, "DP_CHUNK", 7)
    monkeypatch.setattr(norton, "CHUNK", 5)
    monkeypatch.setattr(enumeration, "CHUNK", 6)
    monkeypatch.setattr(enumeration, "_TALLY_BLOCK_BYTES", 0)
    assert report() == want


def test_verify_bijection_round_trip_runs_the_interleave_core(capsys, monkeypatch):
    interleave = dyck._interleave_ragged

    def flip_last_letter(counts, positions, signs, path):
        codes = interleave(counts, positions, signs, path)
        codes[:, -1:] *= -1
        return codes

    monkeypatch.setattr(dyck, "_interleave_ragged", flip_last_letter)
    argv = ("verify", "--suite", "bijection", "--len-max", "4", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    entries = {e["name"]: e for e in json.loads(out)}
    assert code == 1
    assert entries["bijection/round-trip"]["status"] == "fail"
    # every word but the empty one: 2 of length 2 and 11 of length 4
    first = "13/14 words disagree: (1, (1, 1), (1, -1))"
    assert entries["bijection/round-trip"]["actual"].startswith(first)
    assert entries["bijection/fiber-counts"]["status"] == "pass"


def _class_tally(n):
    """Words of length 2n per (signs, positions) marker class, by the scalar core."""
    return Counter(dyck._split(codes)[:2] for codes in enumeration.iter_complete_words(2, n))


def _classes_per_floor_row(len_max):
    """Marker classes of the complete d=2 words up to len_max, counted per
    (path length, floor row) of their floor constraints."""
    per_row = Counter()
    for n in range(len_max // 2 + 1):
        for signs, positions in _class_tally(n):
            length = 2 * n - len(signs)
            row = dyck.marker_lists(signs, positions).constraint().floor_profile(length)
            per_row[length, tuple(row)] += 1
    return per_row


def test_fiber_counts_compare_each_class_with_its_own_floor_dp():
    for n in range(6):
        blocks = enumeration._word_blocks(2, n, None)
        keys, sizes = verify._class_tally(map(verify._class_keys, blocks))
        classes = [verify._class_of(n, key) for key in keys.tolist()]
        assert [verify._class_key(*case) for case in classes] == keys.tolist()
        tally = _class_tally(n)
        assert dict(zip(((s, p) for _, s, p in classes), sizes.tolist())) == tally
        want = [
            dyck.count_ph_paths(dyck.marker_lists(s, p).constraint(), 2 * n - len(s))
            for _, s, p in classes
        ]
        assert verify._floor_path_counts(n, keys).tolist() == want == sizes.tolist()


def test_class_floor_rows_are_the_floor_profiles():
    for n in range(7):
        blocks = enumeration._word_blocks(2, n, None)
        keys, _ = verify._class_tally(map(verify._class_keys, blocks))
        seen = []
        for idx, rows in verify._floor_rows(n, keys):
            for key, row in zip(keys[idx].tolist(), rows.tolist()):
                _, signs, positions = verify._class_of(n, key)
                constraint = dyck.marker_lists(signs, positions).constraint()
                assert row == constraint.floor_profile(2 * n - len(signs)), (n, signs, positions)
                seen.append(key)
        assert sorted(seen) == keys.tolist()


@st.composite
def balanced_classes(draw):
    """(n, classes, picks): marker classes of length-2n words, n up to the
    bijection and cpt caps, each with as many plus as minus signs, and
    indices into them with repeats."""
    n_max = max(verify.SUITES["bijection"]["len_max"] // 2, verify.SUITES["cpt"]["n_max"])
    n = draw(st.integers(0, n_max))
    pairs = st.integers(0, n).flatmap(
        lambda k: st.tuples(
            st.permutations([1] * k + [-1] * k),
            st.permutations(range(1, 2 * n + 1)).map(lambda p: sorted(p[: 2 * k])),
        )
    )
    classes = draw(st.lists(pairs, min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(classes) - 1), min_size=1, max_size=30))
    return n, classes, picks


@settings(max_examples=80, deadline=None)
@given(balanced_classes(), st.integers(1, 9))
def test_floor_rows_and_counts_are_the_oracle_up_to_the_caps(drawn, chunk):
    import numpy as np

    n, classes, picks = drawn
    keys = np.array([verify._class_key(n, *classes[i]) for i in picks], dtype=np.int64)
    constraints = [dyck.marker_lists(*classes[i]).constraint() for i in picks]
    lengths = [2 * n - len(classes[i][0]) for i in picks]
    seen = []
    for idx, rows in verify._floor_rows(n, keys):
        for r, row in zip(idx.tolist(), rows.tolist()):
            assert row == constraints[r].floor_profile(lengths[r]), (n, classes[picks[r]])
            seen.append(r)
    assert sorted(seen) == list(range(len(picks)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "DP_CHUNK", chunk)  # the keys span several chunks
        got = verify._floor_path_counts(n, keys).tolist()
    assert got == [dyck.count_ph_paths(c, k) for c, k in zip(constraints, lengths)]


def test_floor_dp_runs_once_per_distinct_row_of_a_length(monkeypatch):
    calls, lengths = [], []
    count_paths, floor_path_counts = dyck._count_paths, verify._floor_path_counts

    def recording(i, j, k, floors):
        calls.append([(lengths[-1], row) for row in map(tuple, floors.tolist())])
        return count_paths(i, j, k, floors)

    def per_length(n, keys):
        lengths.append(n)
        return floor_path_counts(n, keys)

    monkeypatch.setattr(dyck, "_count_paths", recording)
    monkeypatch.setattr(verify, "_floor_path_counts", per_length)
    totals = []
    for suite in (lambda: verify.suite_bijection(12), lambda: verify.suite_cpt(5)):
        calls.clear()
        assert all(e.status == "pass" for e in suite())
        rows = [row for call in calls for row in call]
        assert len(set(rows)) == len(rows)  # no row repeated within one length
        totals.append((len(calls), len(rows)))
    # one row per marker class would be 30,945 and 1,966 rows; one DP run per
    # marker count in each chunk of 4,096 classes ran 63 calls on 949 rows
    assert totals == [(28, 611), (9, 536)]


def test_fiber_counts_report_every_class_of_a_wrong_constraint(capsys, monkeypatch):
    per_row = _classes_per_floor_row(8)
    wrong, shared = max((item for item in per_row.items() if any(item[0][1])), key=lambda x: x[1])
    assert shared > 1
    count_paths = dyck._count_paths

    def off_by_one(i, j, k, floors):
        right = count_paths(i, j, k, floors)
        return [c + ((k, tuple(row)) == wrong) for c, row in zip(right, floors.tolist())]

    monkeypatch.setattr(dyck, "_count_paths", off_by_one)
    argv = ("verify", "--suite", "bijection", "--len-max", "8", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    entries = {e["name"]: e for e in json.loads(out)}
    assert code == 1
    assert entries["bijection/round-trip"]["status"] == "pass"
    fibers = entries["bijection/fiber-counts"]
    assert fibers["status"] == "fail"
    classes = sum(per_row.values())
    assert fibers["actual"].startswith(f"{shared}/{classes} marker classes disagree: ")


def test_identities_run_each_direct_sum_once_per_n(monkeypatch):
    calls = Counter()
    adjacent, even_sums = formulas.adjacent_marker_sum_direct, formulas._even_marker_sums

    def counted_adjacent(n):
        calls["adjacent", n] += 1
        return adjacent(n)

    def counted_table(n_max):
        calls["table", n_max] += 1
        return even_sums(n_max)

    def per_n(n):
        pytest.fail("the suite built a table for one n")

    monkeypatch.setattr(formulas, "adjacent_marker_sum_direct", counted_adjacent)
    monkeypatch.setattr(formulas, "_even_marker_sums", counted_table)
    monkeypatch.setattr(formulas, "even_marker_sum_free_direct", per_n)
    monkeypatch.setattr(formulas, "even_marker_sum_reflected_direct", per_n)
    entries = verify.suite_identities(n_max=12, bound=2)
    assert all(e.status == "pass" for e in entries)
    assert calls == Counter({("table", 12): 1, **{("adjacent", n): 1 for n in range(1, 13)}})


def test_identities_time_the_shared_table_in_the_first_entry_that_reads_it(monkeypatch):
    even_sums = formulas._even_marker_sums

    def slow(n_max):
        time.sleep(0.05)
        return even_sums(n_max)

    monkeypatch.setattr(formulas, "_even_marker_sums", slow)
    entries = {e.name: e for e in verify.suite_identities(n_max=12, bound=2)}
    assert entries["identities/even-pairs-free-sum"].runtime_ms >= 50
    assert entries["identities/even-pairs-reflected-sum"].runtime_ms < 50


def test_a_wrong_direct_sum_fails_its_entry_and_the_assembly(monkeypatch):
    even_sums = formulas._even_marker_sums

    def wrong_free(n_max):
        free, reflected = even_sums(n_max)
        return [value + 1 for value in free], reflected

    monkeypatch.setattr(formulas, "_even_marker_sums", wrong_free)
    entries = {e.name: e for e in verify.suite_identities(n_max=8, bound=2)}
    failed = {name for name, e in entries.items() if e.failed}
    assert failed == {"identities/even-pairs-free-sum", "identities/bar-first-assembly"}
    assert entries["identities/even-pairs-free-sum"].actual.startswith("7/7 n values disagree")
    assert entries["identities/bar-first-assembly"].actual.startswith("8/8 n values disagree")


def test_verify_conjecture_failure_gates_only_when_strict(capsys, monkeypatch):
    norton_count = norton.norton_count
    # n = 2 stays right: norton/total-n2 pins it as a theorem entry
    monkeypatch.setattr(norton, "norton_count", lambda n: norton_count(n) + (n != 2))
    argv = ("verify", "--suite", "norton", "--n-max", "3", "--len-max", "6", "--format", "json")
    for extra, exit_code in (((), 0), (("--strict-conjectures",), 1)):
        code, out, _ = run_cli(capsys, *argv, *extra)
        statuses = {e["name"]: e["status"] for e in json.loads(out)}
        assert code == exit_code
        assert statuses["norton/count-conjecture"] == "conjecture-fail"
        assert statuses["norton/total-n2"] == "pass"


def test_verify_times_building_the_cases(monkeypatch):
    diamond_equal = formulas.diamond_equal

    def slow(i, j, n):
        time.sleep(0.001)
        return diamond_equal(i, j, n)

    monkeypatch.setattr(formulas, "diamond_equal", slow)
    (entry,) = verify.suite_diamond()
    assert entry.status == "pass"
    # 56 blocks at 1 ms each, all spent inside the entry's timer
    assert entry.runtime_ms >= 50


def test_verify_negative_bound_exit_usage(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "diamond", "--n-max", "-1")
    assert code == 2
    assert out == ""
    assert "n_max must be >= 0" in err


def _spy_on_suites(monkeypatch):
    """Replace every suite function with one that records its bounds."""
    calls = {}

    def spy(name):
        def suite(**bounds):
            calls[name] = bounds
            return []

        return suite

    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{name}", spy(name))
    return calls


@pytest.mark.parametrize(
    "argv, suite, key",
    [
        (("--suite", "all", "--n-max", "30"), "cpt", "n_max"),
        (("--suite", "bijection", "--len-max", "20"), "bijection", "len_max"),
        (("--suite", "norton", "--len-max", "40"), "norton", "len_max"),
        (("--suite", "identities", "--bound", "1000"), "identities", "bound"),
        (("--suite", "bijection", "--len-max", "16"), "bijection", "len_max"),
    ],
)
def test_verify_cap_exits_before_any_suite_runs(capsys, monkeypatch, argv, suite, key):
    calls = _spy_on_suites(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, calls) == (3, "", {})
    cap = verify.SUITES[suite][key]
    assert err == f"error: suite {suite}: {key} {argv[-1]} exceeds the cap {cap}\n"


@pytest.mark.parametrize(
    "argv", [("--suite", "diamond", "--len-max", "3"), ("--suite", "theorem", "--seed", "1")]
)
def test_verify_bound_no_suite_reads_exit_usage(capsys, monkeypatch, argv):
    calls = _spy_on_suites(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, calls) == (2, "", {})
    key = argv[2].lstrip("-").replace("-", "_")
    assert err == f"error: suite {argv[1]} takes no bound {key}\n"


def test_verify_routes_each_bound_to_the_suites_that_take_it(capsys, monkeypatch):
    calls = _spy_on_suites(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--seed", "-4", "--format", "json")
    assert (code, out) == (0, "[]\n")
    assert list(calls.items()) == [
        ("theorem", {"n_max": 3}),
        ("identities", {"n_max": 3, "seed": -4}),
        ("bijection", {}),
        ("diamond", {"n_max": 3}),
        ("cpt", {"n_max": 3}),
        ("norton", {"n_max": 3}),
    ]


def test_oeis_fixture_comparison(capsys):
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "A135404", "--n-max", "8")
    assert code == 0
    assert out.count("ok") == 9


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--d", "2", "--n-max", "-1", "--method", "dp"),
        ("count", "--d", "2", "--n-max", "-1", "--method", "enum"),
        ("count", "--d", "2", "--n-max", "-1", "--method", "closed"),
        ("oeis", "--sequence", "A135404", "--n-max", "-1"),
    ],
)
def test_negative_n_max_exit_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be >= 0" in err


@pytest.mark.parametrize("method", ["dp", "enum", "closed"])
def test_negative_n_names_the_flag(capsys, method):
    code, out, err = run_cli(capsys, "count", "--d", "2", "--n", "-1", "--method", method)
    assert code == 2
    assert out == ""
    assert err == "error: --n must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "flag, value, code",
    [("--n", "1", 3), ("--n", "0", 0), ("--length", "0", 0), ("--n-max", "0", 0)],
)
def test_count_at_a_huge_d_exits_before_the_steps_are_built(
    capsys, monkeypatch, flag, value, code
):
    # the cell cap refuses the first layer, or length 0 is answered without a
    # sweep, before the 2d steps of d coordinates each are built
    def no_steps(d):
        raise AssertionError(f"built the steps of d = {d}")

    monkeypatch.setattr(walks, "gessel_steps", no_steps)
    got, out, err = run_cli(capsys, "count", "--d", "20000", flag, value)
    if code:
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (got, out, err) == (0, "1\n", "")


HUGE_D = "99999999999999999999"
WALL_40 = ",".join(["1"] + ["0"] * 39)


@pytest.mark.parametrize(
    "argv, code, text",
    [
        # numpy writes at most 32 axes and builds at most 64; G(0) = 1 for any d
        (("--d", "33", "--n", "0"), 0, "1\n"),
        (("--d", "33", "--n-max", "0"), 0, "1\n"),
        (("--d", "33", "--length", "0"), 0, "1\n"),
        (("--d", "65", "--n", "0"), 0, "1\n"),
        (("--d", HUGE_D, "--n", "0"), 0, "1\n"),
        (("--d", "40", "--length", "0", "--endpoint", WALL_40), 0, "0\n"),
        # past the layer-1 cell cap, which every d >= 27 is; no int64 limb
        # holds a count at d >= 2^60
        (("--d", HUGE_D, "--n", "2"), 3, "cell cap of"),
        (("--d", str(2**60), "--n", "1"), 3, "cell cap of"),
        (("--d", HUGE_D, "--n-max", "2"), 3, "cell cap of"),
        # one cell per layer, so only the dimension cap refuses it
        (("--d", "40", "--length", "1", "--endpoint", WALL_40), 3, "cap of 32 dimensions"),
    ],
)
def test_count_at_any_d_exits_with_a_documented_code(capsys, argv, code, text):
    # text is the count printed, or a part of the error message
    got, out, err = run_cli(capsys, "count", *argv)
    assert got == code and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ") and text in err
    else:
        assert (out, err) == (text, "")


@pytest.mark.parametrize("d", ["1025", "1000000000", HUGE_D])
def test_enumeration_refuses_a_huge_d_before_building_its_tables(capsys, monkeypatch, d):
    # the frontier builds 2d codes and a (d, 2d) table before any test
    def no_tables(*args):
        raise AssertionError("entered _word_blocks")

    monkeypatch.setattr(enumeration, "_word_blocks", no_tables)
    code, out, err = run_cli(capsys, "count", "--d", d, "--n", "1", "--method", "enum")
    assert (code, out) == (3, "")
    assert err == f"error: d = {d} exceeds enumeration cap d <= {enumeration.DEFAULT_MAX_D}\n"


def test_enumeration_table_cap_exits_on_the_smallest_refused_d(capsys):
    # the count tables of n = 2 fit up to d = 306; d = 307 is refused
    # while they are built, before the first block
    code, out, err = run_cli(capsys, "count", "--method", "enum", "--d", "307", "--n", "2")
    assert (code, out) == (3, "")
    assert err == (
        "error: state tables at d = 307, n = 2 exceed enumeration table cap "
        f"{enumeration.DEFAULT_MAX_TABLE_BYTES:.3g} bytes\n"
    )


def test_cpt_tallies_only_the_classes_it_looks_up():
    import numpy as np

    # the marker cap bounds 1s and 1-bars alike, and a complete word holds
    # as many of each, so it keeps the words of classes with <= 2 pairs
    for n in range(7):
        capped = verify._class_tally(
            map(verify._class_keys, enumeration._word_blocks(2, n, verify.CPT_N1_MAX))
        )
        keys, sizes = verify._class_tally(
            map(verify._class_keys, enumeration._word_blocks(2, n, None))
        )
        pairs = np.array([bin(key & (1 << 2 * n) - 1).count("1") // 2 for key in keys.tolist()])
        kept = pairs <= verify.CPT_N1_MAX
        assert capped[0].tolist() == keys[kept].tolist()
        assert capped[1].tolist() == sizes[kept].tolist()


def test_oeis_n_max_below_offset_exit_usage(capsys):
    code, out, err = run_cli(capsys, "oeis", "--sequence", "A000531", "--n-max", "0")
    assert (code, out) == (2, "")
    assert err == "error: n_max must be >= 1, the offset of A000531, got 0\n"


def test_oeis_missing_fixture_exit_code(capsys, monkeypatch, tmp_path):
    from types import SimpleNamespace

    monkeypatch.setattr(oeis, "resources", SimpleNamespace(files=lambda package: tmp_path))
    code, _, err = run_cli(capsys, "oeis", "--sequence", "A135404", "--n-max", "3")
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "b135404.txt" in err


@pytest.mark.parametrize(
    "bfile, exit_code, message",
    [
        ("0 1\n1 3\n", 1, ""),
        ("0 1 extra\n", 4, "error: bad b-file line for A135404: '0 1 extra'\n"),
        ("50 12345\n", 4, "error: no index of the A135404 fixture lies in [0, 3]\n"),
    ],
)
def test_oeis_fetch_reads_a_cached_bfile_offline(capsys, bfile_cache, bfile, exit_code, message):
    path = bfile_cache / "b135404.txt"
    path.write_text(bfile)
    code, _, err = run_cli(
        capsys, "oeis", "--sequence", "A135404", "--n-max", "3", "--bfile", str(path)
    )
    assert (code, err) == (exit_code, message)


@pytest.mark.parametrize(
    "seq_id, line, message",
    [
        ("A000531", "0 1", "error: b-file index below the offset 1 of A000531: '0 1'\n"),
        ("A135404", "x y", "error: bad b-file line for A135404: 'x y'\n"),
    ],
)
def test_oeis_fetch_rejects_a_bad_cached_bfile_line(capsys, bfile_cache, seq_id, line, message):
    path = bfile_cache / f"b{seq_id[1:]}.txt"
    path.write_text(f"{line}\n2 11\n")
    code, _, err = run_cli(
        capsys, "oeis", "--sequence", seq_id, "--n-max", "3", "--bfile", str(path)
    )
    assert (code, err) == (4, message)


@pytest.mark.parametrize(
    "bfile, line",
    [("0 1\n1 999\n1 2\n2 11\n", "1 2"), ("0 1\n1 2\n1 999\n2 11\n", "1 999")],
)
def test_oeis_rejects_a_repeated_bfile_index_in_either_order(capsys, bfile_cache, bfile, line):
    # a later line must not overwrite the value an earlier one gave
    path = bfile_cache / "b135404.txt"
    path.write_text(bfile)
    code, out, err = run_cli(
        capsys, "oeis", "--sequence", "A135404", "--n-max", "2", "--bfile", str(path)
    )
    assert (code, out, err) == (4, "", f"error: repeated b-file index for A135404: {line!r}\n")


def _unreadable(path, monkeypatch):
    path.write_text("0 1\n")
    real = Path.read_text

    def denied(self, *args, **kwargs):
        if self == path:
            raise PermissionError(errno.EACCES, "Permission denied")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", denied)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path, mp: None, "cannot read b-file {}: No such file or directory"),
        (lambda path, mp: path.mkdir(), "cannot read b-file {}: not a regular file"),
        (_unreadable, "cannot read b-file {}: Permission denied"),
        (lambda path, mp: path.write_bytes(b"0 1\n1 \xff\n"), "b-file {} is not UTF-8 text"),
    ],
    ids=["missing", "directory", "unreadable", "not-utf8"],
)
def test_oeis_bfile_that_cannot_be_read_names_the_path(
    capsys, bfile_cache, monkeypatch, make, message
):
    path = bfile_cache / "b135404.txt"
    make(path, monkeypatch)
    code, out, err = run_cli(
        capsys, "oeis", "--sequence", "A135404", "--n-max", "3", "--bfile", str(path)
    )
    assert (code, out, err) == (4, "", f"error: {message.format(path)}\n")


def test_oeis_bfile_on_a_named_pipe_exits_without_reading(bfile_cache):
    # opening a pipe with no writer blocks, so the command runs in a child
    # whose timeout fails this test instead of hanging the suite
    fifo = bfile_cache / "b135404.txt"
    os.mkfifo(fifo)
    argv = ["oeis", "--sequence", "A135404", "--bfile", str(fifo)]
    out = subprocess.run(
        [sys.executable, "-m", "gesselwalks", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    message = f"error: cannot read b-file {fifo}: not a regular file\n"
    assert (out.returncode, out.stdout, out.stderr) == (4, "", message)


def test_oeis_bfile_above_the_size_cap_is_not_read(capsys, bfile_cache, monkeypatch):
    path = bfile_cache / "b135404.txt"
    path.write_text("0 1\n1 2\n")
    argv = ("oeis", "--sequence", "A135404", "--n-max", "1", "--bfile", str(path))
    monkeypatch.setattr(oeis, "MAX_BFILE_BYTES", 8)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(oeis, "MAX_BFILE_BYTES", 7)
    message = f"error: b-file {path} holds 8 bytes, above the cap of 7\n"
    assert run_cli(capsys, *argv) == (4, "", message)


def test_oeis_bfile_index_above_the_cap_exits_before_any_work(capsys, bfile_cache, monkeypatch):
    def no_route(n):
        raise AssertionError(f"computed the term at {n}")

    monkeypatch.setattr(formulas, "one_pair_closed", no_route)
    path = bfile_cache / "b000531.txt"
    path.write_text("1 1\n3000000 5\n")
    code, out, err = run_cli(
        capsys, "oeis", "--sequence", "A000531", "--n-max", "4000000", "--bfile", str(path)
    )
    message = f"error: b-file index 3000000 of A000531 exceeds cap {oeis.MAX_INDEX}\n"
    assert (code, out, err) == (3, "", message)


def test_console_script_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "gesselwalks.cli", "count", "--d", "1", "--n", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "42"


def test_package_runs_as_module():
    out = subprocess.run(
        [sys.executable, "-m", "gesselwalks", "count", "--d", "2", "--n", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "782"


def test_a_reader_closing_stdout_early_ends_the_command_quietly():
    # about 2.4 MB of digits, far more than a pipe buffer, so the command is
    # still writing when the reader goes away, as under `| head -1`
    argv = ["count", "--method", "closed", "--n-max", "2000"]
    with subprocess.Popen(
        [sys.executable, "-m", "gesselwalks", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == "1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err
    assert (code, err) == (0, "")


# The fuzz test's caps: the caps that admit slow requests are patched
# down, most to FUZZ_CAP, so that each admitted request runs in milliseconds.
FUZZ_CAP = 5
FUZZ_INTS = ("-1", "0", "1", str(FUZZ_CAP), str(FUZZ_CAP + 1), str(10**6), str(10**20))
FUZZ_STRINGS = ("1.5", "x", "")


def _fuzz_caps(monkeypatch):
    for module, name, value in (
        (enumeration, "DEFAULT_MAX_LENGTH", 2 * FUZZ_CAP),
        (enumeration, "DEFAULT_MAX_D", FUZZ_CAP),
        (enumeration, "DEFAULT_MAX_WORK", 10**5),
        (enumeration, "DEFAULT_MAX_TABLE_BYTES", 10**3),
        (oeis, "MAX_INDEX", FUZZ_CAP),
        (walks, "DEFAULT_MAX_CELLS", 10**4),
        (walks, "DEFAULT_MAX_WORK", 10**6),
    ):
        monkeypatch.setattr(module, name, value)
    suites = {
        suite: {key: None if cap is None else FUZZ_CAP for key, cap in caps.items()}
        for suite, caps in verify.SUITES.items()
    }
    monkeypatch.setattr(verify, "SUITES", suites)


@st.composite
def fuzz_argv(draw, commands, bfiles):
    """An argv over the flags of one of the subparsers commands, in parser
    order, each present or not, with values from the edge sets: one value
    in five is malformed."""
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]._actions:
        if not action.option_strings or action.option_strings[0] == "-h" or not draw(st.booleans()):
            continue
        argv.append(action.option_strings[0])
        if action.nargs == 0:  # a switch
            continue
        if action.dest == "bfile":
            values = bfiles
        elif not draw(st.integers(0, 4)):
            values = FUZZ_STRINGS
        elif action.choices:
            values = action.choices
        elif action.dest == "endpoint":
            values = ("0,0", "1,0", "-1,0", "0,0,0")
        else:
            values = FUZZ_INTS
        argv.append(draw(st.sampled_from(values)))
    return argv


def test_fuzzed_argv_exits_with_a_documented_code(capsys, monkeypatch, tmp_path):
    # argv drawn from the parser itself, so a new flag is fuzzed unasked
    (commands,) = [
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    _fuzz_caps(monkeypatch)
    bfiles = {"good": "0 1\n1 2\n2 11\n3 85\n", "bad": "0 1\nx y\n", "empty": ""}
    for stem, text in bfiles.items():
        (tmp_path / stem).write_text(text)
    paths = tuple(str(tmp_path / stem) for stem in (*bfiles, "missing")) + (str(tmp_path),)

    @settings(max_examples=150, deadline=None)
    @given(argv=fuzz_argv(commands, paths))
    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, and only that
            err = capsys.readouterr().err
            assert exc.code == 2 and err.startswith("usage: gesselwalks"), (argv, err)
            return
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err
        if code in (2, 3, 4):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    run()
