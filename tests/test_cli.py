import json
import subprocess
import sys
import time
from collections import Counter

import pytest

from gesselwalks import dyck, enumeration, formulas, norton, verify
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


def test_verify_bijection_round_trip_runs_the_interleave_core(capsys, monkeypatch):
    interleave = dyck._interleave

    def flip_last_letter(path, positions, signs):
        codes = interleave(path, positions, signs)
        return codes[:-1] + tuple(-c for c in codes[-1:])

    monkeypatch.setattr(dyck, "_interleave", flip_last_letter)
    argv = ("verify", "--suite", "bijection", "--len-max", "4", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    entries = {e["name"]: e for e in json.loads(out)}
    assert code == 1
    assert entries["bijection/round-trip"]["status"] == "fail"
    # every word but the empty one: 2 of length 2 and 11 of length 4
    first = "13/14 words disagree: (1, (1, 1), (1, -1))"
    assert entries["bijection/round-trip"]["actual"].startswith(first)
    assert entries["bijection/fiber-counts"]["status"] == "pass"


def _classes_per_constraint(len_max):
    """Marker classes of the complete d=2 words up to len_max, counted per
    (path_positions, floors, length) floor constraint."""
    classes = set()
    for n in range(len_max // 2 + 1):
        for codes in enumeration.iter_complete_words(2, n):
            signs, positions, _ = dyck._split(codes)
            classes.add((n, signs, positions))
    per_key = Counter()
    for n, signs, positions in classes:
        ml = dyck.marker_lists(signs, positions)
        per_key[ml.path_positions, ml.floors, 2 * n - len(signs)] += 1
    return per_key


def test_fiber_counts_run_the_floor_dp_once_per_constraint(monkeypatch):
    count_ph_paths = dyck.count_ph_paths
    keys = []

    def counted(constraint, length):
        keys.append((constraint.positions, constraint.floors, length))
        return count_ph_paths(constraint, length)

    monkeypatch.setattr(dyck, "count_ph_paths", counted)
    entries = {e.name: e for e in verify.suite_bijection(8)}
    per_key = _classes_per_constraint(8)
    classes = sum(per_key.values())
    assert Counter(keys) == Counter(dict.fromkeys(per_key, 1))
    # fewer DP runs than classes: classes share constraints
    assert len(keys) < classes
    fibers = entries["bijection/fiber-counts"]
    assert (fibers.status, fibers.actual) == ("pass", f"all {classes} marker classes agree")


def test_fiber_counts_report_every_class_of_a_wrong_constraint(capsys, monkeypatch):
    per_key = _classes_per_constraint(8)
    wrong, shared = per_key.most_common(1)[0]
    assert shared > 1
    count_ph_paths = dyck.count_ph_paths

    def off_by_one(constraint, length):
        right = count_ph_paths(constraint, length)
        return right + ((constraint.positions, constraint.floors, length) == wrong)

    monkeypatch.setattr(dyck, "count_ph_paths", off_by_one)
    argv = ("verify", "--suite", "bijection", "--len-max", "8", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    entries = {e["name"]: e for e in json.loads(out)}
    assert code == 1
    assert entries["bijection/round-trip"]["status"] == "pass"
    fibers = entries["bijection/fiber-counts"]
    assert fibers["status"] == "fail"
    classes = sum(per_key.values())
    assert fibers["actual"].startswith(f"{shared}/{classes} marker classes disagree: ")


DIRECT_SUMS = (
    "adjacent_marker_sum_direct",
    "even_marker_sum_free_direct",
    "even_marker_sum_reflected_direct",
)


def test_identities_run_each_direct_sum_once_per_n(monkeypatch):
    calls = Counter()

    def counted(name, direct):
        def run(n):
            calls[name, n] += 1
            return direct(n)

        return run

    for name in DIRECT_SUMS:
        monkeypatch.setattr(formulas, name, counted(name, getattr(formulas, name)))
    entries = verify.suite_identities(n_max=12, bound=2)
    assert all(e.status == "pass" for e in entries)
    assert calls == Counter({(name, n): 1 for name in DIRECT_SUMS for n in range(1, 13)})


def test_a_wrong_direct_sum_fails_its_entry_and_the_assembly(monkeypatch):
    free = formulas.even_marker_sum_free_direct
    monkeypatch.setattr(formulas, "even_marker_sum_free_direct", lambda n: free(n) + 1)
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


def test_oeis_n_max_below_offset_exit_usage(capsys):
    code, out, err = run_cli(capsys, "oeis", "--sequence", "A000531", "--n-max", "0")
    assert (code, out) == (2, "")
    assert err == "error: n_max must be >= 1, the offset of A000531, got 0\n"


def test_oeis_missing_fixture_exit_code(capsys, monkeypatch, tmp_path):
    from types import SimpleNamespace

    from gesselwalks import oeis

    monkeypatch.setattr(oeis, "resources", SimpleNamespace(files=lambda package: tmp_path))
    code, _, err = run_cli(capsys, "oeis", "--sequence", "A135404", "--n-max", "3")
    assert code == 4
    assert "fixtures.json" in err


@pytest.mark.parametrize(
    "bfile, exit_code, message",
    [
        ("0 1\n1 3\n", 1, ""),
        ("0 1 extra\n", 4, "error: bad b-file line for A135404: '0 1 extra'\n"),
        ("50 12345\n", 4, "error: no index of the A135404 fixture lies in [0, 3]\n"),
    ],
)
def test_oeis_fetch_reads_a_cached_bfile_offline(capsys, bfile_cache, bfile, exit_code, message):
    (bfile_cache / "b135404.txt").write_text(bfile)
    code, _, err = run_cli(capsys, "oeis", "--sequence", "A135404", "--n-max", "3", "--fetch")
    assert (code, err) == (exit_code, message)


@pytest.mark.parametrize(
    "seq_id, line, message",
    [
        ("A000531", "0 1", "error: b-file index below the offset 1 of A000531: '0 1'\n"),
        ("A135404", "x y", "error: bad b-file line for A135404: 'x y'\n"),
    ],
)
def test_oeis_fetch_rejects_a_bad_cached_bfile_line(capsys, bfile_cache, seq_id, line, message):
    (bfile_cache / f"b{seq_id[1:]}.txt").write_text(f"{line}\n2 11\n")
    code, _, err = run_cli(capsys, "oeis", "--sequence", seq_id, "--n-max", "3", "--fetch")
    assert (code, err) == (4, message)


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
