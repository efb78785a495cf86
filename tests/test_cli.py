import json
import subprocess
import sys
import time

import pytest

from gesselwalks import formulas, verify
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
    "argv",
    [
        ("count", "--n", "3", "--no-timing"),
        ("triangle", "--n", "3", "--no-timing"),
        ("oeis", "--sequence", "A135404", "--no-timing"),
        ("verify", "--suite", "diamond", "--format", "csv"),
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
    argv = ("count", "--d", "2", "--n", "7", "--method", "enum", "--cap", "12")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "cap 12" in err


@pytest.mark.parametrize("method", ["enum", "closed"])
def test_length_rejects_other_methods(capsys, method):
    with pytest.raises(SystemExit) as e:
        main(["count", "--d", "2", "--length", "4", "--method", method])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--length" in out.err and f"--method {method}" in out.err


@pytest.mark.parametrize("method", ["dp", "closed"])
def test_cap_rejects_other_methods(capsys, method):
    with pytest.raises(SystemExit) as e:
        main(["count", "--d", "2", "--n", "5", "--cap", "4", "--method", method])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--cap" in out.err and f"--method {method}" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3", "--method", "enum", "--cap", "-1"),
        ("triangle", "--n", "3", "--cap", "-1"),
        ("triangle", "--kind", "positions", "--n", "3", "--cap", "-1"),
    ],
)
def test_negative_cap_exit_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --cap must be >= 0, got -1\n")


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


def test_verify_zero_bounds_run_as_given(capsys):
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
    from gesselwalks.oeis import FIXTURE_DIR_ENV

    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    code, _, err = run_cli(capsys, "oeis", "--sequence", "A135404", "--n-max", "3")
    assert code == 4
    assert "fixtures.json" in err


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
