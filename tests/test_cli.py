import json
import subprocess
import sys

import pytest

from gesselwalks.cli import main


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
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n-max", "4", "--format", "csv")
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


def test_count_factor(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "4", "--factor")
    assert code == 0
    assert "2 * 17 * 23" in out


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


def test_count_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--d", "2", "--n", "9", "--method", "enum")
    assert code == 3
    assert "cap" in err.lower() or "length" in err.lower()


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


def test_oeis_fixture_comparison(capsys):
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "A135404", "--n-max", "8")
    assert code == 0
    assert out.count("ok") == 9


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
