"""Guards on the package itself: its source and its cold start."""

import argparse
import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gesselwalks
from gesselwalks import cli, verify

SRC = Path(gesselwalks.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so every check in the library must raise
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def run_fresh(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


COLD_START = """
import contextlib, io, json, sys

loaded = []
import gesselwalks, gesselwalks.cli
from gesselwalks import oeis
for s in oeis.SEQUENCE_IDS:
    oeis.load_fixture(s)
loaded.append("numpy" in sys.modules)

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        gesselwalks.cli.main(["count", "--method", "closed", "--n", "10"]),
        gesselwalks.cli.main(["verify", "--suite", "diamond"]),
    ]
loaded.append("numpy" in sys.modules)

word = gesselwalks.GesselWord.parse("2 -1 2 1 -2 -2", 2)
ml = gesselwalks.word_to_markers(word)
back = gesselwalks.markers_to_word(gesselwalks.word_steps(word), ml.word_positions, ml.signs)
loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "complete": gesselwalks.is_complete(word.codes(), 2),
                  "round_trip": back.codes() == word.codes(), "numpy": loaded}))
"""


def test_cold_start_leaves_numpy_unloaded():
    # the import, the fixtures, closed-form counts, the diamond suite and the
    # word API run without numpy
    out = run_fresh("-c", COLD_START)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report == {
        "codes": [0, 0], "complete": True, "round_trip": True, "numpy": [False, False, False]
    }


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("count", "--n", "4", "--method", "enum"), "782\n"),
        (("triangle", "--n", "3"), " 5 37 38  5\n"),
        (("count", "--d", "2", "--n", "15"), "836838395382645\n"),
    ],
)
def test_numpy_routes_from_a_fresh_interpreter(argv, expected):
    # each of these is the first numpy use in its process
    out = run_fresh("-m", "gesselwalks", *argv)
    assert (out.returncode, out.stdout, out.stderr) == (0, expected, "")


def _tracer_layers():
    """The benchmark tracer's LAYERS, read from its source without importing it."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    (value,) = [
        node.value
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    return ast.literal_eval(value)


def test_cli_import_loads_every_traced_layer():
    # the tracer imports only gesselwalks.cli, then wraps the functions of
    # each layer module it finds in sys.modules: a layer that cli stopped
    # importing up front would fail the traced benchmark in a fresh process
    layers = _tracer_layers()
    out = run_fresh("-c", "import json, sys, gesselwalks.cli; print(json.dumps([*sys.modules]))")
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert layers
    assert [layer for layer in layers if f"gesselwalks.{layer}" not in loaded] == []


TRACED = """
import contextlib, importlib.util, io, json, sys

import gesselwalks.cli

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = gesselwalks.cli.main(["count", "--d", "2", "--n", "5"])
word = gesselwalks.GesselWord.parse("2 -1 2 1 -2 -2", 2)
tracer.uninstall()
print(json.dumps({
    "code": code, "out": out.getvalue(), "codes": word.codes(), "layers": tracing.LAYERS,
    "wrapped": sorted(set(tracer.layers)),
    "spanned": sorted({tracer.layers[i] for i in tracer.name}),
}))
"""


def test_benchmark_tracer_wraps_every_layer_after_a_bare_cli_import():
    # the tracer as the traced benchmark runs it, in a fresh process: it
    # imports gesselwalks.cli only, then reads every layer from sys.modules
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    out = run_fresh("-c", TRACED, str(path))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert (report["code"], report["out"], report["codes"]) == (0, "8004\n", [2, -1, 2, 1, -2, -2])
    assert report["layers"] == list(_tracer_layers())
    assert report["wrapped"] == sorted(report["layers"])
    assert report["spanned"] == ["cli", "walks", "words"]


IMPORT_RUNS = """
import json, sys

bare = set(sys.modules)
layers = json.loads(sys.argv[1])


def ran():
    # a layer that has not run holds only the dunders its spec set; reading
    # the dict through object.__getattribute__ does not run it
    out = []
    for layer in layers:
        module = sys.modules.get(f"gesselwalks.{layer}")
        names = () if module is None else object.__getattribute__(module, "__dict__")
        if any(not key.startswith("__") for key in names):
            out.append(layer)
    return out


import gesselwalks
report = {"package": ran()}
import gesselwalks.cli
from gesselwalks import oeis
for s in oeis.SEQUENCE_IDS:
    oeis.load_fixture(s)
report["probe"] = ran()
report["stdlib"] = sorted({"dataclasses", "fractions"} & (set(sys.modules) - bare))
print(json.dumps(report))
"""


def test_import_and_fixture_load_run_no_route():
    # the benchmark's setup probe: `import gesselwalks.cli` runs cli itself
    # and the fixture load runs oeis; every route stays unrun
    out = run_fresh("-c", IMPORT_RUNS, json.dumps(_tracer_layers()))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"package": [], "probe": ["cli", "oeis"], "stdlib": []}


def test_package_namespace_lists_and_binds_every_public_name():
    assert set(gesselwalks.__all__) <= set(dir(gesselwalks))
    with pytest.raises(AttributeError, match="no_such_name"):
        gesselwalks.no_such_name
    star = {}
    exec("from gesselwalks import *", star)
    assert [name for name in gesselwalks.__all__ if name not in star] == []
    assert all(star[name] is getattr(gesselwalks, name) for name in gesselwalks.__all__)


def _row_code_fits(n):
    """Whether verify's base-(n + 1) code of a floor row of length-2n words,
    at most 2n + 1 floors in [0, n], fits an int64."""
    return (n + 1) ** (2 * n + 1) < 2**63


def test_floor_row_codes_fit_an_int64_at_the_suite_caps():
    assert _row_code_fits(8) and not _row_code_fits(9)
    caps = {
        "bijection": verify.SUITES["bijection"]["len_max"] // 2,
        "cpt": verify.SUITES["cpt"]["n_max"],
    }
    assert {suite: n for suite, n in caps.items() if not _row_code_fits(n)} == {}


def test_suite_table_bounds_are_the_suite_parameters():
    # defaults live only in the signatures, and every parameter has a route
    for name, caps in verify.SUITES.items():
        params = inspect.signature(getattr(verify, f"suite_{name}")).parameters
        assert set(caps) == set(params), name


# The counting routes; the walk DP and the enumeration oracle stay independent
# of every other one, so their agreement with the closed forms is a check.
ROUTES = {"formulas", "dyck", "words", "norton", "walks", "enumeration"}


def _package_imports(path):
    """Modules of this package that the source at path imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gesselwalks" if node.level else "", node.module]))
            found += [f"{module}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in found if name.startswith("gesselwalks.")}


@pytest.mark.parametrize("module", ["walks", "enumeration", "norton"])
def test_dp_and_oracle_import_no_other_route(module):
    imported = _package_imports(SRC / f"{module}.py")
    assert "exceptions" in imported
    assert imported & ROUTES == set()


# Every defaulted or keyword-only parameter of a public function: a caller can
# set each one, so a new knob has to be added here on purpose.
PUBLIC_KNOBS = {
    "is_gessel_word": ("d",),
    "is_complete": ("d",),
    "letter_profile": ("d",),
    "count_confined_walks": ("end",),
}


def test_public_functions_take_only_the_pinned_knobs():
    found = {}
    for name in gesselwalks.__all__:
        obj = getattr(gesselwalks, name)
        if not inspect.isfunction(obj):
            continue
        knobs = tuple(
            p.name
            for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty
            or p.kind in (p.KEYWORD_ONLY, p.VAR_POSITIONAL, p.VAR_KEYWORD)
        )
        if knobs:
            found[name] = knobs
    assert found == PUBLIC_KNOBS


# Every flag of every subcommand, in parser order: a new flag has to be
# added here on purpose.
CLI_FLAGS = {
    "count": ("--d", "--n", "--length", "--endpoint", "--n-max", "--method", "--factor", "--format"),
    "triangle": ("--kind", "--n", "--format"),
    "verify": (
        "--suite", "--n-max", "--bound", "--seed", "--len-max", "--strict-conjectures",
        "--format", "--no-timing",
    ),
    "oeis": ("--sequence", "--n-max", "--bfile", "--format"),
}


def test_cli_takes_only_the_pinned_flags():
    (commands,) = [
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        name: tuple(
            flag
            for action in sub._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for name, sub in commands.items()
    }
    assert found == CLI_FLAGS


def _environ_reads(path):
    """Names of the variables the source at path reads with os.environ.get,
    whether spelled out or held in a module-level string constant."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.environ.get":
            arg = node.args[0]
            names.add(arg.value if isinstance(arg, ast.Constant) else constants[arg.id])
    return names


def test_readme_lists_every_environment_variable():
    read = set().union(*(_environ_reads(path) for path in SRC.glob("*.py")))
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("\n## Environment variables\n")[1].split("\n## ")[0]
    listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]
    # the package reads none: a new variable is an option, added here on purpose
    assert sorted(read) == listed == []


def test_every_private_function_has_a_caller_in_the_library():
    # a private twin that only the tests call would be a second implementation
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if isinstance(stmt, ast.FunctionDef) and re.fullmatch(r"_[^_].*", stmt.name):
                defined.append((path.name, stmt.name))
            for node in ast.walk(stmt):
                name = node.name if isinstance(node, ast.alias) else getattr(node, "id", None)
                name = getattr(node, "attr", name)
                if name != own:
                    read.add(name)
    assert defined
    assert [f"{module}:{name}" for module, name in defined if name not in read] == []


def test_only_exceptions_states_an_integer_range_rule():
    # checked_at_least is the one statement of "<name> must be >= <low>"; a
    # pasted copy would drift from it.  oeis's offset rule names the
    # sequence, so it keeps its own message.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ValueError"
            ):
                continue
            text = "".join(str(c.value) for c in ast.walk(node) if isinstance(c, ast.Constant))
            if "must be >=" in text:
                found.append(f"{path.name}:{text}")
    assert found == [
        "exceptions.py: must be >= , got ",
        "oeis.py:n_max must be >= , the offset of , got ",
    ]


def test_only_the_state_tables_and_the_row_estimate_run_the_prefix_test():
    # _extensions is the one statement of the prefix test: the frontier
    # reads it through the state tables, and the work cap's estimate
    # probes with it
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "_extensions":
                    callers.add(f"{path.name}:{stmt.name}")
    assert callers == {"enumeration.py:_state_tables", "enumeration.py:_estimated_rows"}


def test_library_imports_no_network_module():
    # b-files come from the package data or a path the user names
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("urllib", "http", "socket")
            ]
    assert found == []


CAP_TABLE_HEADER = "| d | largest `--n` | time, peak RSS | largest `--n-max` | time, peak RSS |"


def _bound(cell):
    """(9695, "work") from a README cell such as "9,695 (work)"."""
    value, cap = re.fullmatch(r"([\d,]+) \((\w+) cap\)", cell).groups()
    return int(value.replace(",", "")), cap


def test_readme_cap_table_is_the_tested_one():
    from test_walks import CAP_TABLE

    readme = (SRC.parent.parent / "README.md").read_text()
    lines = readme.split(f"\n{CAP_TABLE_HEADER}\n")[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        d, n, _, n_max, _ = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((int(d), *_bound(n), *_bound(n_max)))
    assert rows == CAP_TABLE


VERIFY_TABLE_HEADER = "| suite | flag | default | cap | time at the cap |"


def test_readme_verify_bounds_are_the_suite_table():
    readme = (SRC.parent.parent / "README.md").read_text()
    lines = readme.split(f"\n{VERIFY_TABLE_HEADER}\n")[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        suite, flag, default, cap, _ = (cell.strip() for cell in line.strip("|").split("|"))
        key = re.fullmatch(r"`--([a-z-]+)`", flag).group(1).replace("-", "_")
        leading = re.match(r"\d+", cap)
        rows.append((suite, key, int(default), leading and int(leading.group())))
    want = [
        (suite, key, inspect.signature(getattr(verify, f"suite_{suite}")).parameters[key].default, cap)
        for suite, caps in verify.SUITES.items()
        for key, cap in caps.items()
    ]
    assert rows == want
