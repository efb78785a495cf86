"""Guards on the package itself: its source and its cold start."""

import argparse
import ast
import inspect
import json
import os
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
    # only the walk DP and the enumeration frontier import numpy, on first use
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
    "oeis": ("--sequence", "--n-max", "--fetch", "--format"),
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
    assert sorted(read) == listed
