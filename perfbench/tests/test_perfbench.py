"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import wordsapi  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "count": ("count/d2-n14", "count/d2-L7-at1_0", "count/closed-n200", "count/oeis-A000531"),
    "enum": ("enum/d1-n7", "enum/d2-n5"),
    "verify": ("verify/theorem", "verify/diamond"),
}


def tiny_requests(workload):
    if workload == "words-api":
        reqs, kinds = [], set()
        for req in wordsapi.make_requests(1):
            if (req.kind, req.d) not in kinds:
                kinds.add((req.kind, req.d))
                reqs.append(req)
        return reqs
    menu = {e.key: e for e in workloads.full_menu(workload)}
    return [menu[k] for k in TINY[workload]]


def tiny_run(workload, trace, tmp_path, **kw):
    return run.run(workload, 1, 0, trace, requests=tiny_requests(workload), setup_repeats=1,
                   trace_path=tmp_path / "trace.npz", **kw)


def test_code_and_benchmark_json_name_the_same_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    result, report = tiny_run(workload, trace, tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and report["measured"]["error_frac"]["value"] == 0
    assert result["attempted"] >= len(tiny_requests(workload))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result


def test_corrupted_reference_fails_with_nonzero_exit(tmp_path, capsys):
    reference = copy.deepcopy(workloads.load_reference()["count"])
    reference["count/d2-n14"]["count"] = str(int(reference["count/d2-n14"]["count"]) + 1)
    result, report = tiny_run("count", False, tmp_path, reference=reference)
    passes = len(report["passes"][0])
    assert result["failed"] == passes and not result["correct"]  # once per pass
    assert report["measured"]["error_frac"]["value"] == pytest.approx(1 / len(TINY["count"]))
    assert run.finish(result, report) != 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == passes


def test_corrupted_word_expectation_fails(tmp_path):
    reqs = tiny_requests("words-api")
    perturbed = next(i for i, r in enumerate(reqs) if r.kind == "perturbed")
    seg, t, floor, height = reqs[perturbed].expected["bad"]
    wrong = dict(reqs[perturbed].expected, bad=(seg, t + 1, floor, height))
    reqs[perturbed] = dataclasses.replace(reqs[perturbed], expected=wrong)
    result, report = run.run("words-api", 1, 0, False, requests=reqs, setup_repeats=1)
    assert result["failed"] == len(report["passes"][0])  # once per pass


@pytest.mark.parametrize("workload", ("verify", "words-api"))
def test_traced_spans_nest_inside_their_parents(workload, tmp_path):
    tiny_run(workload, True, tmp_path)
    spans = np.load(tmp_path / "trace.npz")
    start, end = spans["start"], spans["end"]
    parent, request = spans["parent"], spans["request"]
    assert len(start) > 0 and (end >= start).all()
    child = parent >= 0
    assert child.any() and (~child).any()
    assert (start[parent[child]] <= start[child]).all()
    assert (end[child] <= end[parent[child]]).all()
    assert (request[child] == request[parent[child]]).all()
    layers = json.loads(str(spans["layers"]))
    assert set(layers) == set(LAYERS)


def test_seed_fixes_inputs_and_keeps_the_mix():
    for workload in ("count", "enum", "verify"):
        a = workloads.make_cli_requests(workload, 3)
        assert a == workloads.make_cli_requests(workload, 3)
        b = workloads.make_cli_requests(workload, 4)
        assert sorted(e.sweep or (0, 0) for e in a) == sorted(e.sweep or (0, 0) for e in b)
    w3, w4 = wordsapi.make_requests(3), wordsapi.make_requests(4)
    assert w3 == wordsapi.make_requests(3) and w3 != w4
    mix = lambda reqs: sorted((r.kind, r.d) for r in reqs)  # noqa: E731
    assert mix(w3) == mix(w4)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
