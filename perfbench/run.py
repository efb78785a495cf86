#!/usr/bin/env python3
"""Seeded end-to-end benchmark of gesselwalks, with an optional traced run.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same tree (nothing needs installing).  One client sends the workload's
requests in a closed loop, each after the previous reply: CLI workloads
call ``gesselwalks.cli.main(argv)`` in-process with stdout captured, and
``words-api`` calls the public functions.  Every reply is checked against
the pinned references (``reference.json``) or, for ``words-api``, against
the rules restated in ``wordsapi.py``.

A pass is one sweep over the seeded request list.  Passes repeat while the
next one is expected to finish within ``--seconds``; an untraced run makes
at least two, so that no single pass (on ``verify`` and ``enum`` one
request of several seconds dominates it) sets ``wall_s`` alone.

``--trace 0`` measures ``wall_s`` (mean pass), ``latency_p50_ms`` and
``latency_p90_ms`` (nearest rank, over every request of the run),
``setup_s`` (median of fresh interpreters importing the package and loading
its fixtures, from process start to ready) and ``peak_rss_mb``.  The
report line prints all of them and ``error_frac``, with units; the result
line carries the bounded ones (``END_TO_END``).  ``wall_s`` is a mean, not
a median, because on a shared host pass times split into fast and slow
phases and a median jumps between them.  The latency percentiles are not
bounded: each lands on one request class, whose run-to-run spread on a
shared host exceeds the largest usable bound (see STEADINESS.md).

``--trace 1`` splits the budget between untraced and traced passes and
reports the per-layer metrics per traced pass (see ``tracing.py``); the
spans are written to ``perfbench/out/trace-<workload>.npz``.  For each
layer L: ``L.calls`` spans (calls, or ``next()`` steps of a generator),
``L.self_s`` span time minus child span time, ``L.raised`` spans ended by
an exception (one exception crossing two wrapped calls counts twice).
``walks.*`` cell steps and the int64/object split are nominal: predicted
from the request parameters with the box ``start + length*max_up + 1`` and
the gate ``|steps|^length < 2^62``.  ``formulas.closed_terms`` counts calls
of the ``*_closed``/``*_closed_form`` functions, ``dyck.round_trips`` calls
of ``markers_to_word``, ``norton.sign_words`` calls of
``achievable_odd_sums``; ``verify.<suite>_s`` is the suite's inclusive
time and ``trace.overhead_frac`` the traced over the untraced median pass,
minus 1.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is a report with the run
metadata, ``error_frac`` and sample counts.  The exit code is 0 only when
every reply was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import workloads
import wordsapi
from tracing import EXHAUSTED, LAYERS, RAISED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBE = (
    "import gesselwalks, gesselwalks.cli\n"
    "from gesselwalks import oeis\n"
    "for s in oeis.SEQUENCE_IDS: oeis.load_fixture(s)\n"
    "print('ready', flush=True)\n"
)
SETUP_REPEATS = 9
MIN_PASSES = 2

UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "error_frac": "ratio"}
END_TO_END = {name: UNITS[name] for name in ("wall_s", "setup_s", "peak_rss_mb")}
CLOSED_TERMS = (
    "formulas.gessel_closed_form",
    "formulas.one_pair_closed",
    "formulas.adjacent_marker_sum_closed",
    "formulas.even_marker_sum_free_closed",
    "formulas.even_marker_sum_reflected_closed",
)
ROUND_TRIP = ("dyck.word_to_markers", "dyck.word_steps", "dyck.markers_to_word")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.raised": "count"})
    units.update({
        "enumeration.words": "count",
        "enumeration.words_per_s": "1/s",
        "walks.cell_steps_nominal": "count",
        "walks.ns_per_cell_step.int64": "ns",
        "walks.ns_per_cell_step.object": "ns",
        "formulas.closed_terms": "count",
        "formulas.us_per_closed_term": "us",
        "dyck.round_trips": "count",
        "dyck.us_per_round_trip": "us",
        "norton.sign_words": "count",
    })
    units.update({f"verify.{s}_s": "s" for s in workloads.VERIFY_SUITES})
    units.update({"verify.cases_checked": "count", "trace.overhead_frac": "ratio"})
    return units


# -- serving ---------------------------------------------------------------


class Served:
    """Outcome of the passes of one phase."""

    def __init__(self):
        self.pass_s: list[float] = []
        # compact, so that the harness's own memory barely depends on how many
        # requests fit in the run
        self.latency_s = array("d")
        self.class_ids = array("H")  # request class of each request served, by request id
        self.classes: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.cases = 0

    def keys(self) -> list[str]:
        names = list(self.classes)
        return [names[i] for i in self.class_ids]


def serve(requests, call, budget_s, served: Served, tracer=None, min_passes=1) -> None:
    """Replay ``requests`` in passes while the next pass should fit ``budget_s``."""
    clock = time.perf_counter
    began = clock()
    while True:
        t_pass = clock()
        for req in requests:
            if tracer is not None:
                tracer.request = len(served.class_ids)
            t0 = clock()
            try:
                problem, cases, elapsed = call(req)
            except Exception as exc:  # any escaping error is a failed request
                problem, cases, elapsed = f"{req.key}: raised {exc!r}", 0, clock() - t0
            served.class_ids.append(served.classes.setdefault(req.key, len(served.classes)))
            served.latency_s.append(elapsed)
            served.attempted += 1
            served.cases += cases
            if problem:
                served.failures.append(problem)
        served.pass_s.append(clock() - t_pass)
        done = len(served.pass_s) >= min_passes
        if done and clock() - began + statistics.median(served.pass_s) > budget_s:
            return


def cli_caller(cli, reference):
    def call(entry):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(entry.argv))
        except SystemExit as exc:  # argparse rejected the request
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
        problem, cases = workloads.check_cli(entry, rc, out.getvalue(), reference)
        return problem, cases, elapsed

    return call


def words_caller(api):
    def call(req):
        t0 = time.perf_counter()
        got = wordsapi.execute(api, req)
        elapsed = time.perf_counter() - t0
        return wordsapi.check(req, got), 0, elapsed

    return call


# -- measurements ------------------------------------------------------------


def measure_setup(repeats: int) -> float:
    """Median seconds from starting a fresh interpreter to the package being ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


def latency_by_class(served: Served) -> dict[str, float]:
    """Median latency (ms) of each request class."""
    by_class: dict[str, list[float]] = {}
    for key, lat in zip(served.keys(), served.latency_s):
        by_class.setdefault(key, []).append(lat)
    return {k: statistics.median(v) * 1e3 for k, v in sorted(by_class.items())}


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def layer_metrics(tracer, served: Served, menu_sweeps, untraced: Served) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass."""
    passes = len(served.pass_s)
    s = tracer.spans()
    span_name = np.array(tracer.names)[s["name"]]
    span_layer = np.array(tracer.layers)[s["name"]]
    out = {}
    for layer in LAYERS:
        mask = span_layer == layer
        out[f"{layer}.calls"] = int(mask.sum()) / passes
        out[f"{layer}.self_s"] = float(s["self"][mask].sum()) / passes
        out[f"{layer}.raised"] = int((s["outcome"][mask] == RAISED).sum()) / passes

    def named(*wanted):
        return np.isin(span_name, list(wanted))

    enum_self = float(s["self"][span_layer == "enumeration"].sum())
    words = int((named("enumeration.iter_complete_words.next") & (s["outcome"] != EXHAUSTED)).sum())
    out["enumeration.words"] = words / passes
    out["enumeration.words_per_s"] = words / enum_self if enum_self else 0.0

    # walks self time per request, split by the dtype predicted from the request
    walks = span_layer == "walks"
    keys = served.keys()
    per_request = np.bincount(s["request"][walks], weights=s["self"][walks],
                              minlength=len(keys))
    cell_steps = {"int64": 0, "object": 0}
    walks_s = {"int64": 0.0, "object": 0.0}
    for rid, key in enumerate(keys):
        sweep = menu_sweeps.get(key)
        if sweep is None:
            continue
        kind = "object" if workloads.int64_gate_exceeded(sweep) else "int64"
        cell_steps[kind] += workloads.nominal_cell_steps(sweep)
        walks_s[kind] += float(per_request[rid])
    out["walks.cell_steps_nominal"] = (cell_steps["int64"] + cell_steps["object"]) / passes
    for kind in ("int64", "object"):
        out[f"walks.ns_per_cell_step.{kind}"] = (
            walks_s[kind] / cell_steps[kind] * 1e9 if cell_steps[kind] else 0.0
        )

    closed = named(*CLOSED_TERMS)
    out["formulas.closed_terms"] = int(closed.sum()) / passes
    out["formulas.us_per_closed_term"] = (
        float(s["dur"][closed].sum()) / int(closed.sum()) * 1e6 if closed.any() else 0.0
    )
    trips = int(named("dyck.markers_to_word").sum())
    out["dyck.round_trips"] = trips / passes
    out["dyck.us_per_round_trip"] = (
        float(s["dur"][named(*ROUND_TRIP)].sum()) / trips * 1e6 if trips else 0.0
    )
    out["norton.sign_words"] = int(named("norton.achievable_odd_sums").sum()) / passes
    for suite in workloads.VERIFY_SUITES:
        out[f"verify.{suite}_s"] = float(s["dur"][named(f"verify.suite_{suite}")].sum()) / passes
    out["verify.cases_checked"] = served.cases / passes
    out["trace.overhead_frac"] = (
        statistics.median(served.pass_s) / statistics.median(untraced.pass_s) - 1.0
    )
    return out


# -- metadata ----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the tree's own .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload, seed, requests) -> dict:
    from gesselwalks import _accel

    classes = {}
    for req in requests:
        key = req.key
        if key in classes:
            continue
        if isinstance(req, workloads.MenuEntry):
            classes[key] = {
                "route": req.route,
                "argv": list(req.argv),
                "dp_sweep": list(req.sweep) if req.sweep else None,
                "above_int64_gate_predicted": workloads.int64_gate_exceeded(req.sweep),
            }
        else:
            classes[key] = {"route": "public API (words, dyck)", "dp_sweep": None,
                            "above_int64_gate_predicted": None}
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "numba_available": _accel.numba_available(),
        "kernels_timed": False,  # _kernels and _accel only run when numba is present
        "clients": 1,
        "loop": "closed",
        "request_classes": classes,
    }


# -- entry point ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        requests=None, reference=None, setup_repeats: int = SETUP_REPEATS,
        trace_path: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result object, report)."""
    import gesselwalks
    import gesselwalks.cli

    if workload == "words-api":
        requests = requests if requests is not None else wordsapi.make_requests(seed)
        call = words_caller(gesselwalks)
        menu_sweeps = {}
    else:
        requests = requests if requests is not None else workloads.make_cli_requests(workload, seed)
        reference = reference if reference is not None else workloads.load_reference()[workload]
        call = cli_caller(gesselwalks.cli, reference)
        menu_sweeps = {e.key: e.sweep for e in requests}

    untraced = Served()
    raw = {}
    if not trace:
        setup_s = measure_setup(setup_repeats)
        serve(requests, call, seconds, untraced, min_passes=MIN_PASSES)
        raw = {
            "wall_s": statistics.fmean(untraced.pass_s),
            "latency_p50_ms": statistics.median(untraced.latency_s) * 1e3,
            "latency_p90_ms": p90(untraced.latency_s) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = raw
        units = END_TO_END
        phases = [untraced]
    else:
        serve(requests, call, seconds / 2, untraced)
        traced = Served()
        with Tracer() as tracer:
            serve(requests, call, seconds / 2, traced, tracer)
        metrics = layer_metrics(tracer, traced, menu_sweeps, untraced)
        units = per_layer_units()
        tracer.save(trace_path or HERE / "out" / f"trace-{workload}.npz")
        phases = [untraced, traced]

    tail = p90(untraced.latency_s)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    raw["error_frac"] = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "metadata": metadata(workload, seed, requests),
        "measured": {name: {"value": v, "unit": UNITS[name]} for name, v in raw.items()},
        "passes": [p.pass_s for p in phases],
        "latency_samples": len(untraced.latency_s),
        "latency_samples_above_p90": sum(1 for v in untraced.latency_s if v > tail),
        "latency_ms_by_class": latency_by_class(untraced),
        "verify_cases_per_pass": untraced.cases / len(untraced.pass_s),
        "failures": failures[:10],
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gesselwalks" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gesselwalks

    if Path(gesselwalks.__file__).resolve().parent != SRC / "gesselwalks":
        print(f"error: imported gesselwalks from {gesselwalks.__file__}, not {SRC}", file=sys.stderr)
        return 2

    return finish(*run(args.workload, args.seed, args.seconds, bool(args.trace)))


def finish(result: dict, report: dict) -> int:
    """Print the report line and then the result line; the exit code."""
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
