#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: the pinned reply of every menu entry.

    python3 perfbench/make_reference.py

Each reply comes from ``gesselwalks.cli.main`` and is cross-checked by a
second route before it is written:

* d=2 origin counts (``--n``, ``--n-max``, ``--factor``) against
  ``gessel_closed_form``, and the closed-form replies against the walk DP;
* d=3 origin counts and off-origin endpoint counts against a sparse walk
  DP written here (a dict of reachable points, no box, no numpy);
* ``--factor`` factorizations multiply back to the count;
* enumeration counts against the walk DP;
* each profile row's sum against G(n), and the positions-triangle total
  against ``one_pair_closed(n)``;
* every verify entry passes (or conjecture-passes) with the same case
  totals under two identities seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gesselwalks import cli, formulas, walks  # noqa: E402

import workloads  # noqa: E402

# verify case totals that any correct run of the default suites must report
KNOWN_TOTALS = (96929, 30945, 1966, 2573, 5460)


def reply(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def sparse_walk_count(d, length, end):
    ups = [tuple([1] * k + [0] * (d - k)) for k in range(1, d + 1)]
    steps = ups + [tuple(-x for x in s) for s in ups]
    layer = {(0,) * d: 1}
    for t in range(length):
        nxt = defaultdict(int)
        left = length - t - 1
        for p, v in layer.items():
            for s in steps:
                q = tuple(a + b for a, b in zip(p, s))
                # every step moves each coordinate by at most 1
                if min(q) >= 0 and max(abs(a - b) for a, b in zip(q, end)) <= left:
                    nxt[q] += v
        layer = nxt
    return layer.get(tuple(end), 0)


def argv_value(argv, flag):
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return None


def check_count(entry, got, g_dp):
    argv = entry.argv
    if entry.key.startswith("count/oeis-"):
        assert all(r["match"] and r["computed"] == r["reference"] for r in got), entry.key
        return
    rows = got if isinstance(got, list) else [got]
    d = int(argv_value(argv, "--d") or 2)
    for row in rows:
        count = int(row["count"])
        if "length" in row:
            want = sparse_walk_count(d, row["length"], tuple(row["endpoint"]))
        elif "--method" in argv:  # closed form, checked against the walk DP
            want = g_dp[row["n"]]
        elif d == 2:
            want = formulas.gessel_closed_form(row["n"])
        else:
            want = sparse_walk_count(d, 2 * row["n"], (0,) * d)
        assert count == want, (entry.key, row)
        if "factors" in row:
            prod = 1
            for p, e in row["factors"].items():
                prod *= int(p) ** e
            assert prod == count, entry.key


def check_enum(entry, got, g_dp):
    if entry.key.startswith("enum/profile-"):
        assert sum(got["rows"][0]) == formulas.gessel_closed_form(got["n"]), entry.key
    elif entry.key.startswith("enum/positions-"):
        total = sum(sum(r) for r in got["rows"])
        assert total == formulas.one_pair_closed(got["n"]), entry.key
    else:
        n = got["n"]
        assert int(got["count"]) == walks.count_confined_walks(got["d"], 2 * n), entry.key


def main():
    g_dp = walks.g_sequence(2, 200)
    reference = {}
    for workload in ("count", "enum"):
        pinned = {}
        for entry in workloads.full_menu(workload):
            got = json.loads(reply(entry.argv))
            (check_count if workload == "count" else check_enum)(entry, got, g_dp)
            pinned[entry.key] = got
            print(entry.key, "ok", flush=True)
        reference[workload] = pinned

    pinned = {}
    for entry in workloads.full_menu("verify"):
        digests = [
            workloads.verify_digest(reply(entry.argv + ("--seed", seed)))
            for seed in ("1", "987654321")
        ]
        assert digests[0] == digests[1], entry.key
        assert all(e[1] in ("pass", "conjecture-pass") for e in digests[0]), entry.key
        pinned[entry.key] = digests[0]
        print(entry.key, "ok", sum(workloads.case_totals(digests[0])), "cases", flush=True)
    totals = {t for digest in pinned.values() for t in workloads.case_totals(digest)}
    assert set(KNOWN_TOTALS) <= totals, totals
    reference["verify"] = pinned

    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("wrote", workloads.REFERENCE_PATH)


if __name__ == "__main__":
    main()
