"""Request menus, seeded request lists and response checks for the CLI workloads.

Every CLI request is one entry of a fixed menu, and every menu entry has a
pinned expected response in ``reference.json`` (written by
``make_reference.py``).  A seed only shuffles the order, draws the
off-origin endpoints of the ``count`` workload from per-length menus (the
DP cost does not depend on the endpoint) and picks the ``--seed`` of the
identities suite, so every seed runs the same mix of size classes.

Why each workload exists:

* ``count``: the walk DP (``walks``) does most of the work, on both sides
  of the int64 -> object dtype switch, plus the closed-form, ``--factor``
  and ``oeis`` routes; enumeration, words and dyck do none.
* ``enum``: the brute-force enumeration DFS does nearly all the work.
* ``verify``: the six suites; words and dyck dominate (bijection suite),
  norton and formulas carry the rest.
* ``words-api`` (see ``wordsapi.py``): thousands of small calls on the
  validating public word/path API.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("count", "enum", "verify", "words-api")


@dataclass(frozen=True)
class MenuEntry:
    """One CLI request class.

    ``sweep`` is the walk-DP sweep the route runs, as (d, steps), derived
    from the request parameters; None when the route runs no DP.
    """

    key: str
    argv: tuple[str, ...]
    route: str
    sweep: tuple[int, int] | None = None


def _cli(key, route, *argv, sweep=None):
    return MenuEntry(key, tuple(argv) + ("--format", "json"), route, sweep)


def _count_fixed() -> list[MenuEntry]:
    out = []
    for d, ns in ((2, (14, 15, 16, 17, 30, 60, 100, 200)), (3, (10, 12, 13, 25))):
        for n in ns:
            out.append(
                _cli(f"count/d{d}-n{n}", "walks.count_confined_walks",
                     "count", "--d", str(d), "--n", str(n), sweep=(d, 2 * n))
            )
    out += [
        _cli("count/d2-nmax100", "walks.g_sequence",
             "count", "--d", "2", "--n-max", "100", sweep=(2, 200)),
        _cli("count/closed-n200", "formulas.gessel_closed_form",
             "count", "--method", "closed", "--n", "200"),
        _cli("count/closed-nmax199", "formulas.gessel_closed_form",
             "count", "--method", "closed", "--n-max", "199"),
        _cli("count/d2-n13-factor", "walks.count_confined_walks",
             "count", "--d", "2", "--n", "13", "--factor", sweep=(2, 26)),
    ]
    for seq in ("A135404", "A000531", "A045720"):
        out.append(_cli(f"count/oeis-{seq}", "oeis.compare",
                        "oeis", "--sequence", seq, "--n-max", "13"))
    return out


# Off-origin endpoints per walk length; each seed draws two per length.  The
# lengths straddle the int64 gate (|steps|^L < 2^62 holds up to L = 30), and
# the menus include the far corner of the DP box and unreachable points.
ENDPOINTS = {
    7: ((1, 0), (3, 2), (7, 7), (2, 3)),
    30: ((2, 0), (10, 4), (30, 30), (6, 6)),
    31: ((1, 1), (11, 5), (31, 31), (3, 0)),
    45: ((5, 2), (15, 15), (45, 45), (1, 0)),
    80: ((2, 2), (20, 10), (80, 80), (40, 0)),
}
ENDPOINTS_PER_LENGTH = 2


def _endpoint_entry(length, point) -> MenuEntry:
    x, y = point
    return _cli(f"count/d2-L{length}-at{x}_{y}", "walks.count_confined_walks",
                "count", "--d", "2", "--length", str(length), f"--endpoint={x},{y}",
                sweep=(2, length))


def _enum_menu() -> list[MenuEntry]:
    out = [
        _cli(f"enum/d{d}-n{n}", "enumeration.count_complete_words",
             "count", "--d", str(d), "--n", str(n), "--method", "enum")
        for d, n in ((2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (1, 7))
    ]
    out += [
        _cli(f"enum/profile-n{n}", "enumeration.profile_triangle_row",
             "triangle", "--kind", "profile", "--n", str(n))
        for n in (6, 7)
    ]
    out.append(_cli("enum/positions-n7", "enumeration.marker_position_triangle",
                    "triangle", "--kind", "positions", "--n", "7"))
    return out


VERIFY_SUITES = ("theorem", "identities", "bijection", "diamond", "cpt", "norton")


def _verify_menu() -> list[MenuEntry]:
    return [
        _cli(f"verify/{s}", "verify.run_suite", "verify", "--suite", s,
             # the theorem suite runs one DP sweep: g_sequence(2, 10)
             sweep=(2, 20) if s == "theorem" else None)
        for s in VERIFY_SUITES
    ]


def full_menu(workload: str) -> list[MenuEntry]:
    """Every request class a seed can draw for a CLI workload."""
    if workload == "count":
        return _count_fixed() + [
            _endpoint_entry(length, p) for length, pts in ENDPOINTS.items() for p in pts
        ]
    if workload == "enum":
        return _enum_menu()
    if workload == "verify":
        return _verify_menu()
    raise ValueError(f"no CLI menu for workload {workload!r}")


def make_cli_requests(workload: str, seed: int) -> list[MenuEntry]:
    """The seeded request list (one pass) of a CLI workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "count":
        reqs = _count_fixed()
        for length, pts in ENDPOINTS.items():
            reqs += [_endpoint_entry(length, p) for p in rng.sample(pts, ENDPOINTS_PER_LENGTH)]
    elif workload == "enum":
        reqs = _enum_menu()
    elif workload == "verify":
        # run_suite maps seed 0 to its default, so draw from 1 upwards
        ident_seed = str(rng.randrange(1, 2**31))
        reqs = [
            replace(e, argv=e.argv + ("--seed", ident_seed)) if e.key == "verify/identities" else e
            for e in _verify_menu()
        ]
    else:
        raise ValueError(f"no CLI menu for workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def int64_gate_exceeded(sweep: tuple[int, int] | None) -> bool | None:
    """Predicted from parameters: whether the DP leaves int64, by the gate
    |steps|^length < 2^62 with the 2d Gessel steps."""
    if sweep is None:
        return None
    d, length = sweep
    return (2 * d) ** length >= 2**62


def nominal_cell_steps(sweep: tuple[int, int]) -> int:
    """Predicted from parameters: box cells times steps, with the box
    start + length * max_up + 1 per axis (start 0, max_up 1 for Gessel steps)."""
    d, length = sweep
    return (length + 1) ** d * length


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def verify_digest(stdout: str) -> list[list[str]]:
    """(name, status, actual) of every entry of a ``verify --format json`` reply."""
    return [[e["name"], e["status"], e["actual"]] for e in json.loads(stdout)]


_TOTAL = re.compile(r"^all (\d+) ")


def case_totals(digest) -> list[int]:
    """Case totals a verify reply reports as checked ("all N <unit> agree")."""
    return [int(m.group(1)) for m in (_TOTAL.match(actual) for _, _, actual in digest) if m]


def check_cli(entry: MenuEntry, rc: int, stdout: str, reference: dict) -> tuple[str | None, int]:
    """Return (problem or None, verify cases checked) for one CLI response."""
    if rc != 0:
        return f"{entry.key}: exit code {rc}", 0
    want = reference.get(entry.key)
    if want is None:
        return f"{entry.key}: no pinned reference", 0
    try:
        if entry.key.startswith("verify/"):
            got = verify_digest(stdout)
            bad = [e for e in got if e[1] not in ("pass", "conjecture-pass")]
            if bad:
                return f"{entry.key}: entries not passing: {bad}", 0
            cases = sum(case_totals(got))
        else:
            got = json.loads(stdout)
            cases = 0
    except (ValueError, KeyError, TypeError) as exc:
        return f"{entry.key}: unparsable reply ({exc})", 0
    if got != want:
        return f"{entry.key}: reply differs from the pinned reference", 0
    return None, cases
