"""Command line front end.

Exit codes: 0 success, 1 a verified check or sequence comparison failed,
2 bad arguments, 3 an enumeration/DP cap was exceeded, 4 a bundled fixture
is missing, 5 a network fetch failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
from functools import cache

from . import enumeration, formulas, oeis, verify, walks
from .exceptions import CapExceededError, FixtureError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_FIXTURE = 4
EXIT_NETWORK = 5


# Every bound a verify suite takes, in table order, is a flag of `verify`.
VERIFY_BOUNDS = tuple(dict.fromkeys(key for caps in verify.SUITES.values() for key in caps))

# Trial division stops here, so --factor does bounded work on any count.
FACTOR_TRIAL_BOUND = 10**6


def _factorize(value: int) -> tuple[dict[int, int], int]:
    """Prime factors up to FACTOR_TRIAL_BOUND, plus the unfactored cofactor.

    The cofactor is 1 when the factorisation is complete.  Otherwise it has
    no prime factor up to the bound and may be prime or composite.
    """
    out: dict[int, int] = {}
    rest = value
    p = 2
    while p * p <= rest:
        if p > FACTOR_TRIAL_BOUND:
            return out, rest
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out, 1


def _format_factors(factors: dict[int, int], cofactor: int) -> str:
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items())]
    if cofactor > 1:
        parts.append(f"{cofactor} (unfactored)")
    return " * ".join(parts) or "1"


def _json_row(args, row) -> dict:
    item = dict(row)
    item["count"] = str(item["count"])
    if args.factor and row["count"] > 0:
        factors, cofactor = _factorize(row["count"])
        item["factors"] = {str(p): e for p, e in sorted(factors.items())}
        if cofactor > 1:
            item["cofactor"] = str(cofactor)
    return item


def _emit_count(args, rows) -> None:
    # rows: list of dicts with n/length, endpoint, count; JSON is a list for
    # --n-max and a single object for --n and --length
    if args.format == "json":
        if args.n_max is None:
            print(json.dumps(_json_row(args, rows[0]), indent=2))
            return
        # the list one row at a time, in the bytes of json.dumps(list, indent=2)
        # (rows is never empty), so only one row's text is held at once
        sep = "["
        for row in rows:
            print(sep)
            print("  " + json.dumps(_json_row(args, row), indent=2).replace("\n", "\n  "), end="")
            sep = ","
        print("\n]")
        return
    for row in rows:
        if args.format == "csv":
            key = row.get("n", row.get("length"))
            print(f"{key},{row['count']}")
        else:
            print(row["count"])
        if args.factor and row["count"] > 0:
            print(f"  = {_format_factors(*_factorize(row['count']))}")


def cmd_count(args, parser) -> int:
    modes = sum(
        1 for flag in (args.n is not None, args.length is not None, args.n_max is not None) if flag
    )
    if modes != 1:
        parser.error("choose exactly one of --n, --length, --n-max")
    if args.endpoint is not None and args.length is None:
        parser.error("--endpoint requires --length")
    if args.length is not None and args.method != "dp":
        parser.error(f"--length counts walks with --method dp only, not --method {args.method}")
    for flag, value in (("--n", args.n), ("--length", args.length), ("--n-max", args.n_max)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")

    if args.length is not None:
        end = None
        if args.endpoint is not None:
            try:
                end = tuple(int(part) for part in args.endpoint.split(","))
            except ValueError:
                parser.error("--endpoint must be a comma separated integer tuple")
            if len(end) != args.d:
                parser.error(f"--endpoint needs {args.d} coordinates")
        count = walks.count_confined_walks(args.d, args.length, end=end)
        row = {"d": args.d, "length": args.length, "count": count}
        if end is not None:
            row["endpoint"] = list(end)
        _emit_count(args, [row])
        return EXIT_OK

    # --n asks for the one term n, --n-max for the rows n = 0..n_max
    single = args.n is not None
    top = args.n if single else args.n_max
    first = top if single else 0
    if args.method == "enum":
        # largest n first, so the length cap fires before any word is built
        ns = range(first, top + 1)
        counts = [enumeration.count_complete_words(args.d, n) for n in reversed(ns)][::-1]
    elif args.method == "closed":
        if args.d != 2:
            parser.error("--method closed is only available for --d 2")
        if single:
            counts = [formulas.gessel_closed_form(top)]
        else:
            counts = formulas.gessel_closed_sequence(top)
    elif single:
        counts = [walks.count_confined_walks(args.d, 2 * top)]
    else:
        counts = walks.g_sequence(args.d, top)
    rows = [{"d": args.d, "n": n, "count": c} for n, c in enumerate(counts, start=first)]
    _emit_count(args, rows)
    return EXIT_OK


def cmd_triangle(args, parser) -> int:
    if args.kind == "profile":
        rows = [list(enumeration.profile_triangle_row(args.n))]
    else:
        tri = enumeration.marker_position_triangle(args.n)
        rows = enumeration.triangle_rows(tri, args.n)
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "n": args.n, "rows": rows}, indent=2))
    elif args.format == "csv":
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        width = max((len(str(v)) for row in rows for v in row), default=0)
        for row in rows:
            print(" ".join(str(v).rjust(width) for v in row))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    bounds = {
        key: getattr(args, key) for key in VERIFY_BOUNDS if getattr(args, key) is not None
    }
    entries = verify.run_suite(args.suite, **bounds)

    if args.format == "json":
        print(
            json.dumps(
                [e.to_dict(timing=not args.no_timing) for e in entries], indent=2
            )
        )
    else:
        for e in entries:
            tag = {
                "pass": "PASS",
                "fail": "FAIL",
                "conjecture-pass": "CONJ-PASS",
                "conjecture-fail": "CONJ-FAIL",
            }[e.status]
            params = " ".join(f"{k}={v}" for k, v in e.params.items())
            line = f"[{tag:>9}] {e.name}"
            if params:
                line += f" ({params})"
            line += f": {e.actual}"
            if not args.no_timing:
                line += f" [{e.runtime_ms:.1f} ms]"
            print(line)
    failed = any(e.failed for e in entries)
    if args.strict_conjectures:
        failed = failed or any(e.conjecture_failed for e in entries)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_oeis(args, parser) -> int:
    rows = oeis.compare(args.sequence, args.n_max, fetch=args.fetch)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        print("sequence,index,computed,reference,match")
        for row in rows:
            print(
                f"{row['sequence']},{row['index']},{row['computed']},"
                f"{row['reference']},{str(row['match']).lower()}"
            )
    else:
        for row in rows:
            mark = "ok" if row["match"] else "MISMATCH"
            print(
                f"{row['sequence']} n={row['index']} computed={row['computed']} "
                f"reference={row['reference']} {mark}"
            )
    return EXIT_OK if all(row["match"] for row in rows) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesselwalks",
        description="Count confined lattice walks and the words encoding them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count complete words / confined walks")
    p_count.add_argument("--d", type=int, default=2, help="dimension (default 2)")
    p_count.add_argument("--n", type=int, help="count complete words of length 2n")
    p_count.add_argument(
        "--length", type=int, help="count confined walks with this many steps"
    )
    p_count.add_argument(
        "--endpoint",
        help="comma separated endpoint for --length mode (default origin)",
    )
    p_count.add_argument(
        "--n-max", type=int, dest="n_max", help="emit the sequence for n = 0..n_max"
    )
    p_count.add_argument(
        "--method",
        choices=("dp", "enum", "closed"),
        default="dp",
        help="counting engine (default dp)",
    )
    p_count.add_argument(
        "--factor", action="store_true", help="show factorization (trial division up to 10^6)"
    )

    p_tri = sub.add_parser("triangle", help="print a distribution triangle")
    p_tri.add_argument("--kind", choices=("profile", "positions"), default="profile")
    p_tri.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    for key in VERIFY_BOUNDS:
        readers = [
            f"{suite} (any integer)" if caps[key] is None else f"{suite} (cap {caps[key]})"
            for suite, caps in verify.SUITES.items()
            if key in caps
        ]
        p_verify.add_argument(
            "--" + key.replace("_", "-"), type=int, dest=key, help="read by " + ", ".join(readers)
        )
    p_verify.add_argument(
        "--strict-conjectures",
        action="store_true",
        help="treat conjecture failures like check failures",
    )
    p_verify.add_argument("--format", choices=("plain", "json"), default="plain")
    p_verify.add_argument(
        "--no-timing", action="store_true", help="leave the run times out of the report"
    )

    p_oeis = sub.add_parser("oeis", help="compare against a reference sequence")
    p_oeis.add_argument("--sequence", required=True, choices=sorted(oeis.SEQUENCE_IDS))
    p_oeis.add_argument("--n-max", type=int, dest="n_max", default=10)
    p_oeis.add_argument(
        "--fetch",
        action="store_true",
        help="fetch the reference b-file instead of using the bundled fixture",
    )

    for p in (p_count, p_tri, p_oeis):
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    return parser


# main builds the parser on its first call and reuses it after
_parser = cache(build_parser)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # counts are printed in full: G(3579) already has 4,301 digits
        sys.set_int_max_str_digits(0)
    parser = _parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": cmd_count,
        "triangle": cmd_triangle,
        "verify": cmd_verify,
        "oeis": cmd_oeis,
    }
    try:
        return handlers[args.command](args, parser)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIXTURE
    except ValueError as exc:  # after FixtureError, which is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (urllib.error.URLError, TimeoutError) as exc:
        print(f"error: network fetch failed: {exc}", file=sys.stderr)
        return EXIT_NETWORK


if __name__ == "__main__":
    sys.exit(main())
