"""Command-line interface.

Subcommands: compute, bound, sweep, extremal, fp. Exit codes: 0 on
success, 1 on usage or parse errors or when stdout closes before the
output is written (as in `| head`), 2 when a verification or tightness
check fails, 3 when a run is refused for exceeding its budget: a sweep's
pair count, its oracle's multiplicity vectors or its walk path's union
bits, an fp prime's admissible subsets, or a count-layer DP's bits
(compute, bound --check, extremal). A sweep's --out and --csv paths are
checked before it runs.
All numbers are printed in plain decimal.

The parser is built once per process, on the first `main` call, and
reused: building it costs far more than parsing one argv, and each parse
makes a fresh namespace.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from . import engine, fp, model, verifier, witnesses
from .bounds import applicable_bounds
from .model import (
    AT_LEAST,
    AT_MOST,
    IntegerSet,
    RepSequence,
    as_sequence,
    classify,
    parse_sequence,
    parse_set,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


def _parse_span(text: str) -> range:
    """Parse "4" or "2..5" into an inclusive integer range."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"expected N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _instance(args) -> IntegerSet | RepSequence:
    if args.r is None:
        return parse_set(args.set)
    return parse_sequence(args.set, args.r)


def _profile_json(inst: IntegerSet | RepSequence) -> dict:
    seq = as_sequence(inst)
    n, p, zero, meet = classify(seq.base)
    out = {
        "k": seq.base.k,
        "n": n,
        "p": p,
        "has_zero": bool(zero),
        "self_disjoint": not (zero or meet),
        "self_meet_zero": bool(zero) and not meet,
    }
    if seq is inst:
        out["r"] = seq.r
    return out


def _profile_line(inst: IntegerSet | RepSequence) -> str:
    prof = _profile_json(inst)
    yes = {True: "yes", False: "no"}
    r = f" r={prof['r']}" if "r" in prof else ""
    return (
        f"profile: k={prof['k']}{r} n={prof['n']} p={prof['p']} "
        f"zero={yes[prof['has_zero']]} "
        f"self_disjoint={yes[prof['self_disjoint']]} "
        f"self_meet_zero={yes[prof['self_meet_zero']]}"
    )


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_compute(args) -> int:
    inst = _instance(args)
    mode = AT_LEAST if args.mode == "at-least" else AT_MOST
    result = engine.sigma_seq(as_sequence(inst), args.alpha, mode)
    if args.json:
        _emit(
            {
                "instance": args.set.strip(),
                "r": args.r,
                "alpha": args.alpha,
                "mode": args.mode,
                "sums": result.sums,
                "size": result.size,
                "profile": _profile_json(inst),
            }
        )
    else:
        print("sums:", " ".join(str(s) for s in result.sums))
        print("size:", result.size)
        print(_profile_line(inst))
    return EXIT_OK


def _cmd_bound(args) -> int:
    inst = _instance(args)
    bounds_list = applicable_bounds(inst, args.alpha)
    size = None
    if args.check:
        size = engine.sigma_size(as_sequence(inst), args.alpha)
    if args.json:
        rows = []
        for b in bounds_list:
            row = b.to_json()
            if size is not None:
                row["tight"] = b.value == size
            rows.append(row)
        _emit(
            {
                "instance": args.set.strip(),
                "r": args.r,
                "alpha": args.alpha,
                "sigma_size": size,
                "bounds": rows,
            }
        )
        return EXIT_OK
    if size is not None:
        print(f"sigma_size: {size}")
    if not bounds_list:
        print("no applicable bounds")
    for b in bounds_list:
        line = f"{b.label()} = {b.value}"
        if size is not None:
            line += " tight" if b.value == size else " slack"
        print(line)
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise when
    its directory is missing or unwritable or it names a directory,
    without creating or truncating it."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_sweep(args) -> int:
    ks = _parse_span(args.k)
    for path in (args.out, args.csv):
        if path is not None:
            _check_writable(path)
    common = dict(
        oracle_check=args.oracle,
        workers=args.workers,
        budget=args.budget,
        collect_records=args.csv is not None,
    )
    if args.r is None:
        report = verifier.sweep_sets(args.max_abs, ks, **common)
    else:
        report = verifier.sweep_sequences(
            args.max_abs, ks, _parse_span(args.r), **common
        )
    if args.csv is not None:
        verifier.write_records_csv(report.records, args.csv)
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(
            f"instances={report.instances} checks={report.checks} "
            f"violations={report.violations} -> {args.out}"
        )
    else:
        print(payload)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_extremal(args) -> int:
    fam = witnesses.WitnessFamily(
        args.family, k=args.k, n=args.n, p=args.p, r=args.r
    )
    if args.alpha == "all":
        alphas = list(witnesses.alpha_values(fam))
    else:
        try:
            alphas = [int(args.alpha)]
        except ValueError:
            raise UsageError("--alpha expects an integer or 'all'") from None
    reports = [witnesses.check_tightness(fam, alpha) for alpha in alphas]
    failed = [rep for rep in reports if not rep.tight]
    if args.json:
        _emit(
            {
                "family": fam.family_id,
                "reports": [rep.to_json() for rep in reports],
                "all_tight": not failed,
            }
        )
    else:
        for rep in reports:
            status = "tight" if rep.tight else "NOT TIGHT"
            print(
                f"alpha={rep.alpha} size={rep.computed_size} "
                f"bound={rep.bound.value} [{rep.bound.label()}] {status}"
            )
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_fp(args) -> int:
    if args.p is not None:
        candidates = [args.p]
    elif args.p_upto < 2:
        raise UsageError(f"--p-upto {args.p_upto} admits no prime; need N >= 2")
    else:
        candidates = (q for q in range(2, args.p_upto + 1) if fp.is_prime(q))
    primes = []
    for q in candidates:  # all checked before any runs; stops at a refusal
        fp.check_prime(q)
        primes.append(q)
    reports = [fp.verify_balandraud(q) for q in primes]
    bad = sum(rep.violations for rep in reports)
    if args.json:
        _emit({"reports": [rep.to_json() for rep in reports]})
    else:
        for rep in reports:
            print(
                f"p={rep.universe['p']} instances={rep.instances} "
                f"checks={rep.checks} violations={rep.violations}"
            )
    return EXIT_VIOLATION if bad else EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: every call returns the same
    object, so callers parse with it and never modify it."""
    parser = _Parser(
        prog="subsums",
        description=(
            "Thresholded subset-sum and subsequence-sum sets, their size "
            "floors, and exhaustive verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_instance_flags(p):
        p.add_argument("--set", required=True,
                       help="set literal {a,b,...} or interval [a,b]")
        p.add_argument("--r", type=int, default=None,
                       help="uniform multiplicity; selects sequence semantics")
        p.add_argument("--alpha", required=True, type=int,
                       help="member-count threshold")
        p.add_argument("--json", action="store_true")

    p_compute = sub.add_parser("compute", help="compute a thresholded sum set")
    add_instance_flags(p_compute)
    p_compute.add_argument("--mode", choices=["at-least", "at-most"],
                           default="at-least")
    p_compute.set_defaults(func=_cmd_compute)

    p_bound = sub.add_parser("bound", help="evaluate applicable size floors")
    add_instance_flags(p_bound)
    p_bound.add_argument("--check", action="store_true",
                         help="also compute the true size and flag tightness")
    p_bound.set_defaults(func=_cmd_bound)

    p_sweep = sub.add_parser("sweep", help="exhaustively verify a universe")
    p_sweep.add_argument("--max-abs", required=True, type=int)
    p_sweep.add_argument("--k", required=True, help="subset size, N or LO..HI")
    p_sweep.add_argument("--r", default=None,
                         help="multiplicity range, N or LO..HI (sequences)")
    p_sweep.add_argument("--oracle", action="store_true",
                         help="cross-check the engine against enumeration")
    p_sweep.add_argument("--out", default=None, help="write JSON report here")
    p_sweep.add_argument("--csv", default=None,
                         help="write per-check records CSV here")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--budget", type=int,
                         default=model.DEFAULT_BUDGET)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ext = sub.add_parser("extremal",
                           help="check an extremal family for tightness")
    p_ext.add_argument("--family", required=True,
                       choices=list(witnesses.FAMILY_IDS))
    p_ext.add_argument("--k", type=int, default=None)
    p_ext.add_argument("--n", type=int, default=None)
    p_ext.add_argument("--p", type=int, default=None)
    p_ext.add_argument("--r", type=int, default=None)
    p_ext.add_argument("--alpha", default="all",
                       help="single threshold or 'all'")
    p_ext.add_argument("--json", action="store_true")
    p_ext.set_defaults(func=_cmd_extremal)

    p_fp = sub.add_parser("fp", help="verify the prime-field floor")
    group = p_fp.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, default=None)
    group.add_argument("--p-upto", type=int, default=None)
    p_fp.add_argument("--json", action="store_true")
    p_fp.set_defaults(func=_cmd_fp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        # inside the try, so a reader gone before a short output is
        # flushed is caught here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so the
        # flush at interpreter exit stays quiet too, and end with no
        # traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (OSError, UsageError, ValueError) as exc:
        # OSError: an --out or --csv path that cannot be written, e.g. in a
        # missing directory or naming one, refused before the sweep runs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
