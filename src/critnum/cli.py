"""Command-line front end: group tools, closures, certificates, verification."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Optional, Sequence

from . import catalog as cat
from . import verifiers as ver
from .cache import ResultCache
from .critical import (
    DEFAULT_SEED,
    cr_exhaustive,
    cr_formula,
    cr_sampled_upper,
    resolving_sequence,
    witness_lower_bound,
)
from .groups import (
    ElementSet,
    GroupValidationError,
    load_cayley,
    make_group,
    save_cayley,
)
from .sumsets import sigma
from .verifiers import DEFAULT_TRIALS

# part of every cache key; raise it whenever a command's record can change
# for the same arguments, so records of an older engine are misses.  1: the
# scan visits subsets in orbit-block order (other witnesses and counts).  2: a
# sampled `verify` run that checked no case reports "complete": false.  3:
# INEQ2.4 draws sets of three elements too (other cases and counts).
ENGINE_VERSION = 3


def _print_json(obj: dict, pretty: bool) -> None:
    if pretty:
        width = max((len(k) for k in obj), default=0)
        for k, v in obj.items():
            print(f"{k.ljust(width)}  {v}")
        print()
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _parse_set(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"--set expects comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    """An argparse type for a count of work: below 1 it would run nothing and pass."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _group_summary(g) -> dict:
    return {"name": g.name, "order": g.n, **cat.compute_flags(g)}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="critnum",
        description="Subset-sum closures and critical numbers of small finite groups.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    jobs_help = "ignored; the subset scan is serial"
    parser.add_argument("--jobs", type=int, help=jobs_help)
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # pre-subcommand value from being clobbered by the subparser default
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS, help=jobs_help)
    shared.add_argument("--no-cache", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="construct, load, or inspect groups")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p_make = group_sub.add_parser("make", parents=[shared], help="build from a descriptor, print Cayley text")
    p_make.add_argument("descriptor", help="e.g. 'dihedral(3)' or 'semidirect_cyclic(9,3,4)'")
    p_load = group_sub.add_parser("load", parents=[shared], help="validate a Cayley file and summarize")
    p_load.add_argument("path")
    p_show = group_sub.add_parser("show", parents=[shared], help="summarize a catalog group")
    p_show.add_argument("name")

    p_sigma = sub.add_parser("sigma", parents=[shared], help="subset-sum closure of a set")
    p_sigma.add_argument("--group", required=True)
    p_sigma.add_argument("--set", required=True, dest="elements")
    p_sigma.add_argument("--by-cardinality", action="store_true")

    p_cr = sub.add_parser("cr", parents=[shared], help="critical-number certificates")
    p_cr.add_argument("method", choices=["exact", "formula", "witness", "sample"])
    p_cr.add_argument("--group", required=True)
    p_cr.add_argument("--budget", type=int, default=None)
    p_cr.add_argument("--t", type=int, default=None, help="subset size for sampling")
    p_cr.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    p_cr.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_res = sub.add_parser("resolve", parents=[shared], help="resolving sequence of a set")
    p_res.add_argument("--group", required=True)
    p_res.add_argument("--set", required=True, dest="elements")

    p_ver = sub.add_parser("verify", parents=[shared], help="run a verifier")
    p_ver.add_argument("lemma_id")
    p_ver.add_argument("--group", default=None)
    p_ver.add_argument("--mode", choices=["exhaustive", "sampled"], default=None)
    # None leaves the verifier's own default, and lets a lemma refuse a flag it does not read
    p_ver.add_argument("--trials", type=_positive_int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--budget", type=int, default=None)

    p_cat = sub.add_parser("catalog", help="catalog management")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", parents=[shared], help="list catalog entries")

    return parser


def _run_cr(args, g) -> dict:
    if args.method == "exact":
        cert = cr_exhaustive(g, budget=args.budget)
    elif args.method == "formula":
        maybe = cr_formula(g)
        if maybe is None:
            return {"group_name": g.name, "n": g.n, "method": "formula", "applicable": False}
        cert = maybe
    elif args.method == "witness":
        cert = witness_lower_bound(g)
    else:
        cert = cr_sampled_upper(g, args.t, args.trials, seed=args.seed)
    return cert.to_json()


def _cached(
    args, operation: str, group_key: str, keys: Sequence[str], run: Callable[[], dict]
) -> dict:
    """The cached record for this command; on a miss, `run()`, then store it under the lock.

    The key is the command's arguments plus `ENGINE_VERSION`.  The lock,
    which creates the store, is taken only after `run()` returns, so a
    command that fails leaves no file behind.  Under the lock the key is
    looked up again: if another process stored it meanwhile, its record wins.
    """
    if args.no_cache:
        return run()
    cache = ResultCache()
    params = {k: getattr(args, k, None) for k in keys}
    params["engine"] = ENGINE_VERSION
    record = cache.get(group_key, operation, params)
    if record is None:
        record = run()
        with cache.lock():
            stored = cache.get(group_key, operation, params)
            record = cache.put(group_key, operation, params, record) if stored is None else stored
    return record


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "group":
            if args.group_command == "make":
                print(save_cayley(make_group(args.descriptor)), end="")
            elif args.group_command == "load":
                with open(args.path, encoding="utf-8") as fh:
                    g = load_cayley(fh.read())
                _print_json(_group_summary(g), args.pretty)
            else:
                _print_json(_group_summary(cat.resolve_group(args.name)), args.pretty)
            return 0

        if args.command == "catalog":
            for entry in cat.catalog_init():
                _print_json(entry.to_json(), args.pretty)
            return 0

        if args.command == "sigma":
            g = cat.resolve_group(args.group)
            s = ElementSet.from_indices(g, _parse_set(args.elements))
            clo = sigma(g, s, want_by_cardinality=args.by_cardinality)
            out = {
                "group_name": g.name,
                "set": list(s.indices()),
                "full": list(clo.full.indices()),
                "size": len(clo.full),
                "exact": clo.exact,
            }
            if clo.by_cardinality is not None:
                out["by_cardinality"] = {
                    str(r): list(es.indices()) for r, es in sorted(clo.by_cardinality.items())
                }
            _print_json(out, args.pretty)
            return 0

        if args.command == "resolve":
            g = cat.resolve_group(args.group)
            s = ElementSet.from_indices(g, _parse_set(args.elements))
            rs = resolving_sequence(g, s)
            _print_json(
                {
                    "group_name": g.name,
                    "set": list(s.indices()),
                    "ordering": list(rs.ordering),
                    "lambdas": list(rs.lambdas),
                    "critical_index": rs.critical_index,
                    "prefix_sizes": list(rs.prefix_sizes),
                },
                args.pretty,
            )
            return 0

        if args.command == "cr":
            g = cat.resolve_group(args.group)
            if args.method == "sample" and not (args.t is not None and 1 <= args.t < g.n):
                raise ValueError(f"cr sample requires --t, the subset size, from 1 to {g.n - 1}")
            record = _cached(
                args,
                f"cr {args.method}",
                args.group,
                ["group", "method", "budget", "t", "trials", "seed"],
                lambda: _run_cr(args, g),
            )
            _print_json(record, args.pretty)
            lower = record.get("lower_bound")
            upper = record.get("upper_bound")
            if lower is not None and upper is not None and lower > upper:
                return 1
            if record.get("method") == "exhaustive" and record.get("value") is None:
                return 3
            return 0

        if args.command == "verify":
            g = None if args.group is None else cat.resolve_group(args.group)
            verify = ver.prepare(
                args.lemma_id,
                g,
                mode=args.mode,
                trials=args.trials,
                seed=args.seed,
                budget=args.budget,
            )
            reports = _cached(
                args,
                f"verify {args.lemma_id}",
                args.group or "*",
                ["group", "lemma_id", "mode", "trials", "seed", "budget"],
                lambda: {"reports": [r.to_json() for r in verify()]},
            )["reports"]
            for report in reports:
                _print_json(report, args.pretty)
            if any(r.get("failures") for r in reports):
                return 1
            return 0 if all(r["complete"] for r in reports) else 3

    except (KeyError, ValueError, GroupValidationError, OSError) as exc:
        # an OSError's first argument is its errno; its text names the path
        msg = exc.args[0] if exc.args and not isinstance(exc, OSError) else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        print("run 'critnum --help' for usage", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
