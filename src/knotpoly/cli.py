"""Command-line interface.

Subcommands:
    poly     invariants (R, D, P, Y, e_P, e_Y) of a braid closure or front
    front    tb / maslov of a front
    jaeger   state-sum certificate for a diagram
    lj       state-sum certificate for a front
    check    bound report (front bounds or braid bound)
    sum      connected-sum invariants
    search   enumerate braid closures and report

Exit codes: 0 success, 1 a verification failed (identity or bound), 2 usage
or parse error (`ParseError`, `DiagramError`), 3 an I/O error (cache, config
or output file), 4 an internal error (an engine invariant broke or an engine
raised any other `ValueError`; a bug, not a verdict on the input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Optional

from .diagram import ParseError, DiagramError, parse_braid, braid_closure, connected_sum
from .front import parse_front, classical_invariants
from .skein import SkeinCache, full_invariants, CACHE_ENV_VAR
from .jaeger import jaeger_both_sides, lj_both_sides
from .inequalities import check_front_bounds, mfw_check, CSV_HEADER
from .harness import SearchConfig, load_config, search, _flag


def _make_cache(args) -> SkeinCache:
    """The command's cache; main() closes it on every exit path."""
    path = getattr(args, "cache", None) or os.environ.get(CACHE_ENV_VAR) or None
    cache = SkeinCache(path)
    args.open_caches.append(cache)
    return cache


def _emit(args, payload: dict, csv_lines: Optional[list[str]] = None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and csv_lines is not None:
        text = "\n".join(csv_lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _input_diagram(args):
    if getattr(args, "braid", None):
        return braid_closure(parse_braid(args.braid))
    if getattr(args, "front", None):
        return parse_front(args.front).morsify()
    raise ParseError("provide --braid or --front")


def _cmd_poly(args) -> int:
    cache = _make_cache(args)
    d = _input_diagram(args)
    res = full_invariants(d, cache)
    _emit(args, res.to_json())
    return 0


def _cmd_front(args) -> int:
    if not args.front:
        raise ParseError("provide --front")
    f = parse_front(args.front)
    _emit(args, classical_invariants(f).to_json())
    return 0


def _cmd_jaeger(args) -> int:
    cache = _make_cache(args)
    d = _input_diagram(args)
    cert = jaeger_both_sides(d, cache)
    _emit(args, cert.to_json())
    return 0 if cert.equal else 1


def _cmd_lj(args) -> int:
    if not args.front:
        raise ParseError("provide --front")
    cache = _make_cache(args)
    cert = lj_both_sides(parse_front(args.front), cache)
    _emit(args, cert.to_json())
    return 0 if cert.equal else 1


def _cmd_check(args) -> int:
    cache = _make_cache(args)
    if args.front:
        rep = check_front_bounds(parse_front(args.front), cache)
    elif args.braid:
        rep = mfw_check(parse_braid(args.braid), cache)
    else:
        raise ParseError("provide --braid or --front")
    _emit(args, rep.to_json(), csv_lines=[CSV_HEADER, rep.csv_row()])
    return 0 if rep.ok() else 1


def _cmd_sum(args) -> int:
    cache = _make_cache(args)
    words = args.braid or []
    if not words:
        raise ParseError("provide at least one --braid")
    if args.copies < 1:
        raise ParseError("--copies must be at least 1")
    diagrams = [braid_closure(parse_braid(w)) for w in words]
    total = diagrams[0]
    for d in diagrams[1:]:
        total = connected_sum(total, d)
    for _ in range(args.copies - 1):
        base = diagrams[0] if len(diagrams) == 1 else None
        if base is None:
            raise ParseError("--copies > 1 needs exactly one --braid")
        total = connected_sum(total, base)
    res = full_invariants(total, cache)
    _emit(args, res.to_json())
    return 0


def _cmd_search(args) -> int:
    cfg = SearchConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for field in fields(cfg):  # each flag's dest is its field's name
        value = getattr(args, field.name)
        if value is not None:
            setattr(cfg, field.name, value)
    cfg.validate()
    reports = search(cfg)
    flagged = sum(1 for r in reports if _flag(cfg.predicate, r))
    sys.stdout.write(f"rows={len(reports)} flagged={flagged}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knotpoly",
                                  description="exact skein polynomials for "
                                              "braid closures and fronts")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fronts=True, braids=True):
        if braids:
            p.add_argument("--braid", help="braid word, e.g. 'braid 2: 1 1 1'")
        if fronts:
            p.add_argument("--front", help="front word, e.g. 'front: L 1; R 1'")
        p.add_argument("--cache", help="persistent cache file")
        p.add_argument("--out", help="write output to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    common(sub.add_parser("poly", help="skein invariants"))
    common(sub.add_parser("front", help="front invariants"), braids=False)
    common(sub.add_parser("jaeger", help="diagram state-sum certificate"))
    common(sub.add_parser("lj", help="front state-sum certificate"), braids=False)
    common(sub.add_parser("check", help="bound report"))

    p_sum = sub.add_parser("sum", help="connected-sum invariants")
    p_sum.add_argument("--braid", action="append", help="repeatable")
    p_sum.add_argument("--copies", type=int, default=1)
    p_sum.add_argument("--cache")
    p_sum.add_argument("--out")
    p_sum.add_argument("--format", choices=("json", "csv"), default="json")

    p_se = sub.add_parser("search", help="enumerate closures and report")
    p_se.add_argument("--config", help="key=value config file")
    p_se.add_argument("--max-strands", dest="max_strands", type=int)
    p_se.add_argument("--max-letters", dest="max_letters", type=int)
    p_se.add_argument("--dedup", choices=("none", "cyclic+inverse"))
    p_se.add_argument("--predicate", choices=("ep_lt_ey", "bound_violation", "all"))
    p_se.add_argument("--out")
    p_se.add_argument("--jobs", type=int)
    p_se.add_argument("--format", dest="fmt", choices=("json", "csv"))
    p_se.add_argument("--cache")
    return top


_COMMANDS = {
    "poly": _cmd_poly,
    "front": _cmd_front,
    "jaeger": _cmd_jaeger,
    "lj": _cmd_lj,
    "check": _cmd_check,
    "sum": _cmd_sum,
    "search": _cmd_search,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.open_caches = []
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, DiagramError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3
    except (AssertionError, ValueError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    finally:
        for cache in args.open_caches:
            cache.close()


if __name__ == "__main__":
    sys.exit(main())
