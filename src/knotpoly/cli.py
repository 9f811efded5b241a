"""Command-line interface.

Subcommands:
    poly     invariants (R, D, P, Y, e_P, e_Y) of a braid closure or front;
             a braid closure goes to the algebra engines, a front to skein
    front    tb / maslov of a front
    jaeger   state-sum certificate for a diagram
    lj       state-sum certificate for a front
    check    bound report (front bounds on skein, the braid bound on the
             algebra engines)
    sum      connected-sum invariants, on skein
    search   enumerate braid closures and report; rows on the algebra
             engines, flagged rows re-verified on skein

Exit codes: 0 success, 1 a verification failed (identity, bound, or a
flagged search row that the skein engines do not confirm), 2 usage
or parse error (`ParseError`, `DiagramError`, a braid word over the strand
or letter ceiling, or an input with too many crossings for the skein
recursion, named by its crossing count), 3 an I/O
error (cache, config or output file, or a malformed cache record), 4 an
internal error (any other exception, such as a broken engine invariant; a
bug, not a verdict on the input).
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
from .skein import SkeinCache, full_invariants
from .jaeger import jaeger_both_sides, lj_both_sides
from .inequalities import check_front_bounds, mfw_check, CSV_HEADER
from .harness import (DEDUPS, FORMATS, PREDICATES, SearchConfig,
                      VerificationError, load_config, search, _flag)

CACHE_ENV_VAR = "KNOTPOLY_CACHE"


def _cache_path(path: Optional[str]) -> Optional[str]:
    """The cache file: the one given, else `KNOTPOLY_CACHE`, else none."""
    return path or os.environ.get(CACHE_ENV_VAR) or None


def _make_cache(args) -> SkeinCache:
    """The command's cache; main() closes it on every exit path."""
    args.skein_cache = SkeinCache(_cache_path(args.cache))
    return args.skein_cache


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _input_diagram(args):
    if args.braid:
        return braid_closure(parse_braid(args.braid))
    if args.front:
        return parse_front(args.front).morsify()
    raise ParseError("provide --braid or --front")


def _input_front(args):
    if not args.front:
        raise ParseError("provide --front")
    return parse_front(args.front)


def _crossing_count(args) -> int:
    """Crossings of the command's input, which has already parsed."""
    if getattr(args, "front", None):
        return parse_front(args.front).crossing_count()
    braids = getattr(args, "braid", None) or []
    if isinstance(braids, str):
        braids = [braids]
    copies = getattr(args, "copies", 1)
    return copies * sum(len(parse_braid(w).letters) for w in braids)


def _cmd_poly(args) -> int:
    cache = _make_cache(args)
    if args.braid:
        from . import algebra  # on first use: see `inequalities`
        res = algebra.braid_invariants(parse_braid(args.braid), cache)
    else:
        res = full_invariants(_input_diagram(args), cache)
    _emit(args, _json(res.to_json()))
    return 0


def _cmd_front(args) -> int:
    f = _input_front(args)
    _emit(args, _json(classical_invariants(f).to_json()))
    return 0


def _cmd_jaeger(args) -> int:
    cache = _make_cache(args)
    d = _input_diagram(args)
    cert = jaeger_both_sides(d, cache)
    _emit(args, _json(cert.to_json()))
    return 0 if cert.equal else 1


def _cmd_lj(args) -> int:
    cache = _make_cache(args)
    cert = lj_both_sides(_input_front(args), cache)
    _emit(args, _json(cert.to_json()))
    return 0 if cert.equal else 1


def _cmd_check(args) -> int:
    cache = _make_cache(args)
    if args.front:
        rep = check_front_bounds(parse_front(args.front), cache)
    elif args.braid:
        rep = mfw_check(parse_braid(args.braid), cache)
    else:
        raise ParseError("provide --braid or --front")
    if args.format == "csv":
        _emit(args, f"{CSV_HEADER}\n{rep.csv_row()}\n")
    else:
        _emit(args, _json(rep.to_json()))
    return 0 if rep.ok() else 1


def _cmd_sum(args) -> int:
    cache = _make_cache(args)
    words = args.braid or []
    if not words:
        raise ParseError("provide at least one --braid")
    if args.copies < 1:
        raise ParseError("--copies must be at least 1")
    if args.copies > 1 and len(words) > 1:
        raise ParseError("--copies > 1 needs exactly one --braid")
    diagrams = [braid_closure(parse_braid(w)) for w in words] * args.copies
    total = diagrams[0]
    for d in diagrams[1:]:
        total = connected_sum(total, d)
    res = full_invariants(total, cache)
    _emit(args, _json(res.to_json()))
    return 0


def _cmd_search(args) -> int:
    cfg = SearchConfig()
    if args.config:
        cfg = load_config(args.config)
    for field in fields(cfg):  # each flag's dest is its field's name
        value = getattr(args, field.name)
        if value is not None:
            setattr(cfg, field.name, value)
    cfg.cache = _cache_path(cfg.cache)
    reports = search(cfg)
    flagged = sum(1 for r in reports if _flag(cfg.predicate, r))
    sys.stdout.write(f"rows={len(reports)} flagged={flagged}\n")
    return 0


_FLAGS = {
    "braid": {"help": "braid word, e.g. 'braid 2: 1 1 1'"},
    "front": {"help": "front word, e.g. 'front: L 1; R 1'"},
    "cache": {"help": f"persistent cache file (default: ${CACHE_ENV_VAR})"},
    "out": {"help": "write output to this path"},
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knotpoly",
                                  description="exact skein polynomials for "
                                              "braid closures and fronts")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary, flags):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        return p

    command("poly", "skein invariants", ("braid", "front", "cache", "out"))
    command("front", "front invariants", ("front", "out"))
    command("jaeger", "diagram state-sum certificate", ("braid", "front", "cache", "out"))
    command("lj", "front state-sum certificate", ("front", "cache", "out"))
    p_check = command("check", "bound report", ("braid", "front", "cache", "out"))
    p_check.add_argument("--format", choices=FORMATS, default="json")

    p_sum = command("sum", "connected-sum invariants", ("cache", "out"))
    p_sum.add_argument("--braid", action="append", help="repeatable")
    p_sum.add_argument("--copies", type=int, default=1)

    # every flag defaults to None, so that it overrides only what it names
    p_se = command("search", "enumerate closures and report", ("cache", "out"))
    p_se.add_argument("--config", help="key=value config file")
    p_se.add_argument("--max-strands", dest="max_strands", type=int)
    p_se.add_argument("--max-letters", dest="max_letters", type=int)
    p_se.add_argument("--dedup", choices=DEDUPS)
    p_se.add_argument("--predicate", choices=PREDICATES)
    p_se.add_argument("--jobs", type=int)
    p_se.add_argument("--format", choices=FORMATS)
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
    args.skein_cache = None
    try:
        return _COMMANDS[args.command](args)
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (ParseError, DiagramError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3
    except RecursionError:
        n = _crossing_count(args)  # 0 for search, which has no one input
        sys.stderr.write("error: input too deep for the skein recursion"
                         + (f" ({n} crossings)" if n else "") + "\n")
        return 2
    except Exception as exc:  # a bug, never exit 1 or a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4
    finally:
        if args.skein_cache is not None:
            args.skein_cache.close()


if __name__ == "__main__":
    sys.exit(main())
