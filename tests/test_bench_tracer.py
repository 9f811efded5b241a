"""The benchmark's span tracer installs on the package as it is.

`perfbench/spans.py` wraps functions and methods by name at every module
binding the program calls them through.  A refactor that drops or renames
one of them breaks the traced benchmark run; this test makes that a suite
failure.  It installs the tracer on the modules already imported (no
re-import) and calls one op of each kind the benchmark runs through the
wrapped bindings: `poly --braid` through the CLI, `full_invariants`,
`jaeger_both_sides`, the three front checks and a serial search.  Each
output must equal the one the same op gives untraced, and after the
uninstall every patched attribute must be the original object again.
"""

import importlib
import importlib.util
import os

import knotpoly
from knotpoly.front import saucer_front

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
MODULES = ("laurent", "diagram", "skein", "front", "jaeger", "inequalities",
           "harness", "cli")
WORD = "braid 3: 1 -2 1 -2 1"


def load_spans():
    spec = importlib.util.spec_from_file_location("knotpoly_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def bench_ops(pkg, tmp):
    """One op of each kind the benchmark runs, each on fresh caches (the
    state-sum ops on one shared memo, as in the statesum workload), called
    through the modules in `pkg`: {op: output}."""
    cli, skein, jaeger = pkg["cli"], pkg["skein"], pkg["jaeger"]
    harness, diagram = pkg["harness"], pkg["diagram"]
    out = {}
    poly = os.path.join(tmp, "poly.json")
    out["poly"] = cli.main(["poly", "--braid", WORD, "--out", poly]), read(poly)
    closure = diagram.braid_closure(diagram.parse_braid(WORD))
    out["full"] = skein.full_invariants(closure, skein.SkeinCache())
    cache = skein.SkeinCache()
    out["jaeger"] = jaeger.jaeger_both_sides(closure, cache)
    f = saucer_front()
    out["front"] = (jaeger.lj_both_sides(f, cache),
                    jaeger.proof_chain_check(f, cache),
                    jaeger.lemma_check(f, cache))
    cfg = harness.SearchConfig(max_strands=2, max_letters=6,
                               out=os.path.join(tmp, "report.csv"))
    out["search"] = harness.search(cfg), read(cfg.out)
    return out


def test_tracer_installs_and_restores_every_binding(tmp_path):
    pkg = {"knotpoly": knotpoly}
    pkg.update((name, importlib.import_module("knotpoly." + name))
               for name in MODULES)
    (tmp_path / "untraced").mkdir()
    (tmp_path / "traced").mkdir()
    untraced = bench_ops(pkg, str(tmp_path / "untraced"))
    tracer = load_spans().Tracer()
    try:
        tracer.install(pkg)
        patched = list(tracer._patches)
        traced = bench_ops(pkg, str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    for op, value in untraced.items():
        assert traced[op] == value, op

    assert traced["poly"][0] == 0 and traced["jaeger"].equal
    cert, pc, rows = traced["front"]
    assert cert.equal and pc["master_ok"] and len(rows) == 2
    assert traced["search"][0] and traced["search"][1]
    for name in ("jaeger.lj", "jaeger.proof_chain", "jaeger.lemma", "skein.R",
                 "skein.D", "diagram.morse", "laurent.substitute",
                 "cli.main", "skein.full", "jaeger.jaeger", "harness.search",
                 "harness.enumerate", "inequalities.mfw",
                 "harness.write_report", "diagram.closure"):
        assert tracer.call_count(name) > 0, name
    for name in ("cli.main", "skein.full", "jaeger.jaeger", "jaeger.lemma",
                 "harness.search"):
        assert tracer.call_count(name) == 1, name
    assert tracer.counters["fstates"] == 2
    # full_invariants passes no stats, so the tracer's own count its nodes
    for name in ("skein.R", "skein.D"):
        stats = tracer.skein_stats[name]
        assert stats.nodes > 0 and stats.cache_misses > 0, name

    names = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _original in patched}
    for binding in (("knotpoly.jaeger", "lemma_check"),
                    ("knotpoly.jaeger", "homfly_R"),
                    ("knotpoly.jaeger", "proof_chain_check"),
                    ("knotpoly.cli", "main"),
                    ("knotpoly.harness", "search"),
                    ("knotpoly.skein", "full_invariants"),
                    ("DeltaFraction", "__sub__"),
                    ("DeltaFraction", "__rmul__"),
                    ("LaurentPoly", "__rmul__"),
                    ("MorseDiagram", "__init__")):
        assert binding in names, binding
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
