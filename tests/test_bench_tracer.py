"""The benchmark's span tracer installs on the package as it is.

`perfbench/spans.py` wraps functions and methods by name at every module
binding the program calls them through.  A refactor that drops or renames
one of them breaks the traced benchmark run; this test makes that a suite
failure.  It installs the tracer on the modules already imported (no
re-import), runs the three front checks on a saucer front through the
wrapped bindings, uninstalls, and checks that every patched attribute is
the original object again.
"""

import importlib
import importlib.util
import os

import knotpoly
from knotpoly.front import saucer_front
from knotpoly.skein import SkeinCache

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
MODULES = ("laurent", "diagram", "skein", "front", "jaeger", "inequalities",
           "harness", "cli")


def load_spans():
    spec = importlib.util.spec_from_file_location("knotpoly_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_restores_every_binding():
    pkg = {"knotpoly": knotpoly}
    pkg.update((name, importlib.import_module("knotpoly." + name))
               for name in MODULES)
    jaeger = pkg["jaeger"]
    tracer = load_spans().Tracer()
    try:
        tracer.install(pkg)
        patched = list(tracer._patches)
        f, cache = saucer_front(), SkeinCache()
        cert = jaeger.lj_both_sides(f, cache)
        pc = jaeger.proof_chain_check(f, cache)
        rows = jaeger.lemma_check(f, cache)
    finally:
        tracer.uninstall()
    assert cert.equal and pc["master_ok"] and len(rows) == 2
    for name in ("jaeger.lj", "jaeger.proof_chain", "jaeger.lemma", "skein.R",
                 "skein.D", "diagram.morse", "laurent.substitute"):
        assert tracer.call_count(name) > 0, name
    assert tracer.call_count("jaeger.lemma") == 1
    assert tracer.counters["fstates"] == 2

    names = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _original in patched}
    for binding in (("knotpoly.jaeger", "lemma_check"),
                    ("knotpoly.jaeger", "homfly_R"),
                    ("knotpoly", "proof_chain_check"),
                    ("DeltaFraction", "__sub__"),
                    ("MorseDiagram", "__init__")):
        assert binding in names, binding
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
