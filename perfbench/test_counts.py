"""The traced run's exact counts repeat from run to run.

    python3 -m pytest perfbench/test_counts.py -q

Each test replays a fixed list of ops twice under the tracer and requires
every count (nodes, memo hits and misses, states, words, rows, bytes) to
match exactly, plus the values known from the recorded reference.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def traced_counts(workload: str, n_ops: int, seed: int = 0):
    pkg = run.import_package()
    ref = inputs.load_reference()
    ops = run.make_cycle(workload, pkg, ref, seed)[:n_ops]
    tracer = Tracer()
    tracer.install(pkg)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            records = run.run_phase(run.Context(pkg, ref, tmp, tracer), ops, 0)
    finally:
        tracer.uninstall()
    assert [ok for *_x, ok in records] == [True] * n_ops
    counts = {k: v for k, (v, unit) in layer_metrics(tracer).items()
              if unit in ("count", "bytes")}
    return tracer, counts


def test_witness_counts_repeat():
    ref = inputs.load_reference()["witness"]
    first, c1 = traced_counts("witness", 1)
    _second, c2 = traced_counts("witness", 1)
    d_stats = first.skein_stats["skein.D"]
    assert (d_stats.nodes, d_stats.cache_hits) == (ref["D_nodes"], ref["D_memo_hits"])
    assert d_stats.nodes == 66728
    assert c1 == c2


def test_statesum_counts_repeat():
    _t, c1 = traced_counts("statesum", run.DCERTS_PER_FRONT + 1, seed=3)
    _t, c2 = traced_counts("statesum", run.DCERTS_PER_FRONT + 1, seed=3)
    assert c1["jaeger.dstates"] > 0 and c1["jaeger.fstates"] > 0
    assert c1 == c2


def test_search_counts_repeat():
    # seed 1 starts the pass cycle with the cold and warm file passes
    _t, c1 = traced_counts("search", 2, seed=1)
    _t, c2 = traced_counts("search", 2, seed=1)
    assert c1["harness.words_total"] == 335923
    assert c1["harness.words_kept"] == 24976
    assert c1["harness.knot_rows"] == 8072
    assert c1["skein.cache_file_bytes"] > 0
    assert c1 == c2
