"""knotpoly benchmark: seeded, closed-loop, single-caller workloads.

    python3 perfbench/run.py --workload witness|statesum|search \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each workload is one caller issuing ops back to back: the seed fixes one
cycle of ops, and the run repeats it, each time on a fresh memo, until S
seconds have passed.  Every op's output is checked against
`reference.json` or against an identity; a mismatch or an exception counts
as a failed op.  The memo is never pre-warmed: each op starts from the
caches a user would have.  The run re-executes itself with PYTHONHASHSEED
set to the seed, so a seed fixes the hash layout too.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one cycle
untraced, replays it with the span tracer of `spans.py` installed, and
reports the per-layer metrics and the tracing overhead.  The last line of stdout is the JSON result; the line
before it names the workload's figures in the terms of the paper's three
user-facing tasks, with the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

MODULES = ("laurent", "diagram", "skein", "front", "jaeger", "inequalities",
           "harness", "cli")
WORKLOADS = ("witness", "statesum", "search")
SETUP_REPEATS = 21
# Diagram certificates issued before each front check: the acceptance suite
# checks 6,709 closures (criterion 02) per 100 fronts (criterion 04).
DCERTS_PER_FRONT = 67
OUT_DIR = os.path.join(ROOT, ".perfbench")
clock = time.perf_counter


def import_package() -> dict:
    """Fresh import of knotpoly from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in list(sys.modules):
        if name == "knotpoly" or name.startswith("knotpoly."):
            del sys.modules[name]
    pkg = {"knotpoly": importlib.import_module("knotpoly")}
    if not os.path.abspath(pkg["knotpoly"].__file__).startswith(src + os.sep):
        raise ImportError(f"knotpoly was not imported from {src}")
    for name in MODULES:
        pkg[name] = importlib.import_module("knotpoly." + name)
    return pkg


# -- digests of outputs ---------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def py_digest(res) -> str:
    return sha256(canonical({"P": res.P.to_json(), "Y": res.Y.to_json()}))


def front_check(pkg, f, cache):
    j = pkg["jaeger"]
    return (j.lj_both_sides(f, cache), j.proof_chain_check(f, cache),
            j.lemma_check(f, cache))


PROOF_FLAGS = ("weight_ok", "nu_ok", "rot_ok", "r_factor_ok", "master_ok")


def front_verdict(result) -> tuple[bool, str]:
    """Whether the identity, every proof-chain flag and every lemma row hold,
    and the digest of the check's outputs."""
    cert, pc, rows = result
    ok = (cert.equal and all(pc[k] for k in PROOF_FLAGS)
          and all(r.nonnegative and r.respects_bound for r in rows))
    digest = sha256(canonical({
        "lhs": cert.lhs.to_json(), "rhs": cert.rhs.to_json(),
        "states": pc["states"],
        "lemma": [[r.min_a_degree, r.bound] for r in rows]}))
    return ok, digest


# -- ops: a call that is timed and a check that is not --------------------------


class Context:
    """Per-phase state: the shared memo, the temporary files, the tracer."""

    def __init__(self, pkg, ref, tmp, tracer=None):
        self.pkg, self.ref, self.tracer = pkg, ref, tracer
        # own directory, so a cold_file pass never reopens an earlier file
        self.tmp = tempfile.mkdtemp(dir=tmp)
        self.cache = None
        self.files = 0
        self.out = self.cache_path = None

    def new_path(self, stem: str) -> str:
        self.files += 1
        return os.path.join(self.tmp, f"{stem}-{self.files}")


def call_witness(ctx, _payload):
    ctx.out = ctx.new_path("witness.json")
    return ctx.pkg["cli"].main(["poly", "--braid", inputs.WITNESS_BRAID,
                                "--out", ctx.out])


def check_witness(ctx, _payload, rc):
    with open(ctx.out, "rb") as fh:
        data = fh.read()
    doc, ref = json.loads(data), ctx.ref["witness"]
    return (rc == 0 and sha256(data) == ref["sha256"]
            and [doc["e_P"], doc["e_Y"], doc["w"]] == [ref["e_P"], ref["e_Y"], ref["w"]])


def call_deep(ctx, payload):
    skein = ctx.pkg["skein"]
    return skein.full_invariants(payload[1], skein.SkeinCache())


def check_deep(ctx, payload, res):
    return py_digest(res) == payload[0]["digest"]


def call_dcert(ctx, d):
    return ctx.pkg["jaeger"].jaeger_both_sides(d, ctx.cache)


def check_dcert(ctx, d, cert):
    return cert.equal and len(cert.contributions) > 0


def call_fcert(ctx, payload):
    return front_check(ctx.pkg, payload[1], ctx.cache)


def check_fcert(ctx, payload, result):
    ok, digest = front_verdict(result)
    return ok and digest == payload[0]["digest"]


def search_call(kind):
    def call(ctx, _payload):
        harness = ctx.pkg["harness"]
        cfg = harness.SearchConfig(**inputs.SEARCH_CONFIG)
        cfg.out = ctx.out = ctx.new_path("report.csv")
        if kind == "j2":
            cfg.jobs = 2
        elif kind == "cold_file":
            cfg.cache = ctx.cache_path = ctx.new_path("cache.txt")
        elif kind == "warm_file":
            cfg.cache = ctx.cache_path
        return harness.search(cfg)
    return call


def check_search(ctx, _payload, reports):
    with open(ctx.out, "rb") as fh:
        data = fh.read()
    ref = ctx.ref["search"]
    flagged = sum(1 for r in reports if r.witness)
    if ctx.tracer is not None and ctx.cache_path:
        ctx.tracer.gauge_max("cache_file_bytes", os.path.getsize(ctx.cache_path))
    return (sha256(data) == ref["sha256"] and len(reports) == ref["rows"]
            and flagged == ref["flagged"])


SEARCH_PASSES = ("j1", "j2", "cold_file", "warm_file")
OPS = {"witness": (call_witness, check_witness),
       "deep": (call_deep, check_deep),
       "dcert": (call_dcert, check_dcert),
       "fcert": (call_fcert, check_fcert)}
OPS.update({p: (search_call(p), check_search) for p in SEARCH_PASSES})


# -- inputs and cycles -----------------------------------------------------------


def make_cycle(workload: str, pkg, ref, seed: int) -> list:
    """Parse the seeded inputs into one cycle of (kind, payload) ops.

    `witness`: the witness `poly`, half a pass over the deep pool, the
    witness again, the other half.  `statesum`: a pass over the front pool
    with DCERTS_PER_FRONT closures drawn before each front check.  `search`:
    the four passes, `j1` twice and apart so that its mean spans the cycle,
    rotated by the seed.
    """
    diagram, front = pkg["diagram"], pkg["front"]
    closure = lambda text: diagram.braid_closure(diagram.parse_braid(text))
    if workload == "witness":
        pool = ref["deep_pool"]
        order = random.Random(f"{seed}:deep").sample(pool, len(pool))
        deep = [("deep", (e, closure(e["braid"]))) for e in order]
        half = (len(deep) + 1) // 2
        return [("witness", None)] + deep[:half] + [("witness", None)] + deep[half:]
    if workload == "statesum":
        rng = random.Random(f"{seed}:dcert")
        cycle = []
        pool = ref["front_pool"]
        for e in random.Random(f"{seed}:fcert").sample(pool, len(pool)):
            cycle += [("dcert", closure(inputs.statesum_closure_text(rng)))
                      for _ in range(DCERTS_PER_FRONT)]
            cycle.append(("fcert", (e, front.parse_front(e["front"]))))
        return cycle
    blocks = [["j1"], ["cold_file", "warm_file"], ["j1"], ["j2"]]
    r = seed % len(blocks)
    return [(k, None) for b in blocks[r:] + blocks[:r] for k in b]


def run_phase(ctx, cycle: list, seconds: float) -> list:
    """Issue the cycle's ops back to back, cycle after cycle, until `seconds`
    have passed.  Stops only between cycles, after at least one; each cycle
    starts on a fresh shared memo.  Returns (kind, payload, seconds, ok) per
    op.
    """
    tracer = ctx.tracer
    root = tracer.name_id("bench.op") if tracer else None
    records = []
    start = clock()
    while not records or clock() - start < seconds:
        ctx.cache = ctx.pkg["skein"].SkeinCache()
        for kind, payload in cycle:
            call, check = OPS[kind]
            if tracer:
                tracer.trace_id += 1
                tracer.begin(root)
            t0 = clock()
            try:
                try:
                    result = call(ctx, payload)
                finally:
                    dt = clock() - t0
                    if tracer:
                        tracer.end()
                ok = bool(check(ctx, payload, result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                sys.stderr.write(f"failed op: {kind}\n")
            records.append((kind, payload, dt, ok))
    return records


# -- metrics -----------------------------------------------------------------------


def fig(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return fig(None, "s", samples=n)
    v = sorted(values)
    return fig(v[n - 11], "s", percentile=100 * (n - 10) // n, samples=n)


def times(records, *kinds):
    return [dt for k, _p, dt, _ok in records if k in kinds]


def end_to_end(workload, records, ref):
    """(call_s, items_per_s, named figures) from one untraced phase."""
    if workload == "witness":
        calls, items = times(records, "witness"), times(records, "deep")
        named = {"witness_s": fig(statistics.median(calls), "s", samples=len(calls)),
                 "deep_per_s": fig(len(items) / sum(items), "1/s", samples=len(items)),
                 "deep_p50_s": fig(statistics.median(items), "s"),
                 "deep_tail_s": tail(items)}
        return sum(calls) / len(calls), len(items) / sum(items), named
    if workload == "statesum":
        calls, items = times(records, "fcert"), times(records, "dcert")
        named = {"dcert_per_s": fig(len(items) / sum(items), "1/s", samples=len(items)),
                 "fcert_per_s": fig(len(calls) / sum(calls), "1/s", samples=len(calls)),
                 "fcert_p50_s": fig(statistics.median(calls), "s"),
                 "fcert_tail_s": tail(calls)}
        return sum(calls) / len(calls), len(items) / sum(items), named
    rows = ref["search"]["rows"]
    named = {}
    for kind in SEARCH_PASSES:
        t = times(records, kind)
        key = "search_rows_per_s" if kind == "j1" else f"search_{kind}_rows_per_s"
        named[key] = fig(rows * len(t) / sum(t), "1/s", samples=len(t))
    passes = times(records, *SEARCH_PASSES)
    j1 = times(records, "j1")
    return sum(j1) / len(j1), rows * len(passes) / sum(passes), named


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup(workload: str, seed: int):
    """Import, load references, generate and parse inputs; median of repeats."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        pkg = import_package()
        ref = inputs.load_reference()
        cycle = make_cycle(workload, pkg, ref, seed)
        durations.append(clock() - t0)
    return pkg, ref, cycle, statistics.median(durations)


def traced_run(workload, pkg, ref, cycle, tmp):
    """One cycle untraced, then the same cycle traced."""
    plain = run_phase(Context(pkg, ref, tmp), cycle, 0)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        traced = run_phase(Context(pkg, ref, tmp, tracer), cycle, 0)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    plain_s = sum(dt for *_x, dt, _ok in plain)
    traced_s = sum(dt for *_x, dt, _ok in traced)
    metrics["bench.untraced_s"] = (plain_s, "s")
    metrics["bench.trace_overhead_s"] = (traced_s - plain_s, "s")
    j1, j2 = times(plain, "j1"), times(plain, "j2")
    j1_s = sum(j1) / len(j1) if j1 else 0.0
    j2_s = sum(j2) / len(j2) if j2 else 0.0
    metrics["harness.j1_wall_s"] = (j1_s, "s")
    metrics["harness.j2_wall_s"] = (j2_s, "s")
    metrics["harness.j2_speedup"] = (j1_s / j2_s if j2_s else 0.0, "ratio")
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}.bin"))
    return plain + traced, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # The memo keys are bytes, so the hash layout moves the timings; the
        # seed fixes it, and a set of seeds samples as many layouts.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    os.environ.pop("KNOTPOLY_CACHE", None)
    try:
        pkg, ref, cycle, setup_s = setup(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        sys.stderr.write(f"cannot set up the benchmark: {exc}\n")
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.trace:
            records, metrics = traced_run(args.workload, pkg, ref, cycle, tmp)
            named = {}
        else:
            records = run_phase(Context(pkg, ref, tmp), cycle, args.seconds)
            call_s, items_per_s, named = end_to_end(args.workload, records, ref)
            metrics = {"setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak_rss_mb(), "MB"),
                       "call_s": (call_s, "s"),
                       "items_per_s": (items_per_s, "1/s")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for *_x, ok in records if not ok)
    named.update(setup_s=fig(setup_s, "s"), peak_rss_mb=fig(peak_rss_mb(), "MB"),
                 failed_ratio=fig(failed / len(records), "ratio"))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "nproc": len(os.sched_getaffinity(0)),
                      "python": platform.python_version(), "named": named}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
