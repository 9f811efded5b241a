"""Record the benchmark's reference outputs into reference.json.

    python3 perfbench/record.py

Run once, at the commit whose outputs are the reference.  It draws the
deep-closure and front pools from `inputs.POOL_SEED`, computes every
entry's outputs and its cost (each pool is stored cheapest first; the
benchmark does not otherwise use the cost), records the witness `poly` output and the search report, and cross-checks
them on paths that do not share the engine's shortcuts:

* the witness against criterion 10 (e_P = -9 < e_Y = -8, w = 4);
* each deep closure against the split-free recursion and against a
  conjugate word, which is a different diagram of the same knot (the
  state-sum identity needs 3^crossings splice choices, too many at 18 to
  20 crossings);
* each front against its own state-sum identity, proof-chain relations and
  lemma bounds, evaluated on a fresh memo;
* the search report against a `jobs=2` run, which must be byte-identical.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time

import run
import inputs


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def record_witness(pkg, tmp) -> dict:
    out = os.path.join(tmp, "witness.json")
    rc = pkg["cli"].main(["poly", "--braid", inputs.WITNESS_BRAID, "--out", out])
    require(rc == 0, "witness poly exit code")
    with open(out, "rb") as fh:
        data = fh.read()
    doc = json.loads(data)
    require((doc["e_P"], doc["e_Y"], doc["w"]) == (-9, -8, 4), "criterion 10")
    skein, diagram = pkg["skein"], pkg["diagram"]
    stats = skein.SkeinStats()
    d = diagram.braid_closure(diagram.parse_braid(inputs.WITNESS_BRAID))
    skein.kauffman_D(d, skein.SkeinCache(), stats)
    return {"braid": inputs.WITNESS_BRAID, "sha256": run.sha256(data),
            "e_P": doc["e_P"], "e_Y": doc["e_Y"], "w": doc["w"],
            "D_nodes": stats.nodes, "D_memo_hits": stats.cache_hits}


def record_deep_pool(pkg) -> list:
    skein, diagram = pkg["skein"], pkg["diagram"]
    rng = random.Random(inputs.POOL_SEED)
    texts = []
    while len(texts) < inputs.DEEP_POOL_SIZE:
        text = inputs.deep_closure_text(rng)
        if text not in texts:
            texts.append(text)
    pool = []
    for text in texts:
        b = diagram.parse_braid(text)
        stats = skein.SkeinStats()
        t0 = time.perf_counter()
        res = skein.full_invariants(diagram.braid_closure(b), skein.SkeinCache(), stats)
        cost = time.perf_counter() - t0
        plain = skein.full_invariants(diagram.braid_closure(b), skein.SkeinCache(),
                                      allow_split=False)
        conj = diagram.BraidWord(b.strands, b.letters[1:] + b.letters[:1])
        other = skein.full_invariants(diagram.braid_closure(conj), skein.SkeinCache())
        digest = run.py_digest(res)
        require(run.py_digest(plain) == digest == run.py_digest(other), text)
        pool.append({"braid": text, "cost_s": round(cost, 4), "nodes": stats.nodes,
                     "digest": digest})
        print(f"deep {len(pool)}/{len(texts)} {cost:.2f}s", file=sys.stderr)
    return sorted(pool, key=lambda e: e["cost_s"])


def record_front_pool(pkg) -> list:
    skein, front = pkg["skein"], pkg["front"]
    rng = random.Random(inputs.POOL_SEED + 1)
    draw = lambda: inputs.front_text(inputs.random_front_events(rng))
    is_tail = lambda text: (front.parse_front(text).component_count()
                            in inputs.TAIL_COMPONENTS)
    texts = [draw() for _ in range(inputs.FRONT_POOL_SIZE)]
    while sum(map(is_tail, texts)) < inputs.TAIL_FRONTS:
        text = draw()
        if is_tail(text):
            texts.append(text)
    pool = []
    for text in texts:
        f = front.parse_front(text)
        t0 = time.perf_counter()
        result = run.front_check(pkg, f, skein.SkeinCache())
        cost = time.perf_counter() - t0
        ok, digest = run.front_verdict(result)
        require(ok, text)
        pool.append({"front": text, "cost_s": round(cost, 4),
                     "crossings": f.crossing_count(),
                     "components": f.component_count(), "digest": digest})
        print(f"front {len(pool)}/{len(texts)} {cost:.2f}s", file=sys.stderr)
    return sorted(pool, key=lambda e: e["cost_s"])


def record_search(pkg, tmp) -> dict:
    harness = pkg["harness"]
    digests = []
    for jobs in (1, 2):
        cfg = harness.SearchConfig(**inputs.SEARCH_CONFIG)
        cfg.out, cfg.jobs = os.path.join(tmp, f"report-{jobs}.csv"), jobs
        reports = harness.search(cfg)
        with open(cfg.out, "rb") as fh:
            digests.append(run.sha256(fh.read()))
    require(digests[0] == digests[1], "search report, jobs=1 against jobs=2")
    return {"config": inputs.SEARCH_CONFIG, "sha256": digests[0],
            "rows": len(reports), "flagged": sum(1 for r in reports if r.witness)}


def main() -> int:
    os.environ.pop("KNOTPOLY_CACHE", None)
    pkg = run.import_package()
    with tempfile.TemporaryDirectory() as tmp:
        ref = {"witness": record_witness(pkg, tmp),
               "search": record_search(pkg, tmp),
               "deep_pool": record_deep_pool(pkg),
               "front_pool": record_front_pool(pkg)}
    with open(inputs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
