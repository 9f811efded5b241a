"""Span tracing of knotpoly from outside the package.

`Tracer.install(pkg)` replaces each public function the workloads reach at
every module binding the program calls it through (a name imported with
`from .x import f` is a separate binding from `x.f`), and the hot methods on
the classes.  Each call then records a span: name, start, end, parent span
and the trace id of the benchmark op it belongs to.  Spans stay in memory
(compact arrays, capped at `max_spans`) and are written out by `dump`.

Self time per span name (the span's duration minus its child spans) and
the counters the layer metrics need are aggregated as the spans close.
Calls made in a forked worker process pass straight through: worker spans
are out of scope, so a parallel search contributes only its parent side.
"""

from __future__ import annotations

import array
import functools
import json
import os
import time


class Tracer:
    def __init__(self, max_spans: int = 1_000_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, int] = {}
        self.stack: list[list] = []   # [child_s, span_index, name_id, start]
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_trace = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.dropped = 0
        self.trace_id = 0
        self.pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self.skein_stats: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def begin(self, nid: int) -> None:
        t0 = time.perf_counter()
        idx = len(self.span_start)
        if idx < self.max_spans:
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][1] if self.stack else -1)
            self.span_trace.append(self.trace_id)
            self.span_start.append(t0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
            idx = -1
        self.stack.append([0.0, idx, nid, t0])

    def end(self) -> None:
        t1 = time.perf_counter()
        child, idx, nid, t0 = self.stack.pop()
        dur = t1 - t0
        if idx >= 0:
            self.span_end[idx] = t1
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][0] += dur

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge_max(self, key: str, value: int) -> None:
        if value > self.gauges.get(key, 0):
            self.gauges[key] = value

    def span_fn(self, name: str, fn):
        """fn wrapped in a span; calls from forked workers pass through."""
        nid = self.name_id(name)
        begin, end, pid, getpid = self.begin, self.end, self.pid, os.getpid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getpid() != pid:
                return fn(*args, **kwargs)
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return wrapper

    def timed_iter(self, name: str, iterable):
        """Iterate with one span around each step of the underlying iterator."""
        nid = self.name_id(name)
        it = iter(iterable)
        while True:
            self.begin(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end()
            yield item

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_bindings(self, name: str, modules, attr: str, fn=None) -> None:
        """Wrap the function once and install it at every listed binding."""
        original = getattr(modules[0], attr)
        wrapped = self.span_fn(name, fn or original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def install(self, pkg) -> None:
        """Install every wrapper; `pkg` maps module names to knotpoly modules."""
        laurent, diagram, skein = pkg["laurent"], pkg["diagram"], pkg["skein"]
        front, jaeger, ineq = pkg["front"], pkg["jaeger"], pkg["inequalities"]
        harness, cli = pkg["harness"], pkg["cli"]
        top = pkg["knotpoly"]

        # laurent
        poly = laurent.LaurentPoly
        mul = poly.__dict__["__mul__"]

        def mul_counted(a, b):
            out = mul(a, b)
            self.gauge_max("max_terms", len(out.terms))
            return out
        wrapped_mul = self.span_fn("laurent.mul", mul_counted)
        self._patch(poly, "__mul__", wrapped_mul)
        self._patch(poly, "__rmul__", wrapped_mul)
        self._wrap_bindings("laurent.divide", (laurent, skein, top), "exact_divide")
        delta = laurent.exact_divide_delta

        def delta_counted(p):
            q = delta(p)
            self.count("divide_delta_attempts")
            if q is not None:
                self.count("divide_delta_useful")
            return q
        self._wrap_bindings("laurent.divide_delta", (laurent, top),
                            "exact_divide_delta", delta_counted)
        frac = laurent.DeltaFraction
        for meth in ("__init__", "__add__", "__sub__", "__neg__", "__mul__"):
            wrapped = self.span_fn("laurent.fraction", frac.__dict__[meth])
            self._patch(frac, meth, wrapped)
        self._patch(frac, "__rmul__", wrapped)
        self._wrap_bindings("laurent.substitute", (laurent, jaeger, top),
                            "substitute_jaeger")

        # diagram
        self._patch(diagram.MorseDiagram, "__init__", self.span_fn(
            "diagram.morse", diagram.MorseDiagram.__dict__["__init__"]))
        self._wrap_bindings("diagram.reduce", (diagram, skein, top), "reduce_diagram")
        self._wrap_bindings("diagram.encode", (diagram, skein), "encode_events")
        self._wrap_bindings("diagram.split", (diagram, skein), "find_split")
        self._wrap_bindings("diagram.closure", (diagram, cli, harness, ineq, top),
                            "braid_closure")

        # skein: inject a stats object where the caller passes none
        for attr, name in (("homfly_R", "skein.R"), ("kauffman_D", "skein.D")):
            self._wrap_bindings(name, (skein, jaeger, top), attr,
                                self._skein_entry(getattr(skein, attr), name,
                                                  skein.SkeinStats()))
        self._wrap_bindings("skein.full", (skein, cli, harness, ineq, top),
                            "full_invariants")
        cache_cls = skein.SkeinCache
        self._patch(cache_cls, "__init__", self.span_fn(
            "skein.cache_load", cache_cls.__dict__["__init__"]))
        self._patch(cache_cls, "put", self.span_fn("skein.cache_put",
                                                  cache_cls.__dict__["put"]))

        # front
        fw = front.FrontWord
        self._patch(fw, "__init__", self.span_fn("front.front", fw.__dict__["__init__"]))
        self._patch(fw, "morsify", self.span_fn("front.morsify", fw.__dict__["morsify"]))

        # jaeger
        for attr, name, key in (("jaeger_both_sides", "jaeger.jaeger", "d"),
                                ("lj_both_sides", "jaeger.lj", "f")):
            self._wrap_bindings(name, (jaeger, cli, top), attr,
                                self._state_sum_entry(getattr(jaeger, attr), key))
        self._wrap_bindings("jaeger.proof_chain", (jaeger, top), "proof_chain_check")
        self._wrap_bindings("jaeger.lemma", (jaeger, top), "lemma_check")

        # inequalities
        self._wrap_bindings("inequalities.mfw", (ineq, harness, cli, top), "mfw_check")

        # harness
        self._wrap_bindings("harness.search", (harness, cli, top), "search",
                            self._search_entry(harness.search))
        enum = harness.enumerate_braids

        def enumerate_timed(cfg):
            return self._count_words(cfg, self.timed_iter("harness.enumerate",
                                                          enum(cfg)))
        self._patch(harness, "enumerate_braids", enumerate_timed)
        self._patch(harness, "ProcessPoolExecutor",
                    self._timed_pool(harness.ProcessPoolExecutor))
        self._wrap_bindings("harness.write_report", (harness,), "write_report")

        # cli
        self._wrap_bindings("cli.main", (cli,), "main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers that also count ----------------------------------------------

    def _skein_entry(self, fn, name, own_stats):
        self.skein_stats[name] = own_stats

        def entry(d, cache=None, stats=None, allow_split=True):
            out = fn(d, cache, own_stats if stats is None else stats, allow_split)
            if cache is not None:
                self.gauge_max("memo_entries", len(cache.mem))
            return out
        return entry

    def _state_sum_entry(self, fn, kind):
        def entry(obj, cache=None, weights=None):
            cert = fn(obj, cache, weights)
            nx = len(obj.cross_info) if kind == "d" else obj.crossing_count()
            self.count(kind + "states", len(cert.contributions))
            self.count("choices_tried", 3 ** nx)
            return cert
        return entry

    def _search_entry(self, fn):
        def entry(cfg):
            reports = fn(cfg)
            self.gauge_max("knot_rows", len(reports))
            return reports
        return entry

    def _count_words(self, cfg, words):
        n, letters = cfg.max_strands, cfg.max_letters
        total = sum((2 * (n - 1)) ** k for k in range(letters + 1)) if n > 1 else 1
        self.gauge_max("words_total", total)
        kept = 0
        for w in words:
            kept += 1
            yield w
        self.gauge_max("words_kept", kept)

    def _timed_pool(self, base):
        tracer = self

        class TimedPool(base):
            def map(self, *args, **kwargs):
                return tracer.timed_iter("harness.pool_wait",
                                         super().map(*args, **kwargs))

            def __exit__(self, *exc):
                tracer.begin(tracer.name_id("harness.pool_wait"))
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end()
        return TimedPool

    # -- results ---------------------------------------------------------------

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        n = len(self.span_start)
        header = {"names": self.names, "spans": n, "dropped": self.dropped,
                  "arrays": ["name:i", "parent:i", "trace:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_trace,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the aggregates: name -> (value, unit)."""
    s, calls = t.self_time, t.call_count
    c, g = t.counters.get, t.gauges.get
    stats = t.skein_stats.values()
    hits = sum(st.cache_hits for st in stats)
    misses = sum(st.cache_misses for st in stats)
    nodes = sum(st.nodes for st in stats)
    states = c("dstates", 0) + c("fstates", 0)
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "laurent.mul_calls": (calls("laurent.mul"), "count"),
        "laurent.mul_s": (s("laurent.mul"), "s"),
        "laurent.divide_calls": (calls("laurent.divide"), "count"),
        "laurent.divide_s": (s("laurent.divide") + s("laurent.divide_delta"), "s"),
        "laurent.divide_useful_ratio": (ratio(c("divide_delta_useful", 0),
                                              c("divide_delta_attempts", 0)), "ratio"),
        "laurent.fraction_s": (s("laurent.fraction"), "s"),
        "laurent.substitute_s": (s("laurent.substitute"), "s"),
        "laurent.max_terms": (g("max_terms", 0), "count"),
        "diagram.morse_builds": (calls("diagram.morse"), "count"),
        "diagram.morse_s": (s("diagram.morse"), "s"),
        "diagram.reduce_calls": (calls("diagram.reduce"), "count"),
        "diagram.reduce_s": (s("diagram.reduce"), "s"),
        "diagram.encode_s": (s("diagram.encode"), "s"),
        "diagram.split_s": (s("diagram.split"), "s"),
        "diagram.closure_s": (s("diagram.closure"), "s"),
        "skein.R_calls": (calls("skein.R"), "count"),
        "skein.D_calls": (calls("skein.D"), "count"),
        "skein.R_s": (s("skein.R"), "s"),
        "skein.D_s": (s("skein.D"), "s"),
        "skein.full_s": (s("skein.full"), "s"),
        "skein.nodes": (nodes, "count"),
        "skein.memo_hits": (hits, "count"),
        "skein.memo_misses": (misses, "count"),
        "skein.memo_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "skein.memo_entries": (g("memo_entries", 0), "count"),
        "skein.cache_load_s": (s("skein.cache_load"), "s"),
        "skein.cache_put_s": (s("skein.cache_put"), "s"),
        "skein.cache_file_bytes": (g("cache_file_bytes", 0), "bytes"),
        "front.front_builds": (calls("front.front"), "count"),
        "front.front_s": (s("front.front"), "s"),
        "front.morsify_calls": (calls("front.morsify"), "count"),
        "front.morsify_s": (s("front.morsify"), "s"),
        "jaeger.dstates": (c("dstates", 0), "count"),
        "jaeger.fstates": (c("fstates", 0), "count"),
        "jaeger.choices_tried": (c("choices_tried", 0), "count"),
        "jaeger.state_yield_ratio": (ratio(states, c("choices_tried", 0)), "ratio"),
        "jaeger.jaeger_s": (s("jaeger.jaeger"), "s"),
        "jaeger.lj_s": (s("jaeger.lj"), "s"),
        "jaeger.proof_chain_s": (s("jaeger.proof_chain"), "s"),
        "jaeger.lemma_s": (s("jaeger.lemma"), "s"),
        "inequalities.mfw_calls": (calls("inequalities.mfw"), "count"),
        "inequalities.mfw_s": (s("inequalities.mfw"), "s"),
        "harness.words_total": (g("words_total", 0), "count"),
        "harness.words_kept": (g("words_kept", 0), "count"),
        "harness.dedup_yield_ratio": (ratio(g("words_kept", 0),
                                            g("words_total", 0)), "ratio"),
        "harness.knot_rows": (g("knot_rows", 0), "count"),
        "harness.search_s": (s("harness.search"), "s"),
        "harness.enumerate_s": (s("harness.enumerate"), "s"),
        "harness.pool_wait_s": (s("harness.pool_wait"), "s"),
        "harness.write_report_s": (s("harness.write_report"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
        "bench.unattributed_s": (s("bench.op"), "s"),
        "bench.spans": (len(t.span_start) + t.dropped, "count"),
    }
