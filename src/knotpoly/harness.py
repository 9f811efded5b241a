"""Braid enumeration and the witness search.

Words are streamed in a fixed order (length ascending, then lexicographic by
letter tuple), so reports are byte-identical across runs and across serial or
parallel execution.  The optional dedup keeps one representative per orbit
under cyclic rotation and reversal-with-inversion: the least word of the
orbit.  Representatives are generated directly rather than filtered from all
words.  The necklaces (words least among their rotations) of each length come
in lexicographic order from the FKM construction: Duval's successor walks the
Lyndon words in order, and each one of length d dividing the length l gives
the necklace w^(l/d) (Fredricksen-Kessler-Maiorana; Ruskey, Savage and Wang,
J. Algorithms 1992).  A necklace is kept when no rotation of its inverted
reversal is smaller, in the manner of bracelet generation (Sawada, SIAM J.
Comput. 2001).

Closures with more than one component are skipped; the report counts knot
diagrams, not knot types.  `search` keeps the knot words once, before any
row is computed: a word whose length does not have the parity of n - 1 is
dropped before its components are counted, since its permutation cannot
be an n-cycle.  Each knot row's R and D come from the algebra engines
(`inequalities.mfw_check`) on the enumerator's own `BraidWord`, and each
flagged row is computed again on the skein engines, which share no memo
with the rows.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from .diagram import MAX_STRANDS, BraidWord, ParseError, braid_closure
from .inequalities import BoundReport, CSV_HEADER, mfw_check
from .skein import SkeinCache, full_invariants

PREDICATES = ("ep_lt_ey", "bound_violation", "all")
DEDUPS = ("none", "cyclic+inverse")
FORMATS = ("csv", "json")


class VerificationError(Exception):
    """A flagged row that the skein engines do not confirm."""


@dataclass
class SearchConfig:
    max_strands: int = 2
    max_letters: int = 4
    dedup: str = "none"
    predicate: str = "ep_lt_ey"
    out: Optional[str] = None
    jobs: int = 1
    format: str = "csv"
    cache: Optional[str] = None

    def validate(self) -> None:
        if self.max_strands < 1 or self.max_letters < 0:
            raise ParseError("max_strands >= 1 and max_letters >= 0 required")
        if self.max_strands > MAX_STRANDS:
            raise ParseError(f"max_strands {self.max_strands} is above the "
                             f"ceiling of {MAX_STRANDS}")
        for name, allowed in (("dedup", DEDUPS), ("predicate", PREDICATES),
                              ("format", FORMATS)):
            if getattr(self, name) not in allowed:
                raise ParseError(f"{name} must be one of {allowed}")
        if self.jobs < 1:
            raise ParseError("jobs must be positive")


def load_config(path: str) -> SearchConfig:
    """Flat key=value file of SearchConfig fields; bad keys and values are rejected."""
    cfg = SearchConfig()
    defaults = {f.name: f.default for f in fields(SearchConfig)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key = key.strip()
        value = value.strip()
        if key not in defaults:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if isinstance(defaults[key], int):
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: {key} must be an integer, "
                                 f"got {value!r}") from None
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _necklaces(k: int, length: int) -> Iterator[list[int]]:
    """Necklaces of `length` over letters 0..k-1, in lexicographic order.

    Duval's successor: w runs through the Lyndon words of length at most
    `length` in order, each extended periodically to `length`; the ones
    whose length divides it are the necklaces.  The yielded list changes on
    the next step.
    """
    if length == 0:
        yield []
        return
    w = [-1] if k else []
    while w:
        w[-1] += 1
        m = len(w)
        w = (w * (length // m + 1))[:length]
        if length % m == 0:
            yield w
        while w and w[-1] == k - 1:
            w.pop()


def _orbit_reps(gens: list[int], length: int) -> Iterator[tuple[int, ...]]:
    """Least words of the orbits under rotation and reversal-with-inversion.

    `gens` is ascending, so the letter order of the necklaces is kept.
    """
    for idx in _necklaces(len(gens), length):
        w = tuple(map(gens.__getitem__, idx))
        rev = tuple(-x for x in reversed(w))
        rev2 = rev + rev   # holds every rotation of rev
        if all(w <= rev2[j:j + length] for j in range(length)):
            yield w


def enumerate_braids(cfg: SearchConfig) -> Iterator[BraidWord]:
    """All words on max_strands strands with up to max_letters letters."""
    cfg.validate()
    n = cfg.max_strands
    gens = [i for i in range(-(n - 1), n) if i != 0]
    for length in range(cfg.max_letters + 1):
        if cfg.dedup == "cyclic+inverse":
            words = _orbit_reps(gens, length)
        else:
            words = itertools.product(gens, repeat=length)
        for letters in words:
            yield BraidWord(n, letters)


def _flag(predicate: str, report: BoundReport) -> bool:
    if predicate == "ep_lt_ey":
        return report.witness
    if predicate == "bound_violation":
        return report.mfw_slack is not None and report.mfw_slack < 0
    return True


def _worker(payload: tuple[list[BraidWord], Optional[str]]
            ) -> tuple[list[BoundReport], list]:
    """A pool worker's rows, and the memo records it made that the cache
    file did not hold (none without a file)."""
    words, cache_path = payload
    cache = SkeinCache(cache_path)
    cache.close()  # read the file, append nothing: the parent appends once
    known = len(cache.mem)
    rows = [mfw_check(b, cache) for b in words]
    return rows, (list(itertools.islice(cache.mem.items(), known, None))
                  if cache_path else [])


def _rows(words: list[BraidWord], workers: int,
          cache_path: Optional[str]) -> list[BoundReport]:
    """The row of each word, serially or on a pool of `workers`; the
    workers' new memo records go to the cache file, each key once."""
    cache = SkeinCache(cache_path)
    try:
        if workers == 1:
            return [mfw_check(b, cache) for b in words]
        chunks = [words[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                _worker, [(chunk, cache_path) for chunk in chunks]))
        # restore enumeration order from the strided split
        rows: list = [None] * len(words)
        for j, (chunk_rows, records) in enumerate(results):
            rows[j::workers] = chunk_rows
            for key, value in records:  # two workers may make one record
                if cache.get(key) is None:
                    cache.put(key, value)
        return rows
    finally:
        cache.close()


def search(cfg: SearchConfig) -> list[BoundReport]:
    """Enumerate closures, compute invariants for the knots, emit the report.

    Returns the knot rows in enumeration order; when cfg.out is set the
    report is also written in the configured format.  The rows come from
    the algebra engines (`mfw_check`); each flagged row is re-verified with
    the skein engines' `full_invariants` on a memo of its own, which no row
    reads or writes, and a disagreement in e_P or e_Y is a
    `VerificationError`.  Pool workers read the cache file, and the parent
    appends their new records, each key once.
    """
    cfg.validate()
    # each letter is a transposition and an n-cycle has the parity of n - 1,
    # so a word of the other parity closes to a link
    words = [b for b in enumerate_braids(cfg)
             if not (len(b.letters) - b.strands + 1) % 2
             and b.component_count() == 1]
    # the pool starts all its workers at once, so no more than there are CPUs
    workers = min(cfg.jobs, os.cpu_count() or 1)
    reports = _rows(words, workers, cfg.cache)

    verify: Optional[SkeinCache] = None  # made for the first flagged row
    for b, rep in zip(words, reports):
        if _flag(cfg.predicate, rep):
            if verify is None:
                verify = SkeinCache()  # the skein engines' own: no row reads it
            fresh = full_invariants(braid_closure(b), verify)
            if (fresh.e_P, fresh.e_Y) != (rep.e_P, rep.e_Y):
                raise VerificationError(f"re-verification failed for {rep.subject}")

    if cfg.out:
        write_report(reports, cfg.out, cfg.format, cfg.predicate)
    return reports


def write_report(reports: list[BoundReport], path: str, fmt: str,
                 predicate: str) -> None:
    try:
        if fmt == "csv":
            lines = [CSV_HEADER]
            lines.extend(r.csv_row() for r in reports)
            payload = "\n".join(lines) + "\n"
        else:
            payload = json.dumps({"predicate": predicate,
                                  "rows": [r.to_json() for r in reports]},
                                 indent=0, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc
