"""Braid enumeration and the witness search.

Words are streamed in a fixed order (length ascending, then lexicographic by
letter tuple), so reports are byte-identical across runs and across serial or
parallel execution.  The optional dedup keeps one representative per orbit
under cyclic rotation and reversal-with-inversion.

Closures with more than one component are skipped; the report counts knot
diagrams, not knot types.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

from .diagram import BraidWord, braid_closure
from .inequalities import BoundReport, CSV_HEADER, mfw_check
from .skein import SkeinCache, full_invariants

PREDICATES = ("ep_lt_ey", "bound_violation", "all")
DEDUPS = ("none", "cyclic+inverse")


@dataclass
class SearchConfig:
    max_strands: int = 2
    max_letters: int = 4
    dedup: str = "none"
    predicate: str = "ep_lt_ey"
    out: Optional[str] = None
    jobs: int = 1
    fmt: str = "csv"
    cache: Optional[str] = None

    def validate(self) -> None:
        if self.max_strands < 1 or self.max_letters < 0:
            raise ValueError("max_strands >= 1 and max_letters >= 0 required")
        if self.dedup not in DEDUPS:
            raise ValueError(f"dedup must be one of {DEDUPS}")
        if self.predicate not in PREDICATES:
            raise ValueError(f"predicate must be one of {PREDICATES}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


def load_config(path: str, base: Optional[SearchConfig] = None) -> SearchConfig:
    """Flat key=value file; unknown keys are rejected."""
    cfg = base or SearchConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            value = value.strip()
            if key in ("max_strands", "max_letters", "jobs"):
                setattr(cfg, key, int(value))
            elif key in ("dedup", "predicate", "out", "cache"):
                setattr(cfg, key, value)
            elif key == "format":
                cfg.fmt = value
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    cfg.validate()
    return cfg


def _orbit_min(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least representative under rotation and reversal-with-inversion."""
    if not letters:
        return letters
    best = letters
    rev = tuple(-l for l in reversed(letters))
    for word in (letters, rev):
        for k in range(len(word)):
            cand = word[k:] + word[:k]
            if cand < best:
                best = cand
    return best


def enumerate_braids(cfg: SearchConfig) -> Iterator[BraidWord]:
    """All words on max_strands strands with up to max_letters letters."""
    cfg.validate()
    n = cfg.max_strands
    gens = [i for i in range(-(n - 1), n) if i != 0]
    for length in range(cfg.max_letters + 1):
        for letters in itertools.product(gens, repeat=length):
            if cfg.dedup == "cyclic+inverse" and letters != _orbit_min(letters):
                continue
            yield BraidWord(n, letters)


def _flag(predicate: str, report: BoundReport) -> bool:
    if predicate == "ep_lt_ey":
        return report.witness
    if predicate == "bound_violation":
        return report.mfw_slack is not None and report.mfw_slack < 0
    return True


def _row_for_word(n: int, letters: tuple[int, ...],
                  cache: SkeinCache) -> Optional[BoundReport]:
    b = BraidWord(n, letters)
    if b.component_count() != 1:
        return None
    return mfw_check(b, cache)


def _worker(payload: tuple[int, tuple[tuple[int, ...], ...], Optional[str]]):
    n, words, cache_path = payload
    cache = SkeinCache(cache_path) if cache_path else SkeinCache()
    rows = []
    for letters in words:
        rep = _row_for_word(n, letters, cache)
        rows.append(None if rep is None else rep.to_json())
    cache.close()
    return rows


def search(cfg: SearchConfig) -> list[BoundReport]:
    """Enumerate closures, compute invariants for the knots, emit the report.

    Returns the knot rows in enumeration order; when cfg.out is set the
    report is also written in the configured format.  Flagged rows are
    re-verified from scratch with caching disabled.
    """
    cfg.validate()
    words = [tuple(b.letters) for b in enumerate_braids(cfg)]
    n = cfg.max_strands
    rows: list[Optional[dict]] = []
    if cfg.jobs == 1:
        cache = SkeinCache(cfg.cache) if cfg.cache else SkeinCache()
        try:
            for letters in words:
                rep = _row_for_word(n, letters, cache)
                rows.append(None if rep is None else rep.to_json())
        finally:
            cache.close()
    else:
        chunks = [words[i::cfg.jobs] for i in range(cfg.jobs)]
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(
                _worker,
                [(n, chunk, cfg.cache) for chunk in chunks]))
        # restore enumeration order from the strided split
        rows = [None] * len(words)
        for j, chunk_rows in enumerate(results):
            for i, row in enumerate(chunk_rows):
                rows[j + i * cfg.jobs] = row

    reports: list[BoundReport] = []
    for row in rows:
        if row is None:
            continue
        rep = BoundReport(subject=row["id"], kind=row["kind"], tb=row["tb"],
                          maslov=row["mu"], e_P=row["eP"], e_Y=row["eY"],
                          bound_b_slack=row["slack_b"],
                          bound_c_slack=row["slack_c"],
                          mfw_slack=row["slack_mfw"], witness=row["witness"])
        reports.append(rep)

    # re-verify flagged rows without any cache
    for rep in reports:
        if _flag(cfg.predicate, rep):
            b = _parse_subject(rep.subject)
            fresh = full_invariants(braid_closure(b), SkeinCache())
            if (fresh.e_P, fresh.e_Y) != (rep.e_P, rep.e_Y):
                raise AssertionError(f"re-verification failed for {rep.subject}")

    if cfg.out:
        write_report(reports, cfg.out, cfg.fmt, cfg.predicate)
    return reports


def _parse_subject(subject: str) -> BraidWord:
    head, _, rest = subject.partition(":")
    n = int(head.split()[1])
    letters = [int(tok) for tok in rest.split()]
    return BraidWord(n, letters)


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
