"""Seeded fuzzing of the command line: mutated braid, front, search-config
and cache-file inputs end with a documented exit code (0-3) and at most one
line on stderr, never a traceback.

Mutations are byte flips, truncations and large numbers.  Large numbers go
only where nothing is built from them: strand counts, generators and front
levels, which the parsers bound, a config's `max_strands`, and the numbers
of a cache record.  Searches are capped at 3 letters by flag.
"""

import random
import re

import pytest

from knotpoly.cli import main

SEED = 2026
BRAIDS = ("braid 2: 1 1 1", "braid 3: 1 -2 1 -2", "braid 4: 1 2 -3 1 -2",
          "braid 1:")
FRONTS = ("front: L 1; R 1", "front: L 1; X 1; R 1",
          "front: L 1; L 1; X 2; R 1; R 1",
          "front: L 1; L 1; L 1; X 2; X 4; R 3; X 2; R 1; R 1")
CONFIG = (b"# fuzzed\nmax_strands=3\nmax_letters=3\ndedup=cyclic+inverse\n"
          b"predicate=ep_lt_ey\nformat=csv\njobs=1\ncache=c.txt\n")
LARGE = ("99999999", "18446744073709551617", "9" * 5000, "-99999999")
NUMBER = re.compile(rb"-?\d+")


def _flip(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]


def _truncate(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(len(data) + 1)]


def _large(data: bytes, rng: random.Random, where=NUMBER) -> bytes:
    """One number of `data` (one match of `where`) replaced by a large one."""
    spans = [m.span(m.lastindex or 0) for m in where.finditer(data)]
    if not spans:
        return data
    start, end = rng.choice(spans)
    return data[:start] + rng.choice(LARGE).encode() + data[end:]


def _mutants(seeds, rng: random.Random, count: int, large=_large):
    """`count` mutants of the byte strings in `seeds`: one or two
    mutations each, mostly one."""
    ops = (_flip, _flip, _truncate, large)
    for _ in range(count):
        data = rng.choice(seeds)
        for _ in range(rng.choice((1, 1, 2))):
            data = rng.choice(ops)(data, rng)
        yield data


def _run(capsys, argv) -> None:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)


def test_fuzz_braid_and_front_inputs(capsys):
    rng = random.Random(SEED)
    for data in _mutants([b.encode() for b in BRAIDS], rng, 120):
        command = rng.choice(("poly", "jaeger", "check", "sum"))
        _run(capsys, [command, "--braid=" + data.decode("latin-1")])
    for data in _mutants([f.encode() for f in FRONTS], rng, 120):
        command = rng.choice(("poly", "front", "lj", "check", "jaeger"))
        _run(capsys, [command, "--front=" + data.decode("latin-1")])


def test_fuzz_search_config(tmp_path, monkeypatch, capsys):
    """The config's own `max_letters`, `jobs` and `out` are overridden by
    flag, so that no mutant runs a long search, starts a pool or writes
    outside the test's directory."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED + 1)
    strands = re.compile(rb"max_strands=(\d+)")
    path = tmp_path / "fuzz.cfg"
    for data in _mutants([CONFIG], rng, 60,
                         lambda d, r: _large(d, r, strands)):
        path.write_bytes(data)
        _run(capsys, ["search", "--config", str(path), "--max-letters", "3",
                      "--jobs", "1", "--out", str(tmp_path / "report")])


@pytest.fixture(scope="module")
def cache_records(tmp_path_factory) -> bytes:
    """The cache file that `poly` writes for the trefoil closure."""
    path = tmp_path_factory.mktemp("records") / "records.txt"
    assert main(["poly", "--braid", "braid 2: 1 1 1", "--cache", str(path)]) == 0
    return path.read_bytes()


def test_fuzz_cache_file(tmp_path, capsys, cache_records):
    rng = random.Random(SEED + 2)
    nested = b"52\t" + b"[" * 100_000 + b"\n"  # past the decoder's recursion
    path = tmp_path / "cache.txt"
    for data in [nested, *_mutants([cache_records], rng, 150)]:
        path.write_bytes(data)
        command = rng.choice(("poly", "check"))
        _run(capsys, [command, "--braid", "braid 2: 1 1 1", "--cache", str(path)])
