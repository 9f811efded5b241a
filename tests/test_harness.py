import itertools
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from knotpoly import harness
from knotpoly.diagram import BraidWord
from knotpoly.harness import SearchConfig, enumerate_braids, search, load_config
from knotpoly.cli import main

from conftest import EP3_BRAID, WITNESS_BRAID


def test_enumeration_counts():
    cfg = SearchConfig(max_strands=2, max_letters=3, dedup="none")
    words = list(enumerate_braids(cfg))
    nonempty = [w for w in words if w.letters]
    assert len(nonempty) == 14  # 2 + 4 + 8
    assert len(words) == 15


def test_enumeration_single_strand():
    cfg = SearchConfig(max_strands=1, max_letters=5)
    words = list(enumerate_braids(cfg))
    assert len(words) == 1 and words[0].letters == ()


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


def test_dedup_orbit():
    cfg = SearchConfig(max_strands=2, max_letters=3, dedup="cyclic+inverse")
    words = [w.letters for w in enumerate_braids(cfg)]
    # exactly one representative of the pair sigma^3 / sigma^-3
    assert sum(1 for w in words if w in ((1, 1, 1), (-1, -1, -1))) == 1
    # count matches a brute orbit enumeration
    all_words = [w for L in range(4) for w in itertools.product((1, -1), repeat=L)]
    orbits = {_orbit_min(w) for w in all_words}
    assert len(words) == len(orbits)


@pytest.mark.parametrize("n, length", [(1, 5), (2, 0), (2, 10), (3, 8), (4, 7)])
def test_orbit_reps_match_brute_force(n, length):
    """The generated representatives are the product-and-filter list, in order."""
    gens = [i for i in range(-(n - 1), n) if i != 0]
    cfg = SearchConfig(max_strands=n, max_letters=length, dedup="cyclic+inverse")
    words = [w.letters for w in enumerate_braids(cfg)]
    brute = [w for L in range(length + 1)
             for w in itertools.product(gens, repeat=L) if w == _orbit_min(w)]
    assert words == brute


def test_search_rows_are_the_knot_words(monkeypatch):
    """Every word with n <= 4 and at most 6 letters: `_rows` gets the
    enumerator's own `BraidWord`s of the knot words, in enumeration order,
    and a word whose length does not have the parity of n - 1 is dropped
    before its components are counted."""
    counted = []

    class Counted(harness.BraidWord):
        __slots__ = ()

        def component_count(self):
            counted.append(self)
            return super().component_count()
    monkeypatch.setattr(harness, "BraidWord", Counted)
    enumerate_all = harness.enumerate_braids
    yielded, received = [], []
    monkeypatch.setattr(harness, "enumerate_braids",
                        lambda cfg: (yielded.append(b) or b for b in enumerate_all(cfg)))
    monkeypatch.setattr(harness, "_rows",
                        lambda words, workers, cache_path: received.extend(words) or [])
    for n in range(1, 5):
        del yielded[:], received[:], counted[:]
        assert search(SearchConfig(max_strands=n, max_letters=6, dedup="none")) == []
        knots = [b for b in yielded
                 if BraidWord(n, b.letters).component_count() == 1]
        assert len(received) == len(knots)
        assert all(r is k for r, k in zip(received, knots)), n
        parity = [b for b in yielded if not (len(b.letters) - n + 1) % 2]
        assert len(counted) == len(parity)
        assert all(c is p for c, p in zip(counted, parity)), n
        assert len(yielded) == sum((2 * (n - 1)) ** k for k in range(7))


def test_search_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = SearchConfig(max_strands=3, max_letters=4, dedup="cyclic+inverse",
                       predicate="ep_lt_ey", out=str(out1))
    rows = search(cfg)
    cfg.out = str(out2)
    search(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    assert all(r.kind == "braid" for r in rows)
    header = out1.read_text().splitlines()[0]
    assert header == "id,kind,tb,mu,eP,eY,slack_b,slack_c,slack_mfw,witness"


def test_search_parallel_matches_serial(tmp_path):
    base = SearchConfig(max_strands=3, max_letters=3, dedup="none",
                        predicate="all", out=str(tmp_path / "s.csv"), jobs=1)
    search(base)
    par = SearchConfig(max_strands=3, max_letters=3, dedup="none",
                       predicate="all", out=str(tmp_path / "p.csv"), jobs=2)
    search(par)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


class InProcessPool:
    """A fake `ProcessPoolExecutor` that maps in-process, so no process
    starts."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


class TogetherPool(InProcessPool):
    """The in-process pool, but each worker finds the cache file as it was
    when the pool started, as workers that start together do; what a
    worker appends still lands at the end of the shared file."""

    def map(self, fn, payloads):
        payloads = list(payloads)
        path = Path(payloads[0][1])
        start = path.read_bytes() if path.exists() else b""
        results = []
        for payload in payloads:
            now = path.read_bytes() if path.exists() else b""
            path.write_bytes(start)
            results.append(fn(payload))
            path.write_bytes(now + path.read_bytes()[len(start):])
        return results


@pytest.mark.parametrize("cpus, pools", [(None, []), (1, []), (3, [3])])
def test_search_jobs_bounded_by_cpu_count(monkeypatch, cpus, pools):
    """`jobs` above the CPU count asks the pool for one worker per CPU.

    The pool is the in-process fake; one CPU (or an unknown count) runs
    serially.
    """
    asked = []
    settings = dict(max_strands=3, max_letters=4, dedup="none", predicate="all")
    serial = search(SearchConfig(**settings))
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: asked.append(max_workers) or
                        InProcessPool(max_workers))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    assert search(SearchConfig(**settings, jobs=10_000)) == serial
    assert asked == pools


@pytest.mark.parametrize("strands, letters, cpus",
                         [(2, 0, 3), (2, 1, 3), (3, 5, 2), (3, 5, 3)])
def test_search_jobs_split_words_into_contiguous_runs(monkeypatch, strands,
                                                      letters, cpus):
    """Each worker gets one non-empty run of the knot words, the runs in
    enumeration order, at most one per worker; none when there are no
    knot words (2 strands, 0 letters) and fewer than the workers when
    there are fewer words (2 strands, 1 letter)."""
    got, runs = [], []
    rows = harness._rows
    monkeypatch.setattr(harness, "_rows", lambda words, *rest:
                        got.append(words) or rows(words, *rest))

    class RecordingPool(InProcessPool):
        def map(self, fn, payloads):
            payloads = list(payloads)
            runs.extend(words for words, _cache in payloads)
            return map(fn, payloads)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    settings = dict(max_strands=strands, max_letters=letters, predicate="all")
    reports = search(SearchConfig(**settings, jobs=cpus))
    [words] = got
    assert len(runs) <= cpus and all(runs)
    assert list(itertools.chain.from_iterable(runs)) == words
    assert len(reports) == len(words)
    assert reports == search(SearchConfig(**settings))


def _keys(path) -> list:
    return [line.split("\t", 1)[0] for line in path.read_text().splitlines()]


def test_search_jobs_write_each_cache_key_once(tmp_path, monkeypatch):
    """Under `jobs`, the cache file gets the serial run's keys, each once,
    though the workers start together and make some records twice."""
    settings = dict(max_strands=3, max_letters=5, dedup="none")
    serial = search(SearchConfig(**settings, cache=str(tmp_path / "s.txt")))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", TogetherPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert search(SearchConfig(**settings, jobs=2,
                               cache=str(tmp_path / "p.txt"))) == serial
    keys = _keys(tmp_path / "p.txt")
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_keys(tmp_path / "s.txt"))


def test_search_bound_violation_predicate_empty(tmp_path):
    cfg = SearchConfig(max_strands=2, max_letters=4, predicate="bound_violation",
                       out=str(tmp_path / "v.json"), format="json")
    rows = search(cfg)
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["predicate"] == "bound_violation"
    assert all(r.mfw_slack >= 0 for r in rows)


def test_config_file_and_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "search.cfg"
    cfgfile.write_text("max_strands=2\nmax_letters=2\n# comment\npredicate=all\n")
    cfg = load_config(str(cfgfile))
    assert cfg.max_strands == 2 and cfg.predicate == "all"

    # CLI flags override file values
    out = tmp_path / "o.csv"
    code = main(["search", "--config", str(cfgfile), "--max-letters", "1",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    # strands=2, letters<=1: words (), (1,), (-1,); only the curls close to knots
    assert len(rows) == 1 + 2


def test_config_file_bad_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nope=1\n")
    with pytest.raises(ValueError):
        load_config(str(cfgfile))


def test_cli_poly_trefoil(capsys):
    assert main(["poly", "--braid", "braid 2: 1 1 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e_P"] == -5 and out["e_Y"] == -6


def test_cli_front_and_lj(capsys):
    assert main(["front", "--front", "front: L 1; R 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tb"] == -1 and out["maslov"] == 0

    assert main(["lj", "--front", "front: L 1; R 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equal"] is True


def test_cli_jaeger(capsys):
    assert main(["jaeger", "--braid", "braid 2: 1 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equal"] is True


def test_cli_check(capsys):
    assert main(["check", "--braid", "braid 2: 1 1 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slack_mfw"] == 0

    assert main(["check", "--front", "front: L 1; R 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slack_b"] == 0 and out["slack_c"] == 0


def test_cli_sum(capsys):
    assert main(["sum", "--braid", "braid 2: 1 1 1", "--copies", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e_P"] == -9


def test_cli_parse_error(capsys):
    assert main(["poly", "--braid", "braid 2: x"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("front: L 1; X 2; R 1", "item 2: X level 2 out of range 1..1"),
    ("front: L 3; R 1", "item 1: L level 3 out of range 1..1"),
])
def test_cli_front_level_error_names_item_and_written_level(capsys, text, message):
    assert main(["front", "--front", text]) == 2
    assert capsys.readouterr().err == f"error: invalid front: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("braid 2: 0", "token 1: generator index must be nonzero"),
    ("braid 2: 1 x", "token 2: 'x' is not an integer"),
    ("braid 2: 1 1 -2", "token 3: generator -2 out of range for 2 strands"),
])
def test_cli_braid_parse_error_counts_tokens_from_one(capsys, text, message):
    assert main(["poly", "--braid", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_missing_input(capsys):
    assert main(["poly"]) == 2


@pytest.mark.parametrize("copies", ["0", "-1"])
def test_cli_sum_copies_below_one_is_usage_error(capsys, copies):
    assert main(["sum", "--braid", "braid 2: 1 1 1", "--copies", copies]) == 2
    err = capsys.readouterr().err
    assert "--copies" in err


def test_cli_io_error_has_own_code(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "c.txt")
    assert main(["poly", "--braid", "braid 2: 1 1 1", "--cache", missing]) == 3
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (["poly", "--braid", "braid 2: 1 1 1"], ""),
    (["search", "--max-strands", "2", "--max-letters", "3"], "cannot write report "),
])
def test_cli_unwritable_out_is_io_error(tmp_path, capsys, argv, reason):
    """An `--out` in a missing directory is exit 3 with one `io error:` line
    on stderr and nothing on stdout; `search` names the report it could not
    write."""
    out = str(tmp_path / "no" / "such" / "dir" / "out")
    assert main(argv + ["--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"io error: {reason}")
    assert captured.err.count("\n") == 1 and out in captured.err


@pytest.mark.parametrize("content, where", [
    (b"max_strands=2\nmax_letters=two\n", ":2: max_letters must be an integer"),
    (b"max_strands=\xff\n", ": not UTF-8 text"),
])
def test_cli_bad_config_is_usage_error(tmp_path, capsys, content, where):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(content)
    assert main(["search", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfgfile}{where}")


@pytest.mark.parametrize("argv, config, message", [
    (["lj"], None, "provide --front"),
    (["check"], None, "provide --braid or --front"),
    (["sum"], None, "provide at least one --braid"),
    (["poly", "--braid", "brad 2: 1"], None, "expected 'braid <n>:', got 'brad 2'"),
    (["poly", "--braid", "braid x: 1"], None, "strand count 'x' is not an integer"),
    (["front", "--front", "front: L a; R 1"], None, "item 1: level 'a' is not an integer"),
    (["search", "--max-strands", "0"], None,
     "max_strands >= 1 and max_letters >= 0 required"),
    (["search"], "max_strands 2\n", "{config}:1: expected key=value"),
    (["search"], "dedup=foo\n", "dedup must be one of ('none', 'cyclic+inverse')"),
])
def test_cli_usage_errors(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfgfile = tmp_path / "search.cfg"
        cfgfile.write_text(config)
        argv = argv + ["--config", str(cfgfile)]
        message = message.format(config=cfgfile)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_invalid_search_setting_is_usage_error(capsys):
    assert main(["search", "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: jobs must be positive\n"


def test_cli_non_ascii_cache_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xff\xfe\n")
    assert main(["poly", "--braid", "braid 2: 1 1 1", "--cache", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"io error: cache file {path}")


def test_cli_engine_value_error_is_internal_error(monkeypatch, capsys):
    import knotpoly.algebra as algebra

    def broken(*args, **kwargs):
        raise ValueError("undefined degree: zero polynomial")
    monkeypatch.setattr(algebra, "braid_invariants", broken)
    assert main(["poly", "--braid", "braid 2: 1 1 1"]) == 4
    assert (capsys.readouterr().err
            == "internal error: ValueError: undefined degree: zero polynomial\n")


def test_cli_internal_error_has_own_code(monkeypatch, capsys):
    import knotpoly.algebra as algebra

    def broken(*args, **kwargs):
        raise AssertionError("invariant broke")
    monkeypatch.setattr(algebra, "braid_invariants", broken)
    assert main(["poly", "--braid", "braid 2: 1 1 1"]) == 4
    assert (capsys.readouterr().err
            == "internal error: AssertionError: invariant broke\n")


def test_cli_any_other_exception_is_internal_error(monkeypatch, capsys):
    import knotpoly.algebra as algebra

    def broken(*args, **kwargs):
        raise KeyError("ez")
    monkeypatch.setattr(algebra, "braid_invariants", broken)
    assert main(["poly", "--braid", "braid 2: 1 1 1"]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'ez'\n"


def test_cli_deep_recursion_is_usage_error(capsys):
    """A 1,500-crossing connected sum outruns the skein recursion limit (each
    split nests the rest of the sum one level deeper): exit 2, one line
    naming the crossing count."""
    assert main(["sum", "--braid", "braid 2: 1 1 1", "--copies", "500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: input too deep for the skein recursion "
                            "(1500 crossings)\n")


def _cache_records(tmp_path) -> str:
    """The cache file that `poly` on the trefoil closure writes."""
    path = tmp_path / "records.txt"
    assert main(["poly", "--braid", "braid 2: 1 1 1", "--cache", str(path)]) == 0
    return path.read_text()


def test_cli_malformed_cache_record_is_io_error(tmp_path, capsys):
    records = _cache_records(tmp_path)
    path = tmp_path / "c.txt"
    path.write_text('R\t[{"ez":0}]\n' + records)
    capsys.readouterr()
    assert main(["poly", "--braid", "braid 2: 1 1 1", "--cache", str(path)]) == 3
    assert (capsys.readouterr().err
            == f"io error: cache file {path}:1: malformed record\n")


@pytest.mark.parametrize("record", [
    '52\t[{"ez":0,"ea":0,"c":"1"},{"ez":0,"ea":0,"c":"2"}]',  # repeated term
    '52\t[{"ez":0,"ea":0,"c":"0"}]',                          # zero coefficient
    # nested past the JSON decoder's recursion limit
    pytest.param("52\t" + "[" * 100_000, id="nested"),
])
def test_cli_cache_record_to_json_never_writes_is_io_error(tmp_path, capsys, record):
    records = _cache_records(tmp_path)
    path = tmp_path / "c.txt"
    path.write_text(records + record + "\n")
    capsys.readouterr()
    assert main(["poly", "--braid", "braid 2: 1 1 1", "--cache", str(path)]) == 3
    lineno = records.count("\n") + 1
    assert (capsys.readouterr().err
            == f"io error: cache file {path}:{lineno}: malformed record\n")


def test_cli_torn_last_cache_record_is_skipped(tmp_path, capsys):
    """A last line with no newline is an append cut short: it is skipped,
    and cut off the file."""
    argv = ["poly", "--braid", "braid 2: 1 1 1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    records = _cache_records(tmp_path)
    path = tmp_path / "c.txt"
    path.write_text(records + 'R\t[{"ez"')
    capsys.readouterr()
    assert main(argv + ["--cache", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain and captured.err == ""
    assert path.read_text() == records


@pytest.fixture
def opened_caches(monkeypatch):
    """Every SkeinCache the CLI and the search harness open, in order."""
    import knotpoly.cli as cli
    import knotpoly.harness as harness
    from knotpoly.skein import SkeinCache
    opened = []

    class Recorded(SkeinCache):
        def __init__(self, path=None):
            super().__init__(path)
            opened.append(self)
    monkeypatch.setattr(cli, "SkeinCache", Recorded)
    monkeypatch.setattr(harness, "SkeinCache", Recorded)
    return opened


@pytest.mark.parametrize("argv, code", [
    (["poly", "--braid", "braid 2: 1 1 1"], 0),
    (["jaeger", "--braid", "braid 2: 1 1"], 0),
    (["lj", "--front", "front: L 1; R 1"], 0),
    (["check", "--braid", "braid 2: 1 1 1"], 0),
    (["sum", "--braid", "braid 2: 1 1 1"], 0),
    (["poly", "--braid", "braid 2: x"], 2),
    (["sum", "--braid", "braid 2: 1 1 1", "--copies", "0"], 2),
    (["search", "--max-strands", "2", "--max-letters", "2"], 0),
])
def test_cli_closes_cache_file(tmp_path, capsys, opened_caches, argv, code):
    argv = argv + ["--cache", str(tmp_path / "c.txt")]
    if argv[0] == "search":
        argv += ["--out", str(tmp_path / "r.json")]
    assert main(argv) == code
    assert opened_caches and all(c.path for c in opened_caches)
    assert all(c._fh is None for c in opened_caches)


def test_cli_closes_cache_file_on_internal_error(tmp_path, monkeypatch, capsys,
                                                 opened_caches):
    import knotpoly.algebra as algebra

    def broken(*args, **kwargs):
        raise AssertionError("invariant broke")
    monkeypatch.setattr(algebra, "braid_invariants", broken)
    argv = ["poly", "--braid", "braid 2: 1 1 1", "--cache", str(tmp_path / "c.txt")]
    assert main(argv) == 4
    assert len(opened_caches) == 1 and opened_caches[0]._fh is None


def test_cli_search(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["search", "--max-strands", "2", "--max-letters", "3",
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    assert out.exists()
    assert "rows=" in capsys.readouterr().out


# the exact bytes `check` prints, pinning the column order and cell format
CHECK_OUTPUT = {
    ("--braid", "braid 2: 1 1 1", "csv"):
        "id,kind,tb,mu,eP,eY,slack_b,slack_c,slack_mfw,witness\n"
        "braid 2: 1 1 1,braid,,,-5,-6,,,0,0\n",
    ("--braid", "braid 2: 1 1 1", "json"):
        '{\n  "eP": -5,\n  "eY": -6,\n  "id": "braid 2: 1 1 1",\n  "kind": "braid",\n'
        '  "mu": null,\n  "slack_b": null,\n  "slack_c": null,\n  "slack_mfw": 0,\n'
        '  "tb": null,\n  "witness": false\n}\n',
    ("--front", "front: L 1; X 1; R 1", "csv"):
        "id,kind,tb,mu,eP,eY,slack_b,slack_c,slack_mfw,witness\n"
        "front,front,-2,1,-1,-1,0,1,,0\n",
    ("--front", "front: L 1; X 1; R 1", "json"):
        '{\n  "eP": -1,\n  "eY": -1,\n  "id": "front",\n  "kind": "front",\n'
        '  "mu": 1,\n  "slack_b": 0,\n  "slack_c": 1,\n  "slack_mfw": null,\n'
        '  "tb": -2,\n  "witness": false\n}\n',
}


@pytest.mark.parametrize("flag, text, fmt", sorted(CHECK_OUTPUT))
def test_cli_check_output_bytes(capsys, flag, text, fmt):
    assert main(["check", flag, text, "--format", fmt]) == 0
    assert capsys.readouterr().out == CHECK_OUTPUT[flag, text, fmt]


COMMAND_FLAGS = {
    "poly": {"braid", "front", "cache", "out"},
    "front": {"front", "out"},
    "jaeger": {"braid", "front", "cache", "out"},
    "lj": {"front", "cache", "out"},
    "check": {"braid", "front", "cache", "out", "format"},
    "sum": {"braid", "copies", "cache", "out"},
    "search": {"config", "max-strands", "max-letters", "dedup", "predicate",
               "out", "jobs", "format", "cache"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_cli_help_lists_exactly_the_command_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = re.findall(r"^  (?:-h, )?--([a-z-]+)", capsys.readouterr().out, re.M)
    assert sorted(flags) == sorted(COMMAND_FLAGS[command] | {"help"})


@pytest.mark.parametrize("argv", [
    ["poly", "--braid", "braid 2: 1 1 1", "--format", "csv"],
    ["front", "--front", "front: L 1; R 1", "--cache", "x"],
])
def test_cli_flag_the_command_lacks_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _records(path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_search_fills_env_cache(tmp_path, monkeypatch, capsys, jobs):
    env_file = tmp_path / "env.txt"
    monkeypatch.setenv("KNOTPOLY_CACHE", str(env_file))
    assert main(["search", "--max-strands", "2", "--max-letters", "3",
                 "--jobs", jobs, "--out", str(tmp_path / "r.csv")]) == 0
    assert _records(env_file) > 0


@pytest.mark.parametrize("argv", [
    ["poly", "--braid", "braid 2: 1 1 1"],
    ["search", "--max-strands", "2", "--max-letters", "3"],
])
def test_cli_cache_flag_beats_env(tmp_path, monkeypatch, capsys, argv):
    env_file, flag_file = tmp_path / "env.txt", tmp_path / "flag.txt"
    monkeypatch.setenv("KNOTPOLY_CACHE", str(env_file))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--cache", str(flag_file)]) == 0
    assert _records(flag_file) > 0 and not env_file.exists()


def test_cli_search_config_cache_between_flag_and_env(tmp_path, monkeypatch,
                                                      capsys):
    env_file, cfg_file = tmp_path / "env.txt", tmp_path / "cfg.txt"
    cfgfile = tmp_path / "search.cfg"
    cfgfile.write_text(f"max_letters=3\ncache={cfg_file}\n")
    monkeypatch.setenv("KNOTPOLY_CACHE", str(env_file))
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", str(cfgfile)]) == 0
    assert _records(cfg_file) > 0 and not env_file.exists()


def test_cli_poly_front(capsys):
    assert main(["poly", "--front", "front: L 1; X 1; R 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["e_P"], out["e_Y"], out["w"]) == (-1, -1, 2)  # w = -tb


def test_cli_out_writes_stdout_bytes(tmp_path, capsys):
    argv = ["jaeger", "--braid", "braid 2: 1 1"]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "cert.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == shown


def test_cli_sum_of_two_braids(capsys):
    assert main(["sum", "--braid", "braid 2: 1 1 1", "--copies", "2"]) == 0
    copies = capsys.readouterr().out
    assert main(["sum", "--braid", "braid 2: 1 1 1", "--braid", "braid 2: 1 1 1"]) == 0
    assert capsys.readouterr().out == copies
    assert main(["sum", "--braid", "braid 2: 1 1 1", "--braid", "braid 2: 1 1 1",
                 "--copies", "2"]) == 2
    assert "--copies > 1" in capsys.readouterr().err


def _readme_cli_lines() -> list[str]:
    """The `knotpoly` lines of the sh block under README's `## CLI`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("knotpoly ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == 0


def test_cli_fixture_braids(capsys):
    assert main(["poly", "--braid", EP3_BRAID]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e_P"] == 3


def test_witness_word_flagged_when_injected(cache):
    """The known witness word, fed through the search row pipeline."""
    from knotpoly.harness import _flag, mfw_check
    from knotpoly.diagram import parse_braid
    b = parse_braid(WITNESS_BRAID)
    rep = mfw_check(b, cache)
    assert _flag("ep_lt_ey", rep)
    assert rep.witness and rep.e_P < rep.e_Y
