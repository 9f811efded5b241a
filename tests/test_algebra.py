"""The algebra engines against the skein engines, closed forms and the
mirror property, and how `poly --braid` and `search` use them."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from knotpoly import algebra, harness
from knotpoly.algebra import (bmw_D, hecke_R, braid_invariants, _basis_tangle,
                              _eval)
from knotpoly.cli import main
from knotpoly.diagram import (DIAGRAM_KINDS, MAX_STRANDS, BraidWord, DiagramError,
                              ParseError, braid_closure, parse_braid, scan)
from knotpoly.harness import SearchConfig
from knotpoly.laurent import LaurentPoly
from knotpoly.skein import (DELTA, DELTA_D, SkeinCache, descend, full_invariants,
                            homfly_R, kauffman_D)

from conftest import (A, ZVAR, WITNESS_BRAID, random_braid, reference_descend,
                      reference_walk)

ROOT = Path(__file__).resolve().parents[1]


def _matchings(points):
    """Every perfect matching of `points`, as {point: partner}."""
    if not points:
        yield {}
        return
    first = points[0]
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1:]
        for m in _matchings(rest):
            yield {**m, first: points[j], points[j]: first}


@pytest.mark.parametrize("n", range(5))
def test_basis_tangles_expand_to_themselves(n):
    """Each R_b is descending with no self-crossing: its expansion is R_b."""
    count = 0
    for m in _matchings(list(range(2 * n))):
        b = tuple(m[e] for e in range(2 * n))
        assert _eval(n, _basis_tangle(n, b), {}) == {b: LaurentPoly.one()}, b
        count += 1
    assert count == [1, 1, 3, 15, 105][n]  # (2n-1)!!


def _random_tangle(rng: random.Random, n: int, length: int) -> tuple:
    """Random events on a stack of n strands, closed back to n strands."""
    events, k = [], n
    for _ in range(length):
        kind = rng.choice(("cup", "cap", "x", "x") if k >= 2 else ("cup",))
        if kind == "x":
            events.append(("x", rng.randint(0, k - 2), rng.choice((1, -1))))
        else:
            events.append((kind, rng.randint(0, k if kind == "cup" else k - 2)))
            k += 2 if kind == "cup" else -2
    for k in range(k, n, -2):
        events.append(("cap", rng.randint(0, k - 2)))
    for k in range(k, n, 2):
        events.append(("cup", rng.randint(0, k)))
    return tuple(events)


def _check_tangle_scan(events: tuple, n: int) -> None:
    """`scan(ends=n)` and `descend` against the reference walk."""
    sc = scan(events, DIAGRAM_KINDS, ends=n)
    ref = reference_walk(events, ends=n)
    assert sc.dirs == ref.dirs
    assert (tuple(sc.components), tuple(sc.component_of)) == \
        (ref.components, ref.component_of)
    assert sc.right_ends == ref.points[n:]
    assert list(sc.cup_lows) == [lo for _i, lo, _hi in ref.cup_events]
    assert all(sc.cap_mate[t] == m for t, m in ref.cap_pair.items())
    assert tuple(sc.crossings) == ref.cross_info
    # the Brauer matching and the loop count, read off the scan's components
    points = [*range(n), *sc.right_ends]
    brauer = tuple(next(f for f, u in enumerate(points)
                        if f != e and sc.component_of[u] == sc.component_of[t])
                   for e, t in enumerate(points))
    assert brauer == ref.brauer
    assert len(sc.components) - n == ref.loops
    got, viols, writhe = descend(events, ends=n)
    assert (len(got.components), got.dirs, writhe, viols) == \
        reference_descend(events, ends=n)
    # given dirs must orient each arc from its first end point
    assert scan(events, DIAGRAM_KINDS, sc.dirs, ends=n).dirs == sc.dirs
    if n:
        arc = sc.components[0]
        flipped = tuple(-d if c == arc else d for d, c in zip(sc.dirs, sc.component_of))
        for check in (lambda: scan(events, DIAGRAM_KINDS, flipped, ends=n),
                      lambda: reference_walk(events, dirs=flipped, ends=n)):
            with pytest.raises(DiagramError):
                check()


@pytest.mark.parametrize("n", range(5))
def test_tangle_scan_matches_reference_on_basis_tangles(n):
    for m in _matchings(list(range(2 * n))):
        tangle = _basis_tangle(n, tuple(m[e] for e in range(2 * n)))
        _check_tangle_scan(tangle, n)
        if n > 1:  # and the tangles of the structure constants
            _check_tangle_scan(tangle + (("x", n - 2, -1),), n)


def test_tangle_scan_matches_reference_on_random_tangles():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 4)
        _check_tangle_scan(_random_tangle(rng, n, rng.randint(0, 12)), n)


def test_tangle_scan_rejects_wrong_end_width():
    tangle = _basis_tangle(2, (1, 0, 3, 2))
    for events, n in ((tangle + (("cup", 0),), 2), ((("cap", 0),), 2)):
        for check in (lambda: scan(events, DIAGRAM_KINDS, ends=n),
                      lambda: reference_walk(events, ends=n)):
            with pytest.raises(DiagramError):
                check()


def _check_agreement(b: BraidWord, cache: SkeinCache, tables: dict) -> None:
    d = braid_closure(b)
    assert hecke_R(b, tables) == homfly_R(d, cache), b.text()
    assert bmw_D(b, tables) == kauffman_D(d, cache), b.text()


def test_witness_agrees_with_skein(cache):
    _check_agreement(parse_braid(WITNESS_BRAID), cache, {})


def test_criterion_07_sample_agrees_with_skein(cache):
    """The first 150 braids of criterion 07's corpus, links included."""
    rng = random.Random(77)
    tables = {}
    for _ in range(150):
        _check_agreement(random_braid(rng, max_strands=5, max_letters=10),
                         cache, tables)


def test_criterion_11_sample_agrees_with_skein(cache):
    """The first 150 braids of criterion 11's corpus and their
    stabilizations, links included."""
    rng = random.Random(811)
    tables = {}
    for _ in range(150):
        b = random_braid(rng, max_strands=4, max_letters=8)
        _check_agreement(b, cache, tables)
        for sgn in (1, -1):
            wide = BraidWord(b.strands + 1, b.letters + (sgn * b.strands,))
            _check_agreement(wide, cache, tables)


def _torus_2(count: int):
    """R and D of the closures of sigma_1^n, n < count, from the skein
    relations alone: R_n = R_(n-2) + z R_(n-1), and
    D_n = D_(n-2) + z (D_(n-1) - a^-(n-1) delta_D)."""
    R = [DELTA * DELTA, A * DELTA]
    D = [DELTA_D * DELTA_D, A * DELTA_D]
    for n in range(2, count):
        R.append(R[n - 2] + ZVAR * R[n - 1])
        D.append(D[n - 2] + ZVAR * (D[n - 1] - DELTA_D.shift(0, -(n - 1))))
    return R, D


def test_torus_2_closed_forms():
    R, D = _torus_2(16)
    tables = {}
    for n in range(16):
        b = BraidWord(2, [1] * n)
        d = braid_closure(b)
        assert hecke_R(b, tables) == R[n] == homfly_R(d, SkeinCache()), n
        assert bmw_D(b, tables) == D[n] == kauffman_D(d, SkeinCache()), n


def _mirrored(p: LaurentPoly) -> LaurentPoly:
    """p(-z, a^-1)."""
    return LaurentPoly({(ez, -ea): -c if ez % 2 else c
                        for (ez, ea), c in p.terms.items()})


def test_mirror_property():
    """Switching every crossing takes R(z, a) to R(-z, a^-1), and D alike."""
    rng = random.Random(12)
    tables = {}
    for k in range(60):
        b = random_braid(rng, max_strands=4, max_letters=8)
        m = BraidWord(b.strands, [-l for l in b.letters])
        assert hecke_R(m, tables) == _mirrored(hecke_R(b, tables)), b.text()
        assert bmw_D(m, tables) == _mirrored(bmw_D(b, tables)), b.text()
        if k < 20:  # the skein engines, on a share of the same closures
            cache = SkeinCache()
            d, dm = braid_closure(b), braid_closure(m)
            assert homfly_R(dm, cache) == _mirrored(homfly_R(d, cache))
            assert kauffman_D(dm, cache) == _mirrored(kauffman_D(d, cache))


def test_braid_invariants_match_full_invariants(cache):
    rng = random.Random(5)
    for _ in range(40):
        b = random_braid(rng, max_strands=5, max_letters=9)
        assert braid_invariants(b, SkeinCache()) == \
            full_invariants(braid_closure(b), cache)


def test_package_import_leaves_algebra_out():
    """`import knotpoly` does not compile or run `algebra.py`: a process
    that runs no algebra engine does not pay for it at start-up."""
    code = "import sys, knotpoly; sys.exit('knotpoly.algebra' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(algebra.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- the cache file ----------------------------------------------------------


def _records(path) -> dict:
    lines = Path(path).read_text().splitlines()
    return dict(line.split("\t", 1) for line in lines)


@pytest.mark.parametrize("word", ["braid 2: 1 1 1", "braid 4: 1 1 -2 1 3 -2 3",
                                  "braid 3: 1 -2 1 -2 2 2"])
def test_poly_cache_records_are_skein_records(tmp_path, monkeypatch, capsys, word):
    """`poly --braid --cache F` writes R and D under the skein engines' keys
    for the reduced closure, with the skein values; a second run reads them
    and builds no algebra table, and `check --braid` then hits them."""
    algebra_file = tmp_path / "algebra.txt"
    assert main(["poly", "--braid", word, "--cache", str(algebra_file)]) == 0
    first = capsys.readouterr().out
    written = _records(algebra_file)
    assert len(written) == 2

    skein_file = tmp_path / "skein.txt"
    skein_cache = SkeinCache(str(skein_file))
    try:
        full_invariants(braid_closure(parse_braid(word)), skein_cache)
    finally:
        skein_cache.close()
    skein_records = _records(skein_file)
    assert {k: skein_records[k] for k in written} == written

    import knotpoly.cli as cli
    opened = []

    class Recorded(SkeinCache):
        def __init__(self, path=None):
            super().__init__(path)
            opened.append(self)
    monkeypatch.setattr(cli, "SkeinCache", Recorded)
    before = algebra_file.read_bytes()
    assert main(["poly", "--braid", word, "--cache", str(algebra_file)]) == 0
    assert capsys.readouterr().out == first
    assert len(opened) == 1 and opened[0].tables == {}
    assert main(["check", "--braid", word, "--cache", str(algebra_file)]) == 0
    assert algebra_file.read_bytes() == before


# -- search re-verification ---------------------------------------------------


def _inject(monkeypatch, word: str) -> None:
    """Make the search enumerate exactly one word."""
    b = parse_braid(word)
    monkeypatch.setattr(harness, "enumerate_braids", lambda cfg: iter([b]))


def test_search_reverifies_injected_witness(monkeypatch, cache):
    _inject(monkeypatch, WITNESS_BRAID)
    # the row comes from the skein engines on the suite's shared memo
    mfw_check = harness.mfw_check
    monkeypatch.setattr(harness, "mfw_check", lambda b, _cache: mfw_check(b, cache))
    calls = []
    for name in ("hecke_R", "bmw_D"):
        engine = getattr(algebra, name)
        monkeypatch.setattr(algebra, name,
                            lambda b, tables, engine=engine: calls.append(b) or engine(b, tables))
    reports = harness.search(SearchConfig(max_strands=5, max_letters=20))
    assert len(reports) == 1 and reports[0].witness
    assert [b.text() for b in calls] == [WITNESS_BRAID] * 2


def test_search_disagreeing_engine_is_verification_failure(monkeypatch, capsys,
                                                           tmp_path):
    _inject(monkeypatch, "braid 2: 1 1 1")
    monkeypatch.setattr(algebra, "bmw_D", lambda b, tables: bmw_D(b).shift(0, 1))
    out = tmp_path / "r.csv"
    assert main(["search", "--max-strands", "2", "--max-letters", "3",
                 "--predicate", "all", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("verification failed: re-verification failed for "
                            "braid 2: 1 1 1\n")
    assert not out.exists()


# -- the strand ceiling -------------------------------------------------------


def test_strand_ceiling_in_parse_and_config():
    parse_braid(f"braid {MAX_STRANDS}: 1")
    with pytest.raises(ParseError, match=f"ceiling of {MAX_STRANDS}"):
        parse_braid(f"braid {MAX_STRANDS + 1}: 1")
    with pytest.raises(ParseError, match=f"ceiling of {MAX_STRANDS}"):
        parse_braid("braid 99999999: 1")
    SearchConfig(max_strands=MAX_STRANDS).validate()
    with pytest.raises(ParseError, match=f"ceiling of {MAX_STRANDS}"):
        SearchConfig(max_strands=MAX_STRANDS + 1).validate()


def test_strand_ceiling_is_usage_error_before_any_closure(monkeypatch, capsys):
    import knotpoly.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a closure was built")
    monkeypatch.setattr(cli, "braid_closure", refuse)
    monkeypatch.setattr(algebra, "braid_invariants", refuse)
    wide = f"braid {MAX_STRANDS + 1}: 1"
    for argv in (["poly", "--braid", wide], ["check", "--braid", wide],
                 ["search", "--max-strands", str(MAX_STRANDS + 1)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"ceiling of {MAX_STRANDS}" in err


def test_strand_ceiling_admits_documented_inputs():
    """Every strand count in the tests (but this file's refused ones), README
    and the benchmark inputs."""
    counts = []
    for path in [*(ROOT / "tests").glob("*.py"), ROOT / "README.md",
                 *(ROOT / "perfbench").glob("*.py")]:
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        counts += re.findall(r"braid (\d+):", text)
        counts += re.findall(r"max[_-]strands\W+(\d+)", text)
    assert counts and max(map(int, counts)) <= MAX_STRANDS
