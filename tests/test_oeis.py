from types import SimpleNamespace

import pytest

from gesselwalks import (
    CapExceededError,
    FixtureError,
    formulas,
    gessel_closed_form,
    oeis,
    one_pair_closed,
)
from gesselwalks.formulas import even_marker_sum_free_closed
from gesselwalks.oeis import MAX_INDEX, SEQUENCE_IDS, compare, computed_terms, load_fixture


def test_sequence_ids():
    assert set(SEQUENCE_IDS) == {"A135404", "A000531", "A045720"}


def test_load_fixtures_and_offsets():
    bf = load_fixture("A135404")
    assert bf.offset == 0
    assert bf.terms[0] == 1
    assert bf.terms[4] == 782
    bf2 = load_fixture("A000531")
    assert bf2.offset == 1
    assert bf2.terms[1] == 1
    assert bf2.terms[4] == 187
    bf3 = load_fixture("A045720")
    assert bf3.offset == 0
    assert bf3.terms[0] == 1
    assert bf3.terms[6] == 35401


def test_unknown_sequence():
    with pytest.raises(FixtureError):
        load_fixture("A000045")


def test_computed_terms_route():
    assert computed_terms("A135404", range(6)) == {
        n: gessel_closed_form(n) for n in range(6)
    }
    assert computed_terms("A000531", range(1, 6)) == {
        n: one_pair_closed(n) for n in range(1, 6)
    }
    assert computed_terms("A045720", range(5)) == {
        k: even_marker_sum_free_closed(k + 3) for k in range(5)
    }


def test_compare_computes_only_fixture_indices(monkeypatch):
    # the fixture holds n = 0..13, so a large n_max costs one closed
    # sequence up to 13
    seen = []
    closed = formulas.gessel_closed_sequence
    monkeypatch.setattr(
        formulas, "gessel_closed_sequence", lambda n_max: seen.append(n_max) or closed(n_max)
    )
    rows = compare("A135404", 3000)
    assert [row["index"] for row in rows] == list(range(14))
    assert seen == [13]
    assert all(row["match"] for row in rows)


def test_computed_terms_rejects_a_negative_index():
    with pytest.raises(ValueError, match="n must be >= 0"):
        computed_terms("A135404", [-1, 2])


@pytest.mark.parametrize("seq_id", SEQUENCE_IDS)
def test_compare_matches(seq_id):
    rows = compare(seq_id, 10)
    assert rows
    assert all(row["match"] for row in rows)
    assert all(row["computed"] == row["reference"] for row in rows)


def test_cached_bfile_is_read_offline(bfile_cache):
    path = bfile_cache / "upstream.txt"
    path.write_text("# comment line\n0 1\n1 2\n2 11\n")
    for given in (path, str(path)):
        rows = compare("A135404", 2, path=given)
        assert [(r["index"], r["reference"]) for r in rows] == [(0, "1"), (1, "2"), (2, "11")]
        assert all(r["match"] for r in rows)


def test_missing_package_data(tmp_path, monkeypatch):
    monkeypatch.setattr(oeis, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(FixtureError, match="b135404.txt: No such file or directory"):
        load_fixture("A135404")


def test_malformed_bfile(bfile_cache):
    path = bfile_cache / "b135404.txt"
    path.write_text("0 1 extra\n")
    with pytest.raises(FixtureError):
        compare("A135404", 3, path=path)


@pytest.mark.parametrize(
    "seq_id, line",
    [
        ("A000531", "0 1"),  # below the offset 1 of A000531
        ("A135404", "-1 1"),
        ("A135404", "x y"),
        ("A135404", "1 2.5"),
    ],
)
def test_bad_bfile_line_names_the_sequence_and_the_line(bfile_cache, seq_id, line):
    path = bfile_cache / f"b{seq_id[1:]}.txt"
    path.write_text(f"{line}\n2 11\n")
    with pytest.raises(FixtureError, match=f"{seq_id}: {line!r}"):
        compare(seq_id, 3, path=path)


def test_compare_no_overlap(bfile_cache):
    path = bfile_cache / "b135404.txt"
    path.write_text("50 12345\n")
    with pytest.raises(FixtureError):
        compare("A135404", 3, path=path)


def test_compare_detects_mismatch(bfile_cache):
    path = bfile_cache / "b135404.txt"
    path.write_text("0 1\n1 3\n")
    rows = compare("A135404", 1, path=path)
    assert [r["match"] for r in rows] == [True, False]


def _no_route(*args):
    raise AssertionError("computed a term above the index cap")


@pytest.mark.parametrize("seq_id", SEQUENCE_IDS)
def test_index_cap_fires_before_any_term_is_computed(monkeypatch, seq_id):
    for name in ("gessel_closed_sequence", "one_pair_closed", "even_marker_sum_free_closed"):
        monkeypatch.setattr(formulas, name, _no_route)
    with pytest.raises(CapExceededError, match=f"index {MAX_INDEX + 1} of {seq_id} exceeds cap"):
        computed_terms(seq_id, [1, 2, MAX_INDEX + 1])


def test_index_cap_admits_its_own_index():
    assert computed_terms("A000531", [MAX_INDEX]) == {MAX_INDEX: one_pair_closed(MAX_INDEX)}

