import io
import os
import urllib.request
from types import SimpleNamespace

import pytest

from gesselwalks import FixtureError, gessel_closed_form, oeis, one_pair_closed
from gesselwalks.formulas import even_marker_sum_free_closed
from gesselwalks.oeis import (
    CACHE_ENV,
    SEQUENCE_IDS,
    compare,
    computed_terms,
    fetch_bfile,
    load_fixture,
)


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
    from gesselwalks import formulas

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
    (bfile_cache / "b135404.txt").write_text("# comment line\n0 1\n1 2\n2 11\n")
    bf = fetch_bfile("A135404")
    assert bf.terms == {0: 1, 1: 2, 2: 11}
    rows = compare("A135404", 2, fetch=True)
    assert len(rows) == 3 and all(r["match"] for r in rows)


def test_missing_package_data(tmp_path, monkeypatch):
    monkeypatch.setattr(oeis, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(FixtureError, match="fixtures.json missing"):
        load_fixture("A135404")
    (tmp_path / "fixtures.json").write_text('{"A135404": {"file": "b135404.txt", "offset": 0}}')
    with pytest.raises(FixtureError, match="b135404.txt missing"):
        load_fixture("A135404")


def test_malformed_bfile(bfile_cache):
    (bfile_cache / "b135404.txt").write_text("0 1 extra\n")
    with pytest.raises(FixtureError):
        fetch_bfile("A135404")


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
    (bfile_cache / f"b{seq_id[1:]}.txt").write_text(f"{line}\n2 11\n")
    with pytest.raises(FixtureError, match=f"{seq_id}: {line!r}"):
        compare(seq_id, 3, fetch=True)


def test_compare_no_overlap(bfile_cache):
    (bfile_cache / "b135404.txt").write_text("50 12345\n")
    with pytest.raises(FixtureError):
        compare("A135404", 3, fetch=True)


def test_compare_detects_mismatch(bfile_cache):
    (bfile_cache / "b135404.txt").write_text("0 1\n1 3\n")
    rows = compare("A135404", 1, fetch=True)
    assert [r["match"] for r in rows] == [True, False]


class _DroppedResponse(io.BytesIO):
    def read(self, *args):
        raise OSError("connection reset")


def test_fetch_writes_one_cache_file(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(
        urllib.request, "urlopen", lambda url, timeout: io.BytesIO(b"0 1\n1 2\n2 11\n")
    )
    bf = fetch_bfile("A135404")
    assert bf.terms == {0: 1, 1: 2, 2: 11}
    assert [p.name for p in tmp_path.iterdir()] == ["b135404.txt"]


def test_fetch_failure_leaves_no_cache_file(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: _DroppedResponse())
    with pytest.raises(OSError):
        fetch_bfile("A135404")
    assert list(tmp_path.iterdir()) == []


def test_fetch_failed_rename_leaves_no_cache_file(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: io.BytesIO(b"0 1\n"))

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(OSError):
        fetch_bfile("A135404")
    assert list(tmp_path.iterdir()) == []
