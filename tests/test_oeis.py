from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(FixtureError, match="unsupported sequence id A999999"):
        computed_terms("A999999", [1])


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


_SPACE = st.sampled_from(["", " ", "\t", "  "])
_LINES = st.one_of(
    # index -2..6 reaches below every offset and repeats often
    st.tuples(st.just("pair"), st.integers(-2, 6), st.integers(-(10**25), 10**25)),
    st.tuples(st.just("comment"), st.text("ab 12#.-", max_size=8).map("#".__add__)),
    st.tuples(st.just("blank"), _SPACE),
    st.tuples(st.just("bad"), st.one_of(
        st.lists(st.integers(-9, 99).map(str), max_size=4).filter(lambda t: len(t) not in (0, 2)),
        st.lists(st.text("ab.,x-", min_size=1, max_size=3), min_size=1, max_size=3),
    ).map(" ".join)),
)


@given(
    st.sampled_from(sorted(oeis.OFFSETS.items())),
    st.lists(st.tuples(_LINES, _SPACE, _SPACE), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_read_bfile_text_gives_its_pairs_or_a_fixture_error(seq, lines):
    # valid, comment, blank, malformed, below-offset and repeated-index lines
    # in any mix: the terms are the pairs, or the first bad line is named
    seq_id, offset = seq
    text, terms, error = [], {}, None
    for (kind, *body), left, right in lines:
        line = f"{body[0]} {body[1]}" if kind == "pair" else body[0]
        text.append(left + line + right)
        if error or kind in ("comment", "blank"):
            continue
        if kind == "bad":
            error = f"bad b-file line for {seq_id}: {line!r}"
        elif body[0] < offset:
            error = f"b-file index below the offset {offset} of {seq_id}: {line!r}"
        elif body[0] in terms:
            error = f"repeated b-file index for {seq_id}: {line!r}"
        else:
            terms[body[0]] = body[1]
    if not (error or terms):
        error = f"empty b-file for {seq_id}"
    try:
        got = oeis._read_bfile_text("\n".join(text), seq_id, offset)
    except FixtureError as exc:
        assert str(exc) == error
    else:
        assert (error, got) == (None, (seq_id, offset, terms))


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

