import pytest

from gesselwalks import (
    GesselWord,
    Letter,
    MalformedWordError,
    is_complete,
    is_gessel_word,
    letter_profile,
)


def test_letter_codes_round_trip():
    for idx in range(1, 5):
        for barred in (False, True):
            l = Letter(idx, barred)
            assert Letter.from_code(l.code) == l
    assert Letter(2, False).code == 2
    assert Letter(2, True).code == -2


def test_letter_str():
    assert str(Letter(1, False)) == "1"
    assert str(Letter(3, True)) == "-3"


def test_parse_and_str_round_trip():
    w = GesselWord.parse("2 -1 2 1 -2 -2")
    assert str(w) == "2 -1 2 1 -2 -2"
    assert w.codes() == (2, -1, 2, 1, -2, -2)
    assert len(w) == 6
    assert w.d == 2


def test_parse_rejects_garbage():
    with pytest.raises(MalformedWordError):
        GesselWord.parse("1 0 2")
    with pytest.raises(MalformedWordError):
        GesselWord.parse("1 x")
    with pytest.raises(MalformedWordError):
        GesselWord.from_codes((3,), d=2)


def test_empty_word_is_complete():
    w = GesselWord.parse("", d=2)
    assert len(w) == 0
    assert is_gessel_word(w)
    assert is_complete(w)


@pytest.mark.parametrize(
    "text,ok",
    [
        ("1 -1", True),
        ("-1 1", False),       # barred letter with nothing to balance it
        ("2 -2", True),
        ("2 -1", True),        # top-1 balance uses the largest letter
        ("1 -2", False),       # bar of 2 outranks the plain 1
        ("2 1 -2 -1", True),
        ("2 -1 2 1 -2 -2", True),
        ("2 2 -2 -2 -1 1", False),
    ],
)
def test_validity_d2(text, ok):
    assert is_gessel_word(GesselWord.parse(text, d=2)) is ok


def test_validity_checks_every_prefix():
    # valid as a whole sum but an inner prefix dips negative
    assert not is_gessel_word(GesselWord.parse("1 -2 2 -1", d=2))


def test_completeness():
    assert is_complete(GesselWord.parse("2 1 -2 -1"))
    assert not is_complete(GesselWord.parse("2 1 -2"))
    assert not is_complete(GesselWord.parse("2 1 -2 -1 2"))


def test_letter_profile_counts():
    prof = letter_profile(GesselWord.parse("2 -1 2 1 -2 -2"))
    assert prof.count(1) == 1
    assert prof.count(1, barred=True) == 1
    assert prof.count(2) == 2
    assert prof.count(2, barred=True) == 2
    assert prof.total == 6
    assert prof.imbalance == 0


def test_profile_of_incomplete_word():
    prof = letter_profile(GesselWord.parse("2 2 -2", d=2))
    assert prof.count(2) == 2
    assert prof.count(2, barred=True) == 1
    assert prof.imbalance == 1


def test_d_inference_and_override():
    w = GesselWord.parse("3 -3")
    assert w.d == 3
    w2 = GesselWord.parse("1 -1", d=4)
    assert w2.d == 4
    with pytest.raises(MalformedWordError):
        GesselWord.parse("3 -3", d=2)


def test_is_complete_builds_one_word_from_raw_codes(monkeypatch):
    built = []
    check = GesselWord.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GesselWord, "__post_init__", counting)
    assert is_complete((2, -1, 2, 1, -2, -2), d=2)
    assert len(built) == 1
    built.clear()
    assert not is_complete([2, 1, -2])
    assert len(built) == 1
