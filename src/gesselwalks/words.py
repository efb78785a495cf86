"""Letters and words over the signed alphabet {1..d} with barred twins.

A letter is an index in [1, d], either plain or barred; barred letters are
written as negative integers, so the word 2 1-bar 2 1 2-bar 2-bar reads
"2 -1 2 1 -2 -2".  A word is *valid* when every prefix keeps each of the d
nested top-k balances nonnegative: for every k in [1, d], among the letters
with the k largest indices, plain occurrences must never lag barred ones.
A valid word is *complete* when every index is exactly balanced.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .exceptions import MalformedWordError


class Letter(NamedTuple):
    index: int
    barred: bool

    @property
    def code(self) -> int:
        return -self.index if self.barred else self.index

    @classmethod
    def from_code(cls, code: int) -> "Letter":
        try:
            value = operator.index(code)  # any integer type, numpy's too; stored as int
        except TypeError:
            value = 0
        if value == 0:
            raise MalformedWordError(f"letter code must be a nonzero integer, got {code!r}")
        return cls(abs(value), value < 0)

    def __str__(self) -> str:
        return str(self.code)


@dataclass(frozen=True)
class LetterProfile:
    """Per-index occurrence counts: pairs[i-1] = (plain count, barred count)."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GesselWord:
    letters: tuple[Letter, ...]
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise MalformedWordError(f"alphabet size must be >= 1, got {self.d}")
        for let in self.letters:
            if not 1 <= let.index <= self.d:
                raise MalformedWordError(
                    f"letter index {let.index} outside [1, {self.d}]"
                )

    @classmethod
    def from_codes(cls, codes: Iterable[int], d: int | None = None) -> "GesselWord":
        lets = tuple(Letter.from_code(c) for c in codes)
        if d is None:
            d = max((l.index for l in lets), default=1)
        return cls(lets, d)

    @classmethod
    def parse(cls, text: str, d: int | None = None) -> "GesselWord":
        codes = []
        for tok in text.split():
            try:
                codes.append(int(tok))
            except ValueError:
                raise MalformedWordError(f"bad letter token {tok!r}") from None
        return cls.from_codes(codes, d)

    def codes(self) -> tuple[int, ...]:
        return tuple(l.code for l in self.letters)

    def __str__(self) -> str:
        return " ".join(str(l.code) for l in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


def _coerce_codes(word, d=None):
    """Accept a GesselWord or a raw code sequence; return (codes, d).

    A word checked under another alphabet size is checked again under d."""
    if isinstance(word, GesselWord):
        if d is None or d == word.d:
            return word.codes(), word.d
        word = word.codes()
    w = GesselWord.from_codes(tuple(word), d)  # validates
    return w.codes(), w.d


def _final_diff(codes, d):
    """Letter differences after the whole word, or None if a prefix fails.

    diff[i] is (plain - barred) occurrences of index i+1; the prefix
    condition asks every suffix sum diff[i] + ... + diff[d-1] to stay >= 0.
    """
    diff = [0] * d
    for c in codes:
        idx = abs(c)
        diff[idx - 1] += 1 if c > 0 else -1
        if c < 0:
            # only suffix sums reaching down to idx can have dropped
            s = 0
            for i in range(d - 1, -1, -1):
                s += diff[i]
                if s < 0:
                    return None
    return diff


def is_gessel_word(word, d: int | None = None) -> bool:
    """Check the prefix condition: all nested top-k balances stay >= 0."""
    return _final_diff(*_coerce_codes(word, d)) is not None


def is_complete(word, d: int | None = None) -> bool:
    """Valid word with every letter index exactly balanced."""
    diff = _final_diff(*_coerce_codes(word, d))
    return diff is not None and not any(diff)


def letter_profile(word, d: int | None = None) -> LetterProfile:
    codes, d = _coerce_codes(word, d)
    plain = [0] * d
    barred = [0] * d
    for c in codes:
        if c > 0:
            plain[c - 1] += 1
        else:
            barred[-c - 1] += 1
    return LetterProfile(tuple(zip(plain, barred)))
