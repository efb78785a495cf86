"""Cross-checks against OEIS b-files.

Three sequences are vendored under data/ as b<digits>.txt: the d=2
origin-return counts (A135404), the single-pair counts (A000531), and the
threefold convolution of binom(2k+1, k+1) that the free even-position sum
reproduces (A045720).  Each b-file is "index value" lines, no index below
the sequence's offset in OFFSETS and none twice.  The package's own routes wrote them
(the walk DP, enumeration with the pair-position assembly, the binomial
convolution), so they are no outside check.

compare reads the vendored b-file, or with path given a b-file the user
supplies, such as one saved from oeis.org.  Nothing here touches the
network.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from stat import S_ISREG
from typing import Iterable, NamedTuple

from .exceptions import CapExceededError, FixtureError, checked_at_least

OFFSETS = {"A135404": 0, "A000531": 1, "A045720": 0}
SEQUENCE_IDS = tuple(OFFSETS)

# Largest b-file index computed_terms computes.  A b-file holding every
# index up to it took 21-28 s for A000531 and 22-23 s for A045720 (4.3 s
# for A135404), two runs each on a 2-vCPU host; both routes grow about as
# the cube of the index.
MAX_INDEX = 8_000
# Largest b-file read, in bytes.  The largest one MAX_INDEX admits, the
# A135404 terms 0..8,000 one "index value" line each, takes 38,520,019.
MAX_BFILE_BYTES = 40_000_000


class BFile(NamedTuple):
    seq_id: str
    offset: int
    terms: dict[int, int]


def _read_bfile_text(text: str, seq_id: str, offset: int) -> BFile:
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            index, value = map(int, line.split())
        except ValueError:
            raise FixtureError(f"bad b-file line for {seq_id}: {line!r}") from None
        if index < offset:
            raise FixtureError(f"b-file index below the offset {offset} of {seq_id}: {line!r}")
        if index in terms:
            raise FixtureError(f"repeated b-file index for {seq_id}: {line!r}")
        terms[index] = value
    if not terms:
        raise FixtureError(f"empty b-file for {seq_id}")
    return BFile(seq_id, offset, terms)


def _read_bfile(seq_id: str, path=None) -> BFile:
    """The b-file for seq_id at path, the vendored one when path is None."""
    if seq_id not in OFFSETS:
        raise FixtureError(f"unsupported sequence id {seq_id}")
    if path is None:
        path = resources.files("gesselwalks.data") / f"b{seq_id[1:]}.txt"
    else:
        path = Path(path)
    try:
        # stat first: opening a named pipe with no writer would block, and a
        # device would be read without end
        info = path.stat()
        if not S_ISREG(info.st_mode):
            raise FixtureError(f"cannot read b-file {path}: not a regular file")
        if info.st_size > MAX_BFILE_BYTES:
            raise FixtureError(
                f"b-file {path} holds {info.st_size} bytes, above the cap of {MAX_BFILE_BYTES}"
            )
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FixtureError(f"cannot read b-file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FixtureError(f"b-file {path} is not UTF-8 text") from None
    return _read_bfile_text(text, seq_id, OFFSETS[seq_id])


def load_fixture(seq_id: str) -> BFile:
    """Load the vendored b-file for one of the supported sequence ids."""
    return _read_bfile(seq_id)


def computed_terms(seq_id: str, indices: Iterable[int]) -> dict[int, int]:
    """Library-side values at the given indices of the sequence, each an
    integer at or above the sequence's offset."""
    if seq_id not in OFFSETS:
        raise FixtureError(f"unsupported sequence id {seq_id}")
    return _terms(seq_id, [checked_at_least(i, OFFSETS[seq_id], "n") for i in indices])


def _terms(seq_id: str, indices: list[int]) -> dict[int, int]:
    """computed_terms of a sequence in OFFSETS at int indices that are known
    to lie at or above its offset."""
    from .formulas import (
        even_marker_sum_free_closed,
        gessel_closed_sequence,
        one_pair_closed,
    )

    top = max(indices, default=0)
    if top > MAX_INDEX:
        raise CapExceededError(f"b-file index {top} of {seq_id} exceeds cap {MAX_INDEX}")
    if seq_id == "A135404":
        # one pass of the closed form's ratio recurrence, up to the largest index
        closed = gessel_closed_sequence(top)
        return {i: closed[i] for i in indices}
    if seq_id == "A000531":
        return {i: one_pair_closed(i) for i in indices}
    return {k: even_marker_sum_free_closed(k + 3) for k in indices}


def compare(seq_id: str, n_max: int, *, path: str | Path | None = None) -> list[dict]:
    """Per-index comparison rows for the b-file indices up to n_max.

    The b-file is the vendored one, or the one at path when given.
    """
    n_max = checked_at_least(n_max, 0, "n_max")  # before the b-file is read
    bfile = _read_bfile(seq_id, path)
    if n_max < bfile.offset:
        raise ValueError(f"n_max must be >= {bfile.offset}, the offset of {seq_id}, got {n_max}")
    # _read_bfile checked seq_id, and its indices against the offset
    ours = _terms(seq_id, sorted(i for i in bfile.terms if i <= n_max))
    if not ours:
        raise FixtureError(f"no index of the {seq_id} fixture lies in [{bfile.offset}, {n_max}]")
    return [
        {
            "sequence": seq_id,
            "index": idx,
            "computed": str(value),
            "reference": str(bfile.terms[idx]),
            "match": value == bfile.terms[idx],
        }
        for idx, value in ours.items()
    ]
