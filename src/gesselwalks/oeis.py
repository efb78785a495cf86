"""Cross-checks against vendored OEIS b-files.

Three sequences are vendored under data/: the d=2 origin-return counts
(A135404), the single-pair counts (A000531), and the threefold convolution
of binom(2k+1, k+1) that the free even-position sum reproduces (A045720).
Each b-file is "index value" lines; fixtures.json records the index offset.

Lookups never touch the network unless fetch=True, in which case the
b-file is read from the directory named by GESSELWALKS_OEIS_CACHE (default
~/.cache/gesselwalks/oeis), and downloaded from oeis.org into it only when
it is not there.  So a b-file placed in that directory is checked offline.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .exceptions import FixtureError

CACHE_ENV = "GESSELWALKS_OEIS_CACHE"

SEQUENCE_IDS = ("A135404", "A000531", "A045720")


@dataclass(frozen=True)
class BFile:
    seq_id: str
    offset: int
    terms: dict[int, int]


def _read_data(name: str) -> str:
    """The text of a file vendored under gesselwalks/data."""
    try:
        return resources.files("gesselwalks.data").joinpath(name).read_text()
    except FileNotFoundError:
        raise FixtureError(f"fixture file {name} missing") from None


def _fixture_meta() -> dict:
    return json.loads(_read_data("fixtures.json"))


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
        terms[index] = value
    if not terms:
        raise FixtureError(f"empty b-file for {seq_id}")
    return BFile(seq_id, offset, terms)


def load_fixture(seq_id: str) -> BFile:
    """Load the vendored b-file for one of the supported sequence ids."""
    if seq_id not in SEQUENCE_IDS:
        raise FixtureError(f"unsupported sequence id {seq_id}")
    meta = _fixture_meta()
    entry = meta.get(seq_id)
    if entry is None:
        raise FixtureError(f"no fixture metadata for {seq_id}")
    return _read_bfile_text(_read_data(entry["file"]), seq_id, int(entry["offset"]))


def fetch_bfile(seq_id: str) -> BFile:
    """Download (or reuse from cache) the live b-file for seq_id."""
    from urllib.request import urlopen

    if seq_id not in SEQUENCE_IDS:
        raise FixtureError(f"unsupported sequence id {seq_id}")
    meta = _fixture_meta()
    offset = int(meta[seq_id]["offset"])
    cache = Path(os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "gesselwalks" / "oeis")
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"b{seq_id[1:]}.txt"
    if not path.exists():
        url = f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"
        with urlopen(url, timeout=30) as resp:  # may raise URLError
            data = resp.read().decode()
        # write beside the target and rename, so a reader never sees a
        # partial b-file
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return _read_bfile_text(path.read_text(), seq_id, offset)


def computed_terms(seq_id: str, indices: Iterable[int]) -> dict[int, int]:
    """Library-side values at the given indices of the sequence."""
    from .formulas import (
        even_marker_sum_free_closed,
        gessel_closed_sequence,
        one_pair_closed,
    )

    if seq_id not in SEQUENCE_IDS:
        raise FixtureError(f"unsupported sequence id {seq_id}")
    indices = list(indices)
    if seq_id == "A135404":
        # one pass of the closed form's ratio recurrence, up to the largest index
        if any(i < 0 for i in indices):
            raise ValueError("n must be >= 0")
        closed = gessel_closed_sequence(max(indices, default=0))
        return {i: closed[i] for i in indices}
    if seq_id == "A000531":
        return {i: one_pair_closed(i) for i in indices}
    return {k: even_marker_sum_free_closed(k + 3) for k in indices}


def compare(seq_id: str, n_max: int, *, fetch: bool = False) -> list[dict]:
    """Per-index comparison rows for the b-file indices up to n_max."""
    if n_max < 0:  # rejected before any fetch; the offset check needs the b-file
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    bfile = fetch_bfile(seq_id) if fetch else load_fixture(seq_id)
    if n_max < bfile.offset:
        raise ValueError(f"n_max must be >= {bfile.offset}, the offset of {seq_id}, got {n_max}")
    ours = computed_terms(seq_id, sorted(i for i in bfile.terms if i <= n_max))
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
