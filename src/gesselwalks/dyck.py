"""Nonnegative lattice paths, floor constraints, and the marker bijection.

Paths live on the integer line, one +1/-1 step per unit of abscissa, and
never dip below zero.  One height-by-height DP counts them: ballot_count_dp
runs it between prescribed heights, to check the reflection closed form
ballot_count, and count_ph_paths runs it from 0 to 0 above a floor profile,
as the oracle for the closed-form marker sums.  Paths are tuples of +-1
steps throughout.

A complete d=2 word factors into its 1/1-bar letters (the markers) and a
+-1 path formed by the 2/2-bar letters.  word_to_markers extracts the
marker data; markers_to_word rebuilds the word from a conforming path.
The marker floors turn the path side into a floor-constrained count.

The bijection is a checked public boundary over a trusted core: the public
word_to_markers and markers_to_word validate their input once, then call
_split and _interleave, which work on code tuples and trust their input,
except that _interleave checks the path against the marker floors in the
pass that builds the word.  _split_ragged and _interleave_ragged do the
same on a whole (R, 2n) array of words at once, for verify's exhaustive
check: one pass each per block, whatever the marker counts of its rows,
which they hold as ragged arrays (each row's marker count, then every
row's positions, signs and path steps laid end to end).  The block
detects, _interleave reports: _interleave_ragged tests a whole block and
hands its first failing row to _interleave for the error.  The pairs are
otherwise separate on purpose: a one-row block round trip costs about ten
times a scalar one, and the public functions take one word or path per
call.

The floor DP, _count_paths, runs over a stack of floor rows in one pass;
ballot_count_dp and count_ph_paths pass it one row.  Its cells are int64:
under DEFAULT_MAX_STEPS = 64 a cell holds at most comb(64, 32) < 2^63
paths.  numpy is imported inside the functions that use it, so importing
the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .exceptions import CapExceededError, MalformedWordError, PathConstraintError, checked_ints
from .words import GesselWord, is_complete

DEFAULT_MAX_STEPS = 64


def binom(n: int, r: int) -> int:
    """Binomial coefficient, 0 outside 0 <= r <= n."""
    if r < 0 or n < 0 or r > n:
        return 0
    return comb(n, r)


def catalan(n: int) -> int:
    if n < 0:
        return 0
    return comb(2 * n, n) // (n + 1)


def ballot_count(i: int, j: int, k: int) -> int:
    """Paths of k steps from height i to height j staying >= 0.

    Zero when k+i+j is odd or when either endpoint is negative; otherwise
    the reflection-principle value binom(k, (k+i-j)/2) - binom(k, (k+i+j)/2 + 1).
    ValueError if int() would change i, j or k.
    """
    return _ballot_count(*checked_ints((i, j, k), "i, j and k must be integers"))


def _ballot_count(i: int, j: int, k: int) -> int:
    """ballot_count on ints, which are not checked."""
    if i < 0 or j < 0 or k < 0:
        return 0
    if (k + i + j) % 2:
        return 0
    return binom(k, (k + i - j) // 2) - binom(k, (k + i + j) // 2 + 1)


def ballot_count_dp(i: int, j: int, k: int) -> int:
    """Same count as ballot_count, by the height-by-height DP."""
    i, j, k = checked_ints((i, j, k), "i, j and k must be integers")
    return _count_one(i, j, k, PHConstraint((), ()))


@dataclass(frozen=True)
class PHConstraint:
    """Floor constraints for a path: ordinate >= floors[i] on the closed
    abscissa range [positions[i], positions[i+1]], for i = 1..m-1 (1-based).

    The final floor entry never constrains anything on its own; before the
    first position and after the last only the global floor 0 applies.
    Positions and floors are integers, stored as int; ValueError if int()
    would change one.  Positions are nonnegative and non-decreasing:
    position 0 arises when a word opens with a marker letter, and equal
    positions arise from markers adjacent in the word (the floor then pins
    a single abscissa).
    """

    positions: tuple[int, ...]
    floors: tuple[int, ...]

    def __post_init__(self):
        for field in ("positions", "floors"):
            values = checked_ints(getattr(self, field), f"{field} must be integers")
            object.__setattr__(self, field, values)
        if len(self.positions) != len(self.floors):
            raise ValueError("positions and floors must have equal length")
        if any(p < 0 for p in self.positions):
            raise ValueError("positions must be nonnegative")
        for a, b in zip(self.positions, self.positions[1:]):
            if b < a:
                raise ValueError("positions must be non-decreasing")
        if any(h < 0 for h in self.floors):
            raise ValueError("floors must be nonnegative")

    def floor_profile(self, length: int) -> list[int]:
        """Effective floor at each abscissa 0..length."""
        prof = [0] * (length + 1)
        p, h = self.positions, self.floors
        for i in range(len(p) - 1):
            lo, hi = p[i], min(p[i + 1], length)
            for t in range(lo, hi + 1):
                if h[i] > prof[t]:
                    prof[t] = h[i]
        return prof


@dataclass(frozen=True)
class MarkerLists:
    """Marker data of a complete d=2 word.

    signs: the 1/1-bar letters in word order, +1 for plain and -1 for
    barred; word_positions: their 1-based positions in the word;
    path_positions: the same positions shifted into path abscissae
    (word position minus marker ordinal); floors: running minimum heights
    forced on the path between consecutive markers.
    """

    signs: tuple[int, ...]
    word_positions: tuple[int, ...]
    path_positions: tuple[int, ...]
    floors: tuple[int, ...]

    def constraint(self) -> PHConstraint:
        return PHConstraint(self.path_positions, self.floors)


def marker_floors(signs: Sequence[int]) -> tuple[int, ...]:
    """floors[i] = max(-(s_1 + ... + s_{i+1}), 0) for the marker signs."""
    out = []
    run = 0
    for s in signs:
        run += s
        out.append(max(-run, 0))
    return tuple(out)


def marker_lists(signs: Sequence[int], word_positions: Sequence[int]) -> MarkerLists:
    signs = checked_ints(signs, "signs must be integers")
    pos = checked_ints(word_positions, "positions must be integers")
    if len(signs) != len(pos):
        raise ValueError("signs and positions must have equal length")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1")
    for a, b in zip(pos, pos[1:]):
        if b <= a:
            raise ValueError("positions must be strictly increasing")
    if pos and pos[0] < 1:
        raise ValueError("word positions are 1-based")
    return _build_marker_lists(signs, pos)


def _build_marker_lists(signs: tuple[int, ...], pos: tuple[int, ...]) -> MarkerLists:
    """MarkerLists from signs and 1-based word positions already known valid.

    A marker's path abscissa is its word position minus its ordinal, the
    markers up to it."""
    path_positions = tuple(p - i for i, p in enumerate(pos, start=1))
    return MarkerLists(signs, pos, path_positions, marker_floors(signs))


def _split(codes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(signs, word_positions, path) of the codes of a complete word over
    letters 1 and 2, which are not checked."""
    signs, positions, path = [], [], []
    for p, c in enumerate(codes, start=1):
        if c == 1 or c == -1:
            signs.append(c)
            positions.append(p)
        else:
            path.append(c >> 1)
    return tuple(signs), tuple(positions), tuple(path)


def _interleave(
    path: tuple[int, ...], word_positions: tuple[int, ...], signs: tuple[int, ...]
) -> tuple[int, ...]:
    """The codes of the word with these markers and this path.

    Trusted: the path holds +-1 steps and the signs are balanced +-1 at
    strictly increasing 1-based positions no later than len(path) + len(signs).
    The floors are checked in the same pass: after each letter the height
    must reach the floor of the marker segment then open, which covers every
    (abscissa, segment) pair of PHConstraint.floor_profile.  PathConstraintError
    at the first abscissa below its floor, or when the path ends above 0.
    """
    m = len(signs)
    codes = []
    steps = iter(path)
    h = run = floor = k = 0
    at = word_positions[0] if m else 0
    for p in range(1, len(path) + m + 1):
        if p == at:
            s = signs[k]
            codes.append(s)
            run += s
            floor = -run if run < 0 else 0  # marker_floors, one sign at a time
            k += 1
            at = word_positions[k] if k < m else 0
        else:
            step = next(steps)
            h += step
            codes.append(2 if step > 0 else -2)
        if h < floor:
            raise _floor_error(path, word_positions, signs, p - k, h)
    if h:
        raise PathConstraintError(f"path ends at height {h}, expected 0")
    return tuple(codes)


def _floor_error(path, word_positions, signs, t, h):
    """The PathConstraintError for height h at abscissa t, the first one below
    the floor profile: the floor is the profile's, the segment the first one
    that attains it."""
    if h < 0:
        return PathConstraintError(
            f"path drops below 0 at abscissa {t}",
            segment=None, abscissa=t, floor=0, height=h,
        )
    constraint = _build_marker_lists(signs, word_positions).constraint()
    floor = constraint.floor_profile(len(path))[t]
    p = constraint.positions
    seg = next(
        i + 1 for i in range(len(p) - 1) if p[i] <= t <= p[i + 1] and constraint.floors[i] == floor
    )
    return PathConstraintError(
        f"path at abscissa {t} has height {h} below floor {floor} (segment {seg})",
        segment=seg, abscissa=t, floor=floor, height=h,
    )


def _split_ragged(words):
    """_split on each row of words, an (R, 2n) int8 array of the codes of
    complete words over letters 1 and 2, which are not checked.

    (counts, word_positions, signs, path), ragged: counts holds each row's
    marker count, and the other three hold every row's 1-based marker
    positions, marker signs and +-1 path steps, row after row, as flat
    arrays.
    """
    import numpy as np

    codes = words.ravel()
    marks = np.abs(codes) == 1
    at = np.flatnonzero(marks)
    rows, columns = np.divmod(at, words.shape[1])
    return (
        np.bincount(rows, minlength=len(words)),
        columns + 1,
        codes[at],
        np.compress(~marks, codes) >> 1,
    )


def _interleave_ragged(counts, word_positions, signs, path):
    """_interleave on each row of the ragged arrays _split_ragged returns for
    a block of R >= 1 words of one length L, trusted as _interleave trusts
    its input: the (R, L) int8 codes of the words.

    After each letter the height must reach max(0, -run), where run sums
    the marker signs so far: the floor _interleave tracks.  The first row
    that breaks it or ends above 0 goes to _interleave, which raises its
    PathConstraintError; RuntimeError if _interleave passes it.  Heights
    and runs are summed as int8, which is exact for words up to length 127,
    far above the enumeration cap of 14.
    """
    import numpy as np

    rows = len(counts)
    length = (len(path) + len(signs)) // rows
    at = np.repeat(np.arange(rows) * length, counts) + word_positions - 1
    marks = np.zeros((rows, length), dtype=bool)
    marks.ravel()[at] = True
    letters = np.empty((rows, length), dtype=np.int8)  # a step or a sign each
    letters[~marks] = path
    letters.ravel()[at] = signs
    steps = letters * ~marks
    height, total = steps.copy(), letters.copy()  # total = height + run
    for t in range(1, length):  # prefix sums, one add per column
        height[:, t] += height[:, t - 1]
        total[:, t] += total[:, t - 1]
    if height.min(initial=0) < 0 or total.min(initial=0) < 0 or height[:, -1:].any():
        off = (height < 0) | (total < 0) | (height[:, -1:] != 0)
        r = int(np.argmax(off.any(axis=1)))  # the first failing row
        _interleave(
            tuple(steps[r, ~marks[r]].tolist()),
            tuple((np.flatnonzero(marks[r]) + 1).tolist()),
            tuple(letters[r, marks[r]].tolist()),
        )
        raise RuntimeError(f"row {r} fails the block's floor test but passes _interleave")
    return steps + letters


def word_to_markers(word: GesselWord) -> MarkerLists:
    """Extract the marker lists of a complete word over letters 1 and 2."""
    if any(l.index > 2 for l in word.letters):
        raise MalformedWordError("marker extraction needs letters 1 and 2 only")
    if not is_complete(word):
        raise MalformedWordError("word must be a complete Gessel word")
    signs, positions, _ = _split(word.codes())
    return _build_marker_lists(signs, positions)


def word_steps(word: GesselWord) -> tuple[int, ...]:
    """The +-1 path formed by the 2/2-bar letters of the word."""
    return tuple(
        1 if not l.barred else -1 for l in word.letters if l.index == 2
    )


def markers_to_word(
    path: Sequence[int],
    word_positions: Sequence[int],
    signs: Sequence[int],
) -> GesselWord:
    """Interleave a conforming path with marker letters to rebuild the word.

    Raises MalformedWordError (naming the step) when a path step is not +-1,
    and PathConstraintError (naming the violated segment) when the path
    does not respect the floors induced by the markers.
    """
    path = tuple(path)
    for i, s in enumerate(path):
        if s != 1 and s != -1:
            raise MalformedWordError(f"path step {i} is {s!r}, not +1 or -1")
    ml = marker_lists(signs, word_positions)
    if ml.word_positions and ml.word_positions[-1] > len(path) + len(ml.signs):
        raise ValueError("marker positions exceed the combined word length")
    if sum(ml.signs) != 0:
        raise ValueError("markers must balance to rebuild a complete word")
    return GesselWord.from_codes(_interleave(path, ml.word_positions, ml.signs), 2)


def count_ph_paths(constraint: PHConstraint, length: int) -> int:
    """Number of floor-conforming +-1 paths from (0,0) to (length,0).

    This is the oracle the closed-form marker sums are tested against.
    """
    return _count_one(0, 0, length, constraint)


def _count_one(i, j, k, constraint):
    """_count_paths on the one floor row of constraint, built once k is
    known to be under the cap."""
    _check_steps(k)
    return _count_paths(i, j, k, [constraint.floor_profile(k)])[0]


def _check_steps(k):
    if k > DEFAULT_MAX_STEPS:
        raise CapExceededError(f"{k} steps exceeds DP cap {DEFAULT_MAX_STEPS}")


def _count_paths(i: int, j: int, k: int, floors) -> list[int]:
    """For each row of floors, an (R, k+1) array of per-abscissa floors,
    the number of paths of k +-1 steps from height i to height j that stay
    >= 0 and on or above that row.

    Direct DP over (abscissa, height), one pass over all the rows.  A
    path at abscissa t sits at height <= i + t and must still reach j in
    k - t steps, so each layer is cut to heights <= min(i + t, j + k - t):
    no higher cell can be counted.  A cell counts paths of t <= k steps,
    at most comb(k, k // 2) of them, so the step cap keeps the int64 cells
    exact.
    """
    import numpy as np

    _check_steps(k)
    if min(i, j, k) < 0 or (i + j + k) % 2 or j > i + k:
        return [0] * len(floors)
    rows = np.asarray(floors, dtype=np.int64)
    heights = np.arange(i + k + 2)
    # heights 0..i+k, then one cell that stays 0, read as height top + 1
    cur = np.zeros((len(rows), i + k + 2), dtype=np.int64)
    cur[:, i] = 1
    cur[heights < rows[:, 0, None]] = 0
    for t in range(1, k + 1):
        top = min(i + t, j + k - t)
        nxt = np.zeros_like(cur)
        nxt[:, 0] = cur[:, 1]
        nxt[:, 1 : top + 1] = cur[:, : top] + cur[:, 2 : top + 2]
        nxt[heights < rows[:, t, None]] = 0
        cur = nxt
    return cur[:, j].tolist()
