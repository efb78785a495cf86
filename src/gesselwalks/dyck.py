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
pass that builds the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .exceptions import CapExceededError, MalformedWordError, PathConstraintError
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
    """
    if i < 0 or j < 0 or k < 0:
        return 0
    if (k + i + j) % 2:
        return 0
    return binom(k, (k + i - j) // 2) - binom(k, (k + i + j) // 2 + 1)


def ballot_count_dp(i: int, j: int, k: int) -> int:
    """Same count as ballot_count, by the height-by-height DP."""
    return _count_paths(i, j, k)


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
        object.__setattr__(self, "positions", _integers(self.positions, "positions"))
        object.__setattr__(self, "floors", _integers(self.floors, "floors"))
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


def _integers(values, name):
    """values as a tuple of ints; ValueError if int() would change any of them."""
    values = tuple(values)
    out = tuple(map(int, values))
    if out != values:
        raise ValueError(f"{name} must be integers, got {values!r}")
    return out


def marker_lists(signs: Sequence[int], word_positions: Sequence[int]) -> MarkerLists:
    signs = _integers(signs, "signs")
    pos = _integers(word_positions, "positions")
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
    """MarkerLists from signs and 1-based word positions already known valid."""
    return MarkerLists(signs, pos, _path_positions(pos), marker_floors(signs))


def _path_positions(word_positions: tuple[int, ...]) -> tuple[int, ...]:
    """The path abscissae of markers at these 1-based word positions: each
    word position minus the marker's ordinal, the markers up to it."""
    return tuple(p - i for i, p in enumerate(word_positions, start=1))


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


def word_to_markers(word: GesselWord) -> MarkerLists:
    """Extract the marker lists of a complete word over letters 1 and 2."""
    if word.d > 2 or any(l.index > 2 for l in word.letters):
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
    return _count_paths(0, 0, length, constraint)


def _count_paths(i: int, j: int, k: int, constraint: PHConstraint | None = None) -> int:
    """Paths of k +-1 steps from height i to height j that stay >= 0, and on
    or above the floor profile of constraint when one is given.

    Direct DP over (abscissa, height).  A path at abscissa t sits at height
    <= i + t and must still reach j in k - t steps, so each layer is cut to
    heights <= min(i + t, j + k - t): no higher cell can be counted.
    """
    if k > DEFAULT_MAX_STEPS:
        raise CapExceededError(f"{k} steps exceeds DP cap {DEFAULT_MAX_STEPS}")
    if min(i, j, k) < 0 or (i + j + k) % 2 or j > i + k:
        return 0
    floors = [0] * (k + 1) if constraint is None else constraint.floor_profile(k)
    # heights 0..i+k, then one cell that stays 0: height -1 reads it as cur[-1]
    cur = [0] * (i + k + 2)
    cur[i] = int(i >= floors[0])
    for t in range(1, k + 1):
        nxt = [0] * (i + k + 2)
        for h in range(floors[t], min(i + t, j + k - t) + 1):
            nxt[h] = cur[h - 1] + cur[h + 1]
        cur = nxt
    return cur[j]
