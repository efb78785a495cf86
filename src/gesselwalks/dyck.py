"""Nonnegative lattice paths, floor constraints, and the marker bijection.

Paths live on the integer line, one +1/-1 step per unit of abscissa, and
never dip below zero.  ballot_count gives the reflection closed form for
the number of such paths between prescribed heights; ballot_count_dp is the
independent dynamic-programming route used to check it.

A complete d=2 word factors into its 1/1-bar letters (the markers) and a
+-1 path formed by the 2/2-bar letters.  word_to_markers extracts the
marker data; markers_to_word rebuilds the word from a conforming path.
The marker floors turn the path side into a floor-constrained count,
computed exactly by count_ph_paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .exceptions import CapExceededError, MalformedWordError, PathConstraintError
from .words import GesselWord, is_complete


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


def ballot_count_dp(i: int, j: int, k: int, *, max_steps: int = 64) -> int:
    """Same count as ballot_count, by direct height-by-height DP."""
    if k > max_steps:
        raise CapExceededError(f"{k} steps exceeds DP cap {max_steps}")
    if i < 0 or j < 0 or k < 0:
        return 0
    top = i + k
    cur = [0] * (top + 2)
    cur[i] = 1
    for _ in range(k):
        nxt = [0] * (top + 2)
        for h in range(top + 1):
            v = cur[h]
            if not v:
                continue
            if h + 1 <= top + 1:
                nxt[h + 1] += v
            if h - 1 >= 0:
                nxt[h - 1] += v
        cur = nxt
    return cur[j] if j <= top else 0


def parse_path(text: str) -> tuple[int, ...]:
    """Parse a path over {U, D} into +-1 steps."""
    steps = []
    for ch in text.strip():
        if ch in "Uu":
            steps.append(1)
        elif ch in "Dd":
            steps.append(-1)
        elif ch.isspace():
            continue
        else:
            raise MalformedWordError(f"bad path character {ch!r}")
    return tuple(steps)


def format_path(steps: Sequence[int]) -> str:
    return "".join("U" if s > 0 else "D" for s in steps)


def path_heights(steps: Sequence[int]) -> tuple[int, ...]:
    """Ordinates at abscissae 0..len(steps)."""
    h = [0]
    for s in steps:
        h.append(h[-1] + s)
    return tuple(h)


@dataclass(frozen=True)
class PHConstraint:
    """Floor constraints for a path: ordinate >= floors[i] on the closed
    abscissa range [positions[i], positions[i+1]], for i = 1..m-1 (1-based).

    The final floor entry never constrains anything on its own; before the
    first position and after the last only the global floor 0 applies.
    Positions are nonnegative and non-decreasing: position 0 arises when a
    word opens with a marker letter, and equal positions arise from markers
    adjacent in the word (the floor then pins a single abscissa).
    """

    positions: tuple[int, ...]
    floors: tuple[int, ...]

    def __post_init__(self):
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
    signs = tuple(int(s) for s in signs)
    pos = tuple(int(p) for p in word_positions)
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
    path_pos = tuple(p - i for i, p in enumerate(pos, start=1))
    return MarkerLists(signs, pos, path_pos, marker_floors(signs))


def word_to_markers(word: GesselWord) -> MarkerLists:
    """Extract the marker lists of a complete word over letters 1 and 2."""
    if word.d > 2 or any(l.index > 2 for l in word.letters):
        raise MalformedWordError("marker extraction needs letters 1 and 2 only")
    if not is_complete(word):
        raise MalformedWordError("word must be a complete Gessel word")
    signs = []
    positions = []
    for p, let in enumerate(word.letters, start=1):
        if let.index == 1:
            signs.append(-1 if let.barred else 1)
            positions.append(p)
    # +-1 signs at increasing 1-based positions by construction, so the
    # checks of marker_lists are skipped
    return _build_marker_lists(tuple(signs), tuple(positions))


def word_steps(word: GesselWord) -> tuple[int, ...]:
    """The +-1 path formed by the 2/2-bar letters of the word."""
    return tuple(
        1 if not l.barred else -1 for l in word.letters if l.index == 2
    )


def _check_conforms(steps, constraint, length):
    heights = path_heights(steps)
    if len(steps) != length:
        raise PathConstraintError(
            f"path has {len(steps)} steps, expected {length}"
        )
    prof = constraint.floor_profile(length)
    p = constraint.positions
    for t, h in enumerate(heights):
        if h < 0:
            raise PathConstraintError(
                f"path drops below 0 at abscissa {t}",
                segment=None, abscissa=t, floor=0, height=h,
            )
        if h < prof[t]:
            seg = None
            for i in range(len(p) - 1):
                if p[i] <= t <= p[i + 1] and constraint.floors[i] == prof[t]:
                    seg = i + 1
                    break
            raise PathConstraintError(
                f"path at abscissa {t} has height {h} below floor {prof[t]} "
                f"(segment {seg})",
                segment=seg, abscissa=t, floor=prof[t], height=h,
            )
    if heights[-1] != 0:
        raise PathConstraintError(
            f"path ends at height {heights[-1]}, expected 0"
        )


def markers_to_word(
    path: Sequence[int],
    word_positions: Sequence[int],
    signs: Sequence[int],
) -> GesselWord:
    """Interleave a conforming path with marker letters to rebuild the word.

    Raises PathConstraintError (naming the violated segment) when the path
    does not respect the floors induced by the markers.
    """
    ml = marker_lists(signs, word_positions)
    m = len(ml.signs)
    length = len(path) + m
    if ml.word_positions and ml.word_positions[-1] > length:
        raise ValueError("marker positions exceed the combined word length")
    if sum(ml.signs) != 0:
        raise ValueError("markers must balance to rebuild a complete word")
    _check_conforms(tuple(path), ml.constraint(), len(path))
    codes = []
    it = iter(path)
    marker_at = dict(zip(ml.word_positions, ml.signs))
    for p in range(1, length + 1):
        if p in marker_at:
            codes.append(1 if marker_at[p] > 0 else -1)
        else:
            codes.append(2 if next(it) > 0 else -2)
    word = GesselWord.from_codes(codes, 2)
    return word


def count_ph_paths(constraint: PHConstraint, length: int, *, max_steps: int = 64) -> int:
    """Number of floor-conforming +-1 paths from (0,0) to (length,0).

    Straight DP over (abscissa, height) with the per-abscissa floor profile;
    this is the oracle the closed-form marker sums are tested against.
    """
    if length > max_steps:
        raise CapExceededError(f"{length} steps exceeds DP cap {max_steps}")
    if length < 0 or length % 2:
        return 0
    prof = constraint.floor_profile(length)
    if prof[0] > 0:
        return 0
    cur = [0] * (length + 2)
    cur[0] = 1
    for t in range(1, length + 1):
        # a path at step t sits at height <= t and must still fall back to
        # 0 in length - t steps, so higher cells can never be counted
        top = min(t, length - t)
        nxt = [0] * (length + 2)
        for h in range(min(t - 1, length - t + 1) + 1):
            v = cur[h]
            if not v:
                continue
            if h + 1 <= top:
                nxt[h + 1] += v
            if h - 1 >= 0:
                nxt[h - 1] += v
        f = prof[t]
        for h in range(min(f, top + 1)):
            nxt[h] = 0
        cur = nxt
    return cur[0]

