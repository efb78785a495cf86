"""The ``words-api`` workload: small calls on the validating public word API.

Words come from this file's own seeded sampler, never from the library's
enumerator, and every expected value comes from this file's own statement
of the rules, so the library is checked against an independent route:

* valid: every prefix keeps each nested top-k balance (plain minus barred
  among the k largest letter indices) nonnegative;
* complete: valid and every index exactly balanced;
* markers of a complete d=2 word: its 1/1-bar letters; their path
  positions are word position minus marker ordinal, and the floor after
  marker i is max(-(s_1 + ... + s_i), 0), binding on the abscissae
  between marker i and marker i+1.

Each request parses a word and asks ``is_gessel_word``, ``is_complete`` and
``letter_profile``; complete d=2 words also make the ``word_to_markers`` ->
``word_steps`` -> ``markers_to_word`` round trip, and "perturbed" requests
then send a path with one peak pushed below a floor, which must raise
``PathConstraintError`` naming the floor's segment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Requests per pass, by kind.  Fixed counts keep the mix identical for every seed.
MIX = (
    ("complete", 2, 500),
    ("complete", 3, 300),
    ("perturbed", 2, 300),
    ("incomplete", 2, 200),
    ("incomplete", 3, 200),
    ("violating", 2, 150),
    ("violating", 3, 150),
    ("malformed", 2, 100),
    ("malformed", 3, 100),
)
MIN_LENGTH, MAX_LENGTH = 8, 20
BAD_TOKENS = ("0", "x", "1.5", "2b", "--1")


@dataclass(frozen=True)
class WordRequest:
    key: str
    kind: str
    d: int
    text: str
    bad_path: tuple[int, ...] | None
    expected: dict


# -- the rules, stated independently of the library ----------------------


def prefix_valid(codes, d) -> bool:
    diff = [0] * d
    for c in codes:
        diff[abs(c) - 1] += 1 if c > 0 else -1
        s = 0
        for i in range(d - 1, -1, -1):
            s += diff[i]
            if s < 0:
                return False
    return True


def balanced(codes, d) -> bool:
    diff = [0] * d
    for c in codes:
        diff[abs(c) - 1] += 1 if c > 0 else -1
    return not any(diff)


def profile(codes, d):
    return tuple(
        (sum(1 for c in codes if c == i), sum(1 for c in codes if c == -i))
        for i in range(1, d + 1)
    )


def markers(codes):
    """(word positions, signs, floors, path positions) of the 1/1-bar letters."""
    positions = tuple(p for p, c in enumerate(codes, start=1) if abs(c) == 1)
    signs = tuple(1 if codes[p - 1] > 0 else -1 for p in positions)
    floors, run = [], 0
    for s in signs:
        run += s
        floors.append(max(-run, 0))
    path_pos = tuple(p - i for i, p in enumerate(positions, start=1))
    return positions, signs, tuple(floors), path_pos


def path_of(codes):
    return tuple(1 if c == 2 else -1 for c in codes if abs(c) == 2)


def floor_at(path_pos, floors, t):
    """(floor, 1-based segment) binding at abscissa t: the highest floor of
    the segments [p_i, p_{i+1}] covering t, and the first segment holding it."""
    best, seg = 0, None
    for i in range(len(path_pos) - 1):
        if path_pos[i] <= t <= path_pos[i + 1] and floors[i] > best:
            best, seg = floors[i], i + 1
    return best, seg


# -- sampler --------------------------------------------------------------


def _sample_valid(rng, d, length, complete):
    """A random valid word; complete words keep total imbalance within reach.
    Returns None on a dead end (the caller redraws)."""
    letters = [c for c in range(-d, d + 1) if c]
    codes = []
    diff = [0] * d
    for pos in range(length):
        options = []
        for c in letters:
            diff[abs(c) - 1] += 1 if c > 0 else -1
            s, ok = 0, True
            for i in range(d - 1, -1, -1):
                s += diff[i]
                if s < 0:
                    ok = False
                    break
            if ok and complete:
                ok = sum(abs(v) for v in diff) <= length - pos - 1
            if ok:
                options.append(c)
            diff[abs(c) - 1] -= 1 if c > 0 else -1
        if not options:
            return None
        c = rng.choice(options)
        diff[abs(c) - 1] += 1 if c > 0 else -1
        codes.append(c)
    return tuple(codes)


def _draw(rng, kind, d):
    even = rng.randrange(MIN_LENGTH // 2, MAX_LENGTH // 2 + 1) * 2
    length = rng.randrange(MIN_LENGTH, MAX_LENGTH + 1)
    if kind in ("complete", "perturbed"):
        return _sample_valid(rng, d, even, complete=True)
    if kind == "incomplete":
        codes = _sample_valid(rng, d, length, complete=False)
        return None if codes is None or balanced(codes, d) else codes
    if kind == "violating":
        cut = rng.randrange(0, length)
        head = _sample_valid(rng, d, cut, complete=False)
        breakers = [c for c in range(-d, 0) if not prefix_valid(head + (c,), d)]
        tail = tuple(rng.choice([c for c in range(-d, d + 1) if c]) for _ in range(length - cut - 1))
        return head + (rng.choice(breakers),) + tail if breakers else None
    if kind == "malformed":
        return _sample_valid(rng, d, length, complete=False)
    raise ValueError(kind)


def _perturb(rng, codes):
    """Swap one UD peak of the word's path to DU so that exactly one abscissa
    drops by 2 below its floor; returns (path, expected error) or None."""
    path = path_of(codes)
    _, _, floors, path_pos = markers(codes)
    heights = [0]
    for s in path:
        heights.append(heights[-1] + s)
    options = []
    for t in range(1, len(path)):
        if path[t - 1] == 1 and path[t] == -1:
            low = heights[t] - 2
            floor, seg = floor_at(path_pos, floors, t)
            if low < 0:
                options.append((t, (None, t, 0, low)))
            elif low < floor:
                options.append((t, (seg, t, floor, low)))
    named = [o for o in options if o[1][0] is not None]
    if not options:
        return None
    t, err = rng.choice(named or options)
    bad = list(path)
    bad[t - 1], bad[t] = -1, 1
    return tuple(bad), err


def _expected(kind, d, codes, bad):
    if kind == "malformed":
        return {"error": "MalformedWordError"}
    out = {
        "codes": codes,
        "gessel": prefix_valid(codes, d),
        "complete": prefix_valid(codes, d) and balanced(codes, d),
        "profile": profile(codes, d),
    }
    if d == 2 and kind in ("complete", "perturbed"):
        positions, signs, floors, _ = markers(codes)
        out.update(markers=(positions, signs, floors), steps=path_of(codes), back=codes)
        if bad is not None:
            out["bad"] = bad[1]
    return out


def make_requests(seed: int) -> list[WordRequest]:
    rng = random.Random(f"words-api:{seed}")
    reqs = []
    for kind, d, count in MIX:
        made = 0
        while made < count:
            codes = _draw(rng, kind, d)
            if codes is None:
                continue
            bad = _perturb(rng, codes) if kind == "perturbed" else None
            if kind == "perturbed" and bad is None:
                continue
            tokens = [str(c) for c in codes]
            if kind == "malformed":
                bad_token = rng.choice(BAD_TOKENS + (str(d + 1), str(-(d + 1))))
                tokens[rng.randrange(len(tokens))] = bad_token
            reqs.append(
                WordRequest(f"words-api/{kind}-d{d}", kind, d, " ".join(tokens),
                            bad[0] if bad else None, _expected(kind, d, codes, bad))
            )
            made += 1
    rng.shuffle(reqs)
    return reqs


def execute(api, req: WordRequest) -> dict:
    """Serve one request through the package's public names."""
    try:
        word = api.GesselWord.parse(req.text, req.d)
    except api.MalformedWordError:
        return {"error": "MalformedWordError"}
    codes = word.codes()
    out = {
        "codes": codes,
        "gessel": api.is_gessel_word(word),
        "complete": api.is_complete(codes, req.d),
        "profile": api.letter_profile(codes, req.d).pairs,
    }
    if "markers" in req.expected:
        ml = api.word_to_markers(word)
        steps = api.word_steps(word)
        back = api.markers_to_word(steps, ml.word_positions, ml.signs)
        out.update(markers=(ml.word_positions, ml.signs, ml.floors), steps=steps, back=back.codes())
        if req.bad_path is not None:
            try:
                api.markers_to_word(req.bad_path, ml.word_positions, ml.signs)
                out["bad"] = "accepted"
            except api.PathConstraintError as exc:
                out["bad"] = (exc.segment, exc.abscissa, exc.floor, exc.height)
    return out


def check(req: WordRequest, got: dict) -> str | None:
    if got == req.expected:
        return None
    return f"words-api {req.kind} d={req.d} {req.text!r}: got {got!r}"
