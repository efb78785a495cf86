"""Brute-force enumeration of complete Gessel words.

This module is the ground-truth oracle: every count here tests each word
letter by letter (with prefix pruning), never with closed forms or lattice
DP, so its outputs can be compared against the independent counting routes.

The words come from one chunked numpy frontier, :func:`_word_blocks`.  Each
row of a block is one word prefix that already passed its tests.  What
those tests read of a prefix is its state: its d letter differences, plus
its count of a tallied letter or its counts of 1 and -1 where a run keeps
them.  Before the first block, :func:`_state_tables` numbers the distinct
states of each tested level, from the empty prefix on, and tests each of
them once with :func:`_extensions`: the level's table gives, for each
state and each of the 2d letters, the id of the child's state, or -1
where the letter fails.  A row carries the id of its state, so the
children of a block are one take of its rows' table entries, of which
only the survivors are kept.  They are grown one chunk of at most
:data:`CHUNK` rows at a time, and each chunk is grown to the end before
the next is built, so the recursion order is the word order.  Every run
stops at its last tested letter, at position 2n-1: each letter moves the
imbalance sum(|diff|) by +-1, so a prefix of odd length 2n-1 that passed
has imbalance exactly 1, and the one letter cancelling it, the last, is
forced; a table over the states of that level holds it.  Rows are never
merged: prefixes share states, but every complete word is its own row up
to its last tested letter, and is tallied on its own.

A level's table holds 2d ids of 1, 2 or 4 bytes per state.  At d = 2 and
n = 7 a level has at most 26 states, while the frontier tests 1,243,595
rows; at d = 4 and n = 7, at most 471.  At large d prefixes hardly share
states (level 2 holds about d^2), so the bytes that the tables and their
building allocate are capped by :data:`DEFAULT_MAX_TABLE_BYTES`.  Each
level of the frontier holds one block and its survivors' ids while the
levels below it run, so the frontier holds at most length blocks; the
bytes per level are given at :func:`_word_blocks`.

Callers that read letters (:func:`iter_complete_words`, the marker position
triangle, the bijection checks in ``verify``) get blocks of whole words:
each survivor of the last tested level gets its tested letter and its
forced one.  The word count and the profile triangle only tally, so their
rows are state ids alone, and each tally reads, through the id of each
row of the last tested level, that row's survivor bits and, for the
profile, its count of 2s; each bit is one complete word.  A tally row is
small, so a tally block holds as many rows as fit in
:data:`_TALLY_BLOCK_BYTES`, and never fewer than :data:`CHUNK`.

Enumeration order is deterministic: words are produced in ascending
lexicographic order of their code tuples, with codes ordered numerically
(-d < ... < -1 < 1 < ... < d).

The entry points take d >= 1 and n >= 0 (checked by
exceptions.checked_at_least) and raise CapExceededError before the first
block for a word length above DEFAULT_MAX_LENGTH, a d above
DEFAULT_MAX_D, a run whose work passes DEFAULT_MAX_WORK, or tables past
DEFAULT_MAX_TABLE_BYTES, which they build at the call.  The work is the
rows the frontier tests times d + 1, since a row costs about 4 + d ns:
the take of its 2d table entries and the compress of its survivors.
Where (2d)^(2n-1) rows could pass the cap, the rows are estimated first
by Knuth's random probes of the frontier (:func:`_estimated_rows`), which
run no other route.

numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from typing import Iterator

from .exceptions import CapExceededError, checked_at_least, checked_ints

DEFAULT_MAX_LENGTH = 14
# The largest d: _state_tables builds 2d codes and a (d, 2d) delta table
# (2d^2 bytes, 2 MiB here) first.  It bounds memory, not work.
DEFAULT_MAX_D = 1024

# Rows per frontier block.  Smaller blocks spend more time in per-block
# Python overhead; larger ones raise the peak memory of every level.
CHUNK = 4096
# Bytes per block of a tally run, whose rows are state ids alone; a tally
# block never holds fewer than CHUNK rows.
_TALLY_BLOCK_BYTES = 2**18
# Work of one run: the rows its frontier tests times d + 1, the cost of a
# row, which grows with d.  _check_cap refuses a request whose estimated
# work (see _estimated_rows) passes it, before the first block.
DEFAULT_MAX_WORK = 6 * 10**9
# Random paths behind one estimate of the rows (see _estimated_rows).
_PROBES = 1024
# Bytes that the state tables of one run and their building may allocate
# (see _state_tables).  A run past it is refused while its tables are
# built, before the first block: the counts of d = 307 at n = 2, 66 at
# n = 3 and 31 at n = 4 are the first refused.
DEFAULT_MAX_TABLE_BYTES = 2**27


def _check_cap(d, n) -> tuple[int, int]:
    """d and n as ints, once they are known to fit the frontier and its caps;
    ValueError if int() would change either of them."""
    d, n = checked_ints((d, n), "d and n must be integers")
    n, d = checked_at_least(n, 0, "n"), checked_at_least(d, 1, "d")
    if 2 * n > DEFAULT_MAX_LENGTH:
        raise CapExceededError(
            f"word length {2 * n} exceeds enumeration cap {DEFAULT_MAX_LENGTH}"
        )
    if d > DEFAULT_MAX_D:
        raise CapExceededError(f"d = {d} exceeds enumeration cap d <= {DEFAULT_MAX_D}")
    # a frontier of 2n - 1 levels tests fewer than (2d)^(2n-1) rows, so only
    # a request that bound does not clear is probed
    if n and (d + 1) * (2 * d) ** (2 * n - 1) > DEFAULT_MAX_WORK:
        work = (d + 1) * _estimated_rows(d, n)
        if work > DEFAULT_MAX_WORK:
            raise CapExceededError(
                f"estimated work {work:.3g} at d = {d}, n = {n} exceeds enumeration "
                f"work cap {DEFAULT_MAX_WORK:.3g}"
            )
    return d, n


def _tables(d: int, length: int):
    """The 2d letter codes in order, and delta[i, c], the change of diff[i]
    when letter c is appended, in a dtype that holds +-(length + 1), the
    largest imbalance a child can reach."""
    import numpy as np

    codes = np.array([*range(-d, 0), *range(1, d + 1)], dtype=np.min_scalar_type(-(d + 1)))
    k = len(codes)
    delta = np.zeros((d, k), dtype=np.min_scalar_type(-(length + 2)))
    delta[np.abs(codes) - 1, np.arange(k)] = np.sign(codes)
    return codes, delta


def _extensions(diff, free: int):
    """The (2d, rows) mask ok[c, r]: whether row r of the (d, rows) letter
    differences diff, a prefix that passed with free letters left to place,
    still passes when extended by letter c.

    A parent row already passed, so a child can only break a test its
    letter moves.  A letter on axis a moves the suffix sums S_0..S_a by its
    sign, and the imbalance I by +1 when it pushes diff[a] away from 0, by
    -1 when towards it.  I has the parity of the letters placed and
    I <= free, so I == free - 1 cannot occur: a child that raises I
    survives iff slack = I < free.  Hence +(a + 1) survives iff slack or
    diff[a] < 0, and -(a + 1) iff min(S_0..S_a) >= 1 and (slack or
    diff[a] > 0).
    """
    import numpy as np

    d, rows = diff.shape
    ok = np.empty((2 * d, rows), dtype=bool)
    slack = np.abs(diff).sum(axis=0, dtype=diff.dtype) < free
    suffix = diff.sum(axis=0, dtype=diff.dtype)  # S_0
    low_ok = suffix >= 1  # min(S_0..S_a) >= 1
    for a, row in enumerate(diff):
        if a:
            suffix -= diff[a - 1]
            low_ok &= suffix >= 1
        np.logical_or(slack, row < 0, out=ok[d + a])
        np.logical_and(low_ok, slack | (row > 0), out=ok[d - 1 - a])
    return ok


def _estimated_rows(d: int, n: int) -> float:
    """Knuth's estimate of the rows the frontier tests for words of length
    2n, n >= 1: the rows of prefixes of length 0..2n-2.

    Each of _PROBES random paths runs from the empty word and picks one of
    its surviving extensions, uniformly, at every level; the product of the
    survivor counts along it so far is an unbiased estimate of the rows at
    the next level.  Every prefix that passed has an extension that passes,
    so no path dies early.  The paths run as the columns of one diff array,
    tested by the frontier's own _extensions, from a fixed seed, so that an
    estimate, and a refusal, repeats exactly.  Measured against the exact
    row counts from (2, 7) to (8, 7), it was within 6% at every (d, n) below
    the work cap and within 30% above it.
    """
    import numpy as np

    length = 2 * n
    _, delta = _tables(d, length)
    rng = np.random.default_rng(0)
    diff = np.zeros((d, _PROBES), delta.dtype)
    weight = np.ones(_PROBES)
    rows = 0.0
    for pos in range(length - 1):
        rows += weight.sum()
        ok = _extensions(diff, length - pos)
        survivors = np.count_nonzero(ok, axis=0)
        weight *= survivors
        pick = (rng.random(_PROBES) * survivors).astype(np.int16)
        letter = (np.cumsum(ok, axis=0, dtype=np.int16) > pick).argmax(axis=0)
        diff += delta[:, letter]
    return rows / _PROBES


def _state_tables(d: int, n: int, marker_cap: int | None, tally: int | None = None):
    """The state tables of the frontier of words of length 2n, n >= 1, as
    (nexts, leaf).

    A state is what the tests of a prefix read: its d letter differences,
    then its count of code tally (tally a letter code) and its counts of 1
    and of -1 (marker_cap set).  Level t holds the distinct states of the
    prefixes of length t that passed, from the empty prefix on; nexts[t] is
    the (states, 2d) table whose entry [s, c] is the id of the state that
    letter c leads to from state s at level t + 1, or -1 where
    _extensions, or marker_cap on letters 1 and -1, refuses c.  A word run
    has a table for every tested level, 0..2n-2, and leaf holds the forced
    last letter of each state of level 2n-1: the letter that cancels its
    imbalance of 1.  A tally run stops one level sooner: its leaf is
    (counts, ok) for the states of level 2n-2, their tally counts (None for
    tally 0) and the (2d, states) mask ok[c, s] of _extensions.

    Callers build the tables before the first block.  CapExceededError is
    raised once the bytes that the tables and their building allocate pass
    DEFAULT_MAX_TABLE_BYTES, each counted before it is allocated.  Per
    level these are 3d bytes a state (its survivor bits and the imbalance
    terms _extensions sums), the vector and three 8-byte indices of each
    child, and the next-state table.  Arrays freed between levels count
    too, so the sum bounds the peak: at d = 200, n = 2 a count sums 36 MiB
    and peaks near 33 MiB.
    """
    import numpy as np

    length = 2 * n
    codes, delta = _tables(d, length)
    k = len(codes)
    letters = np.arange(k)
    steps = [delta]  # one row per state row: its change under letter c
    if tally:
        steps.append(letters == tally + d - (tally > 0))
    if marker_cap is not None:
        steps += [letters == d, letters == d - 1]  # codes 1 and -1
    step = np.vstack(steps).astype(delta.dtype)
    states = np.zeros((len(step), 1), delta.dtype)
    spent = 0

    def charge(nbytes):
        nonlocal spent
        spent += nbytes
        if spent > DEFAULT_MAX_TABLE_BYTES:
            raise CapExceededError(
                f"state tables at d = {d}, n = {n} exceed enumeration table cap "
                f"{DEFAULT_MAX_TABLE_BYTES:.3g} bytes"
            )

    def children(states, parent, letter):
        # the state of each child, one row at a time, so that no array
        # holds a step per child
        out = states.take(parent, 1)
        for row, row_step in zip(out, step):
            row += row_step.take(letter)
        return out

    def numbered(states, parent, letter):
        # equal children are neighbours once sorted; each run of them is
        # one state of the next level, numbered in sorted order.  The
        # children are rebuilt in that order, not permuted, so that one
        # array of them is alive at a time.
        order = np.lexsort(children(states, parent, letter))
        parent, letter = parent.take(order), letter.take(order)
        kids = children(states, parent, letter)
        first = np.zeros(len(parent), bool)
        first[:1] = True
        for row in kids:
            first[1:] |= row[1:] != row[:-1]
        return parent, letter, np.cumsum(first) - 1, kids.compress(first, axis=1)

    nexts = []
    for pos in range(length - 1):
        charge(states.shape[1] * (k + d))  # ok and the imbalances
        ok = _extensions(states[:d], length - pos)
        if tally is not None and pos == length - 2:
            return nexts, (states[d] if tally else None, ok)
        if marker_cap is not None:
            ok[d] &= states[-2] < marker_cap
            ok[d - 1] &= states[-1] < marker_cap
        letter, parent = np.nonzero(ok)
        charge(len(parent) * (len(states) + 24))
        parent, letter, ids, states = numbered(states, parent, letter)
        nxt = np.full((ok.shape[1], k), -1, np.min_scalar_type(-1 - states.shape[1]))
        charge(nxt.nbytes)
        nxt[parent, letter] = ids
        nexts.append(nxt)
    # a state of level 2n - 1 has diff +-1 on one axis i, so its code sum
    # (1..d) @ diff is +-(i + 1), in int16 up to DEFAULT_MAX_D, and the
    # one letter that zeroes it is its negative.  No marker_cap test: a
    # closing 1 or -1 brings its count up to its twin's, which the cap bounds.
    forced = -(np.arange(1, d + 1, dtype=np.int16) @ states[:d])
    return nexts, forced.astype(codes.dtype)


def _word_blocks(d: int, n: int, marker_cap: int | None, tally: int | None = None,
                 tables=None) -> Iterator:
    """Yield arrays of complete words of length 2n, one word per row.

    Rows come out in ascending lexicographic order across all blocks.  A
    prefix survives while every suffix sum of its letter differences
    (diff[i] + ... + diff[d-1]) is >= 0 and the total imbalance sum(|diff|)
    can still be closed by the letters left.  marker_cap, when given,
    bounds the occurrences of letter 1 and of its barred twin separately.
    The tests run once per state, in tables, which _state_tables(d, n,
    marker_cap, tally) builds when none are given: a row carries the id of
    its state, and a block's children are one take of its rows' entries
    in the level's table.  Every run ends at the last tested letter: each
    letter moves the imbalance by +-1, so a prefix of odd length 2n-1 that
    passed has imbalance exactly 1, and only the letter cancelling that
    one unit completes the word.  A word run writes it next to the tested
    letter, read off the forced letter of the survivor's state.

    A tally run (tally set to a code) spells no words: a row is its state
    id alone, and the state holds how often the code tally occurs in the
    prefix; tally 0 is no letter, and its states hold no count.  The run
    yields blocks of the ids of prefixes of length 2n-2.  For those
    states, tables[1] is (counts, ok), the counts None for tally 0, where
    the (2d, states) mask ok[c, s] says whether state s extended by letter
    c passed.  Each set bit of a row's state is one complete word, since
    its last letter is forced.  Tally runs need n >= 1 and marker_cap None.
    Callers check n, d and the caps first.

    Memory: the tables come first (see _state_tables).  Each level then
    keeps its block and the ids of its surviving children while the levels
    below it run.  A block row holds one id of 1, 2 or 4 bytes and, in a
    word run, its length letters; while the children of a block are found,
    a row takes 2d ids and 2d survivor bits more.  Word blocks hold CHUNK
    rows and tally blocks _TALLY_BLOCK_BYTES // (2d + 1), never fewer than
    CHUNK: at d = 2, 4,096 and 52,428 rows.
    """
    import numpy as np

    length = 2 * n
    codes, _ = _tables(d, length)
    if not n:  # the empty word
        yield np.zeros((1, 0), codes.dtype)
        return
    nexts, leaf = tables or _state_tables(d, n, marker_cap, tally)
    k = len(codes)
    root = np.zeros(1, np.int8)  # the id of the empty prefix

    if tally is not None:
        chunk = max(CHUNK, _TALLY_BLOCK_BYTES // (k + 1))

        def tally_grow(pos, ids):
            if pos == len(nexts):
                yield ids
                return
            # child r * k + c is row r extended by letter c, so the
            # surviving children stay in order
            kids = nexts[pos].take(ids, axis=0).ravel()
            kids = kids[kids >= 0]
            for start in range(0, len(kids), chunk):
                yield from tally_grow(pos + 1, kids[start:start + chunk])

        yield from tally_grow(0, root)
        return

    def grow(pos, ids, words):
        # Yield the blocks under one parent block; each level holds its
        # block, its survivors' ids and one chunk of children at a time.
        # Child r * k + c is row r extended by letter c; flatnonzero is
        # ascending, so the children stay in order.
        kids = nexts[pos].take(ids, axis=0).ravel()
        keep = np.flatnonzero(kids >= 0).astype(np.min_scalar_type(len(kids)))
        kids = kids.take(keep)
        # one void item per word row, so a row gather is a 1-D take
        flat = words.view(np.dtype((np.void, words.itemsize * length))).ravel()
        for start in range(0, len(keep), CHUNK):
            p, c = np.divmod(keep[start:start + CHUNK], k)
            block = flat.take(p).view(codes.dtype).reshape(-1, length)
            block[:, pos] = codes.take(c)
            if pos == length - 2:
                block[:, pos + 1] = leaf.take(kids[start:start + CHUNK])
                yield block
            else:
                yield from grow(pos + 1, kids[start:start + CHUNK], block)

    yield from grow(0, root, np.zeros((1, length), codes.dtype))


def iter_complete_words(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """Iterate over the code tuples of all complete words of length 2n, in
    order.  d and n are checked at the call, not at the first word."""
    d, n = _check_cap(d, n)
    blocks = _word_blocks(d, n, None, tables=n and _state_tables(d, n, None))
    return (word for block in blocks for word in map(tuple, block.tolist()))


def count_complete_words(d: int, n: int) -> int:
    """Number of complete Gessel words of length 2n over d letter pairs."""
    import numpy as np

    d, n = _check_cap(d, n)
    if not n:
        return 1  # the empty word
    tables = _state_tables(d, n, None, 0)  # tally 0: the states hold no count
    _, ok = tables[1]
    # the survivor count of each leaf state, in the smallest dtype, which
    # the per-row take reads fastest
    survivors = np.count_nonzero(ok, axis=0).astype(np.min_scalar_type(len(ok)))
    return sum(int(survivors.take(ids).sum()) for ids in _word_blocks(d, n, None, 0, tables))


def profile_triangle_row(n: int) -> tuple[int, ...]:
    """Row n of the d=2 profile triangle.

    Entry j counts complete words of length 2n containing exactly j plain 2s
    (hence j barred 2s and n-j pairs of 1s).  Row sums recover the full d=2
    count; both extremal entries are Catalan numbers.
    """
    import numpy as np

    _, n = _check_cap(2, n)  # before sizing the bins from n
    if not n:
        return (1,)
    # A complete word never ends in a plain letter c: the prefix before it
    # would hold diff -1 on axis c - 1, a negative suffix sum.  So a word
    # has its prefix's 2s, plus one if its tested letter is 2.  Each leaf
    # row is binned by (prefix 2s, survivors 0..4, whether 2 survived),
    # where ok[3] is letter 2.
    tables = _state_tables(2, n, None, 2)
    twos, ok = tables[1]
    bins = np.zeros((n + 1) * 5 * 2, dtype=np.int64)
    keys = (twos * 5 + np.count_nonzero(ok, axis=0)) * 2 + ok[3]  # per leaf state
    keys = keys.astype(np.min_scalar_type(len(bins)))
    for ids in _word_blocks(2, n, None, 2, tables):
        bins += np.bincount(keys.take(ids), minlength=len(bins))
    hist = [0] * (n + 1)
    for key, count in enumerate(bins.tolist()):
        if count:
            twos, rest = divmod(key, 10)
            survivors, two = divmod(rest, 2)
            hist[twos] += count * (survivors - two)
            if two:
                hist[twos + 1] += count
    return tuple(hist)


def marker_position_triangle(n: int) -> dict[tuple[int, int], int]:
    """Position counts for single-pair words of length 2n (d=2).

    Maps (i, j) with 1 <= i < j <= 2n to the number of complete words whose
    only 1/1-bar letters sit at positions i and j, in either order.
    """
    import numpy as np

    _, n = _check_cap(2, n)
    length = 2 * n
    tally = np.zeros(length * length, dtype=np.int64)  # flat (i-1, j-1)
    for block in _word_blocks(2, n, 1, tables=n and _state_tables(2, n, 1)):
        # a complete word has 0 or 2 marks under marker_cap=1, so the marked
        # columns come in (i, j) pairs
        _, cols = np.nonzero(np.abs(block) == 1)
        ij = cols.reshape(-1, 2)
        tally += np.bincount(ij[:, 0] * length + ij[:, 1], minlength=length * length)
    return {
        (key // length + 1, key % length + 1): count
        for key, count in enumerate(tally.tolist())
        if count
    }


def triangle_rows(tri: dict[tuple[int, int], int], n: int) -> list[list[int]]:
    """Lay the (i, j) map out as the displayed triangle.

    Row r (r = 1..2n-1, top down) lists the entries with j - i = 2n - r,
    so the apex is the (1, 2n) entry and the bottom row holds the adjacent
    pairs (i, i+1).
    """
    length = 2 * n
    rows = []
    for r in range(1, length):
        gap = length - r
        rows.append([tri.get((i, i + gap), 0) for i in range(1, r + 1)])
    return rows
