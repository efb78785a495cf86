import tracemalloc
from collections import Counter, defaultdict
from itertools import islice, product
from math import ceil, log2, prod
from operator import add, le

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesselwalks import (
    CapExceededError,
    count_complete_words,
    count_confined_walks,
    dyck,
    even_marker_sum_free_closed,
    formulas,
    g_sequence,
    gessel_closed_form,
    gessel_steps,
    one_pair_closed,
    walks,
)


def test_steps_are_closed_under_negation():
    # a walk back to the origin, read backwards, takes the negated steps; the
    # half-sweep origin count rests on this
    for d in range(1, 9):
        steps = gessel_steps(d)
        assert {tuple(-x for x in s) for s in steps} == steps, d


def test_step_sets():
    assert gessel_steps(1) == frozenset({(1,), (-1,)})
    assert gessel_steps(2) == frozenset({(1, 1), (1, 0), (-1, 0), (-1, -1)})
    s3 = gessel_steps(3)
    assert len(s3) == 6
    assert (1, 1, 1) in s3 and (-1, 0, 0) in s3


def test_d1_counts_are_catalan():
    assert [count_confined_walks(1, 2 * n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert count_confined_walks(1, 3) == 0


def test_d2_matches_closed_form():
    for n in range(9):
        assert count_confined_walks(2, 2 * n) == gessel_closed_form(n)


def test_g_sequence_single_sweep():
    assert g_sequence(2, 7) == [gessel_closed_form(n) for n in range(8)]
    assert g_sequence(1, 5) == [1, 1, 2, 5, 14, 42]


def test_d3_matches_enumeration():
    for n in range(5):
        assert count_confined_walks(3, 2 * n) == count_complete_words(3, n)


@pytest.mark.parametrize("d, n, want", [(5, 3, 2125), (8, 2, 212), (12, 2, 486)])
def test_enumeration_matches_the_dp_past_the_brute_force_range(d, n, want):
    # (2d)^(2n) tuples is far past what the frontier's brute-force tests
    # can list, so the walk DP is the independent reference here
    assert count_complete_words(d, n) == count_confined_walks(d, 2 * n) == want


def test_endpoints():
    # one step can only reach the four neighbours
    assert count_confined_walks(2, 1, end=(1, 1)) == 1
    assert count_confined_walks(2, 1, end=(1, 0)) == 1
    assert count_confined_walks(2, 1, end=(0, 1)) == 0
    # leaving the cone is impossible
    assert count_confined_walks(2, 4, end=(-1, 0)) == 0
    assert count_confined_walks(2, 2, end=(99, 0)) == 0


def test_odd_length_origin_return_is_zero():
    # x_1 = length (mod 2), so no sweep runs, not even one past both caps
    for d in range(1, 5):
        for length in (1, 5, 10**9 + 1):
            assert count_confined_walks(d, length) == 0
            assert count_confined_walks(d, length, end=(0,) * d) == 0


def _origin_by_full_sweep(d, n):
    """G_d(n) read at the origin after all 2n steps of the sweep toward it."""
    origin = (0,) * d
    for limbs in walks._run_dp(d, 2 * n, origin):
        pass
    return walks._read(limbs, 2 * n, origin, walks._limb_bits(d))


@pytest.mark.parametrize("d, n_max", [(1, 40), (2, 40), (3, 20), (4, 10)])
def test_half_sweep_matches_the_full_sweep_origin(d, n_max):
    # at d=2 the full sweep's origin count needs a second limb from n = 17 on
    for n in range(n_max + 1):
        want = _origin_by_full_sweep(d, n)
        assert count_confined_walks(d, 2 * n) == want, n
        assert count_confined_walks(d, 2 * n, end=(0,) * d) == want, n


@st.composite
def _origin_cases(draw):
    d = draw(st.integers(1, 4))
    return d, draw(st.integers(0, (150, 60, 24, 12)[d - 1]))


@given(_origin_cases())
@settings(max_examples=30, deadline=None)
def test_half_sweep_origin_count_property(case):
    d, n = case
    assert count_confined_walks(d, 2 * n) == _origin_by_full_sweep(d, n)


@pytest.mark.parametrize("shape", [(1,), (1023,), (32, 32), (1025,), (3, 1025)])
@pytest.mark.parametrize("bits", [42, 58, 59, 60])
def test_sum_of_squares_is_exact(shape, bits):
    # limbs below the top at 2^B - 1 and a top limb at 2^(B+1) - 1 fill every
    # piece but those of one cell, whose 1 keeps a low bit set in every sum;
    # w = 21 divides B = 42, so the top limb's extra bit needs a piece of its
    # own; the shapes straddle the 1024-cell chunks
    import numpy as np

    rng = np.random.default_rng(bits * 7919 + sum(shape))
    for n_limbs in (1, 2, 5):
        full = [np.full(shape, 2**bits - 1) for _ in range(n_limbs - 1)]
        full.append(np.full(shape, 2 ** (bits + 1) - 1))
        for limb in full:
            limb.reshape(-1)[0] = 1
        drawn = [rng.integers(0, 2**bits, shape) for _ in range(n_limbs - 1)]
        drawn.append(rng.integers(0, 2 ** (bits + 1), shape))
        for limbs in (full, drawn):
            values = [
                sum(int(v) << (bits * k) for k, v in enumerate(cell))
                for cell in zip(*(limb.reshape(-1).tolist() for limb in limbs))
            ]
            assert walks._sum_of_squares(limbs, bits) == sum(v * v for v in values)


def _point(t, cell):
    """The orthant point that index cell of layer t stands for."""
    return (2 * cell[0] + t % 2, *cell[1:])


def _endpoint_counts(d, length):
    """The nonzero counts of the last layer of one open sweep, keyed by the
    orthant point each cell stands for."""
    import numpy as np

    for limbs in walks._run_dp(d, length):
        pass
    bits = walks._limb_bits(d)
    counts = {}
    for cell in np.ndindex(limbs[0].shape):
        value = walks._value(limbs, cell, bits)
        if value:
            counts[_point(length, cell)] = value
    return counts


def test_walk_table_total_and_lookup():
    counts = _endpoint_counts(2, 2)
    # total over all endpoints = all confined 2-step walks
    brute = 0
    steps = sorted(gessel_steps(2))
    for s1 in steps:
        for s2 in steps:
            x, y = s1
            if x < 0 or y < 0:
                continue
            x2, y2 = x + s2[0], y + s2[1]
            if x2 < 0 or y2 < 0:
                continue
            brute += 1
    assert sum(counts.values()) == brute
    # keys are points of the orthant, not indices into the stored layer
    assert counts == {(0, 0): 2, (0, 1): 1, (2, 0): 1, (2, 1): 2, (2, 2): 1}


def _layers_before_cap(monkeypatch, run):
    """The layers a call's sweep yields before it raises CapExceededError,
    and the error's text."""
    built = []
    sweep = walks._run_dp

    def counting(*args):
        for layer in sweep(*args):
            built.append(layer)
            yield layer

    monkeypatch.setattr(walks, "_run_dp", counting)
    with pytest.raises(CapExceededError) as caught:
        run()
    monkeypatch.setattr(walks, "_run_dp", sweep)
    return len(built), str(caught.value)


def _largest_limb_cells(d, length, end=None):
    """The most int64 words the pre-pass predicts for one layer of a sweep:
    its cells times ceil((t*log2(2d) + 1) / B) limbs after t steps."""
    bits = walks._limb_bits(d)
    return max(
        ceil((t * log2(2 * d) + 1) / bits) * limbs[0].size
        for t, limbs in enumerate(walks._run_dp(d, length, end))
    )


def test_cell_cap(monkeypatch):
    # a cap equal to a sweep's largest layer admits it, and one word less
    # refuses it before the first layer, through both public routes
    for d, n in ((2, 40), (3, 12), (4, 6)):
        want = g_sequence(d, n)
        for run, length, end in (
            (lambda: count_confined_walks(d, 2 * n), n, None),
            (lambda: g_sequence(d, n)[-1], 2 * n, (0,) * d),
        ):
            largest = _largest_limb_cells(d, length, end)
            with monkeypatch.context() as patch:
                patch.setattr(walks, "DEFAULT_MAX_CELLS", largest)
                assert run() == want[-1]
                patch.setattr(walks, "DEFAULT_MAX_CELLS", largest - 1)
                built, error = _layers_before_cap(patch, run)
            assert built == 0 and f"cell cap of {largest - 1} " in error


def test_cell_cap_counts_the_largest_layer(monkeypatch):
    # the 40-step half sweep behind G(40) ends on its largest layer: x_1 even
    # in 0..40 and x_2 in 0..40, 21 x 41 cells in ceil((40*2 + 1) / 59) = 2
    # predicted limbs, against 41 x 41 cells of the full box
    monkeypatch.setattr(walks, "DEFAULT_MAX_CELLS", 2 * 21 * 41)
    assert count_confined_walks(2, 80) == gessel_closed_form(40)
    monkeypatch.setattr(walks, "DEFAULT_MAX_CELLS", 2 * 21 * 41 - 1)
    built, error = _layers_before_cap(monkeypatch, lambda: count_confined_walks(2, 80))
    assert built == 0 and error.endswith(" at layer 40")


def _no_steps(d):
    raise AssertionError(f"built the {2 * d} steps of d = {d}")


def test_caps_fire_before_the_steps_are_built(monkeypatch):
    # the 2d steps hold 2d^2 coordinates (2.3 GB at d = 12,000), so the caps
    # are predicted from 2d alone
    monkeypatch.setattr(walks, "gessel_steps", _no_steps)
    for run in (lambda: count_confined_walks(20000, 2), lambda: g_sequence(20000, 1)):
        with pytest.raises(CapExceededError, match="cell cap of"):
            run()


def test_huge_d_exits_with_a_one_line_message():
    # layer 1 holds 2^(d-1) cells; the pre-pass stops multiplying them once
    # past the cap, so it never forms or prints a 301,030-digit count
    with pytest.raises(CapExceededError) as caught:
        count_confined_walks(10**6, 2)
    assert str(caught.value) == (
        f"DP sweep of 1 steps exceeds the cell cap of {walks.DEFAULT_MAX_CELLS} "
        "int64 limb cells at layer 1"
    )


def test_a_huge_d_is_refused_before_anything_of_size_d_is_built():
    count_confined_walks(2, 2)  # numpy and the module load outside the trace
    tracemalloc.start()
    try:
        for run in (lambda: count_confined_walks(10**7, 2), lambda: g_sequence(10**7, 1)):
            with pytest.raises(CapExceededError, match="cell cap of"):
                run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_length_zero_needs_no_sweep_and_a_sweep_past_32_axes_is_refused():
    for d in (33, 65, 10**20):
        assert count_confined_walks(d, 0) == 1 and g_sequence(d, 0) == [1]
    wall = (1,) + (0,) * 39
    assert count_confined_walks(40, 0, end=wall) == 0
    assert count_confined_walks(40, 0, end=(0,) * 40) == 1
    assert count_confined_walks(walks.MAX_DIMENSION, 1, end=wall[: walks.MAX_DIMENSION]) == 1
    # layer 1 of this sweep is one cell, so the cell cap admits it
    with pytest.raises(CapExceededError, match="exceeds the cap of 32 dimensions"):
        count_confined_walks(40, 1, end=wall)


# The largest --n and --n-max that `count` admits per d, and the cap that
# refuses the next one; README lists the same rows with one timed run each.
# --n N sweeps N steps with no endpoint, --n-max N sweeps 2N toward the origin.
CAP_TABLE = [
    # d, --n, cap past it, --n-max, cap past it
    (1, 9695, "work", 6235, "work"),
    (2, 805, "work", 678, "work"),
    (3, 183, "work", 153, "work"),
    (4, 65, "cell", 63, "work"),
    (5, 31, "cell", 31, "cell"),
    (6, 17, "cell", 17, "cell"),
    (8, 8, "cell", 8, "cell"),
    (10, 5, "cell", 5, "cell"),
]


def _refusal(d, length, end):
    """The message of the cap that refuses a sweep, None when both admit it.

    The caps are checked before layer 0 is yielded, so no layer is built."""
    try:
        next(walks._run_dp(d, length, end))
    except CapExceededError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("d, n, n_cap, n_max, n_max_cap", CAP_TABLE)
def test_cap_table(d, n, n_cap, n_max, n_max_cap):
    origin = (0,) * d
    assert _refusal(d, n, None) is None
    assert f" the {n_cap} cap of " in _refusal(d, n + 1, None)
    assert _refusal(d, 2 * n_max, origin) is None
    assert f" the {n_max_cap} cap of " in _refusal(d, 2 * n_max + 2, origin)


def test_work_cap(monkeypatch):
    # the first d=2 requests past the work cap (CAP_TABLE) build no layer
    for run in (lambda: count_confined_walks(2, 2 * 806), lambda: g_sequence(2, 679)):
        built, error = _layers_before_cap(monkeypatch, run)
        assert built == 0 and f"work cap of {walks.DEFAULT_MAX_WORK} " in error


def test_work_cap_reads_the_module_constant(monkeypatch):
    monkeypatch.setattr(walks, "DEFAULT_MAX_WORK", 0)
    assert count_confined_walks(2, 0) == 1
    with pytest.raises(CapExceededError, match="work cap of 0 "):
        count_confined_walks(2, 2)


@pytest.mark.parametrize("d, length", [(1, 300), (2, 120), (3, 40)])
def test_work_cap_bounds_the_limb_count(d, length):
    # the work cap predicts at most ceil((t*log2(2d) + 1) / B) limbs
    # after t steps; the open-ended sweep holds the largest counts
    bits = walks._limb_bits(d)
    for t, limbs in enumerate(walks._run_dp(d, length)):
        assert len(limbs) <= ceil((t * log2(2 * d) + 1) / bits), t


def _layers(d, length, end=None):
    """The limb shapes of every layer of one sweep."""
    return [{limb.shape for limb in limbs} for limbs in walks._run_dp(d, length, end)]


def test_sweep_covers_only_the_live_region():
    # a Gessel step moves x by +-1, so layer t holds only x = t (mod 2):
    # index (i, j) stands for the point (2i + t % 2, j)
    to_origin = _layers(2, 10, (0, 0))
    wedge = [min(t, 10 - t) for t in range(11)]
    assert to_origin == [{((m - t % 2) // 2 + 1, m + 1)} for t, m in enumerate(wedge)]
    open_end = _layers(2, 10)
    assert open_end == [{((t - t % 2) // 2 + 1, t + 1)} for t in range(11)]


def _exact_values(limbs, bits):
    """The counts a layer's limbs hold, as an object array of Python ints."""
    return sum(limb.astype(object) << (bits * k) for k, limb in enumerate(limbs))


def _origin_sweep_limbs(length):
    """(limb count, largest count, largest top-limb value) after each step of
    the d=2 origin sweep."""
    bits = walks._limb_bits(2)
    return [
        (len(limbs), int(_exact_values(limbs, bits).max()), int(limbs[-1].max()))
        for limbs in walks._run_dp(2, length, (0, 0))
    ]


def test_second_limb_follows_the_values():
    # B = 62 - bit_length(4) = 59; d=2 carries on even steps, since a limb
    # below 2^59 stays below 2^63 for two 4-fold steps.  Step 34 holds the
    # first count past 2^59 - 1, so it is the first with two limbs
    sweep = _origin_sweep_limbs(80)
    assert [k for k, _, _ in sweep[:35]] == [1] * 34 + [2]
    assert sweep[33][1] < 2**59 <= sweep[34][1]
    assert g_sequence(2, 40) == [gessel_closed_form(n) for n in range(41)]


def test_multi_limb_sweep_stays_exact():
    # 2n = 80 ends on three limbs.  The counts first pass 2^118 - 1 at step
    # 65, an odd step with no carry, whose top limb holds them uncarried
    # past 2^59; the carry of step 66 adds the third limb
    sweep = _origin_sweep_limbs(80)
    assert [k for k, _, _ in sweep] == [1] * 34 + [2] * 32 + [3] * 15
    assert sweep[64][1] < 2**118 <= sweep[65][1]
    assert sweep[64][2] < 2**59 <= sweep[65][2]
    assert count_confined_walks(2, 80) == gessel_closed_form(40)


@pytest.mark.parametrize("d, length", [(1, 130), (2, 80), (3, 30), (4, 16)])
def test_limbs_grow_only_on_the_carry_steps_that_need_them(d, length):
    # after each carry, every limb lies below 2^B and the limbs are as few as
    # the largest count allows; between carries the limb count holds
    bits = walks._limb_bits(d)
    due = {1: 3, 2: 2}.get(d, 1)
    held = 1
    for t, limbs in enumerate(walks._run_dp(d, length)):
        if t % due == 0 or t == length:
            assert max(int(limb.max()) for limb in limbs) < 2**bits, t
            largest = int(_exact_values(limbs, bits).max())
            held = max(1, -(-largest.bit_length() // bits))
        assert len(limbs) == held, t


def test_g_sequence_matches_closed_form_to_200():
    assert g_sequence(2, 200) == [gessel_closed_form(n) for n in range(201)]


def _brute_endpoints(d, length):
    """Endpoint counts over every Gessel step sequence from the origin that
    stays in the orthant."""
    counts = Counter()
    for seq in product(sorted(gessel_steps(d)), repeat=length):
        point = (0,) * d
        for s in seq:
            point = tuple(map(add, point, s))
            if min(point) < 0:
                break
        else:
            counts[point] += 1
    return counts


@st.composite
def _walk_cases(draw):
    d = draw(st.integers(1, 3))
    end = draw(st.tuples(*[st.integers(0, 8)] * d))
    length = draw(st.integers(0, 6))
    return end, length


@given(_walk_cases())
@example(((6, 6), 6))  # far corner of the box
@example(((4, 0), 3))  # end beyond L
@example(((2, 1), 3))  # end off the parity x_1 = length (mod 2)
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force(case):
    end, length = case
    d = len(end)
    brute = _brute_endpoints(d, length)
    assert count_confined_walks(d, length, end=end) == brute[end]
    assert _endpoint_counts(d, length) == dict(brute)


def _dict_layers(d, length):
    """Endpoint counts after 0..length steps, by a layer-by-layer DP over a
    dict of Python ints."""
    steps = gessel_steps(d)
    layer = {(0,) * d: 1}
    yield layer
    for _ in range(length):
        nxt = defaultdict(int)
        for point, count in layer.items():
            for s in steps:
                q = tuple(map(add, point, s))
                if min(q) >= 0:
                    nxt[q] += count
        layer = dict(nxt)
        yield layer


def _dict_dp(d, length):
    """Endpoint counts after length steps (see _dict_layers)."""
    for layer in _dict_layers(d, length):
        pass
    return layer


@st.composite
def _long_walk_cases(draw):
    d = draw(st.integers(1, 3))
    # the dict DP touches every reachable cell, so d=3 stays short; its
    # second limb appears at step 27
    length = draw(st.integers(30, 70) if d < 3 else st.integers(24, 28))
    return d, length


@given(_long_walk_cases())
@example((2, 70))
@example((3, 40))
@settings(max_examples=25, deadline=None)
def test_multi_limb_dp_matches_dict_dp(case):
    d, length = case
    want = _dict_dp(d, length)
    assert _endpoint_counts(d, length) == want
    end = max(want, key=want.get)
    assert count_confined_walks(d, length, end=end) == want[end]


@st.composite
def _layer_cases(draw):
    d = draw(st.integers(1, 4))
    length = draw(st.integers(0, (70, 40, 20, 12)[d - 1]))
    k = draw(st.integers(0, length + 1))
    kind = draw(st.sampled_from(["open", "wall", "corner", "off parity", "any"]))
    if kind == "open":
        end = None
    elif kind == "wall":
        axis = draw(st.integers(0, d - 1))
        end = tuple(k if i == axis else 0 for i in range(d))
    elif kind == "corner":
        end = (length,) * d
    else:
        end = draw(st.tuples(*[st.integers(0, length + 1)] * d))
        if kind == "off parity" and (end[0] - length) % 2 == 0:
            end = (end[0] + 1,) + end[1:]
    # with no slack, rows change length wherever 1/16 of a layer allows,
    # so the sweep also takes the steps that lay its rows out anew
    return d, length, end, draw(st.sampled_from([0, walks._ROW_SLACK]))


@given(_layer_cases())
@example((2, 40, None, 0))
@example((2, 41, (0, 0), 0))  # its last step carries off the even-step grid
@example((1, 70, (0,), 0))  # g_sequence reads layers 2, 4, 8, ... between carries
@example((2, 30, (9, 0), 2**18))  # on the walls
@example((2, 30, (0, 9), 0))
@example((3, 20, (0, 0, 7), 0))
@example((2, 25, (25, 25), 2**18))  # far corner
@example((2, 25, (4, 3), 0))  # off the parity x_1 = length (mod 2)
@example((4, 12, (3, 0, 2, 1), 0))
@settings(max_examples=40, deadline=None)
def test_every_layer_matches_the_dict_dp(case):
    # each yielded layer, carried or not, holds exactly the dict DP's counts
    # on its live region: x_k <= t, and x_k <= end_k + (length - t) toward an
    # endpoint, with x_1 = t (mod 2); its limbs store no more cells than the
    # module docstring allows
    d, length, end, slack = case
    bits = walks._limb_bits(d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walks, "_ROW_SLACK", slack)
        layers = zip(walks._run_dp(d, length, end), _dict_layers(d, length))
        for t, (limbs, want) in enumerate(layers):
            his = [t] * d if end is None else [min(t, x + length - t) for x in end]
            shape = (max(0, (his[0] - t % 2) // 2 + 1), *(h + 1 for h in his[1:]))
            assert {limb.shape for limb in limbs} == {shape}, t
            assert limbs[0].base.size <= _stored_limb_cells(shape, len(limbs)), t
            got = {
                _point(t, cell): value
                for cell, value in np.ndenumerate(_exact_values(limbs, bits))
                if value
            }
            assert got == {p: v for p, v in want.items() if all(map(le, p, his))}, t
    origin = (0,) * d
    if end == origin and length % 2 == 0:
        assert g_sequence(d, length // 2) == [
            layer.get(origin, 0) for layer in islice(_dict_layers(d, length), 0, None, 2)
        ]


def _stored_limb_cells(shape, n_limbs):
    """The most cells one of n_limbs limbs of a layer of live shape may
    store (module docstring): its rows hold the last axis and a pad cell,
    and longer rows add at most 1/16 of its live cells or _ROW_SLACK."""
    head, size = prod(shape[:-1]), shape[-1]
    return head * (size + 1) + max(head * size / 16, walks._ROW_SLACK / n_limbs)


def _peak_and_bound(monkeypatch, d, length, end=None):
    """The tracemalloc peak of one sweep, and the bound on it in live cells.

    Each limb is bounded by _stored_limb_cells, with _ROW_SLACK patched to
    0.  Stepping limb k of n old ones holds k + 1 new limbs and n - k old
    ones, and a carry the new limbs and one temporary; a step also holds
    one _PAIR_BLOCK, patched to 2^10 cells, and the buffers numpy iterates
    a strided add through, three of 2^10 cells here (np.setbufsize)."""
    block = 2**10
    monkeypatch.setattr(walks, "_PAIR_BLOCK", block)
    monkeypatch.setattr(walks, "_ROW_SLACK", 0)
    layers = []
    bufsize = np.setbufsize(block)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for limbs in walks._run_dp(d, length, end):
            layers.append((len(limbs), limbs[0].shape))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    step = 0
    for (n, before), (n_new, after) in zip(layers, layers[1:]):
        old, new = _stored_limb_cells(before, n), _stored_limb_cells(after, n_new)
        carry = max(n + (n > 1), n_new) * new
        step = max(step, new + n * old, n * new + old, carry)
    return peak, 8 * (step + 4 * block) + 2**14, layers


@pytest.mark.parametrize("d, length", [(2, 200), (6, 8)])
def test_a_step_holds_one_layer_one_limb_and_one_block(monkeypatch, d, length):
    # an open sweep grows, so its largest layer is its last: d=2 ends on 7
    # limbs of 101 x 201 live cells, d=6 on one limb of 5 x 9^5; a
    # temporary of one limb more, or of the d=6 layer before the last,
    # would pass the bound
    peak, bound, layers = _peak_and_bound(monkeypatch, d, length)
    assert layers[-1][0] == (7 if d == 2 else 1)
    assert peak < bound


@pytest.mark.parametrize("end", [(30, 30, 30, 0), (0, 0, 0, 30), (30, 0, 30, 0)])
def test_a_wall_endpoint_sweep_stores_about_its_live_cells(monkeypatch, end):
    # toward a wall the last axis of a late layer is short while the others
    # are long (first end), or the other way round early on (second end);
    # rows of the longest last axis of the sweep would store up to 32 times
    # the live cells of a layer
    peak, bound, _ = _peak_and_bound(monkeypatch, 4, 30, end)
    assert peak < bound


def test_d1_counts_match_ballot_numbers_to_300():
    # B = 60 for two steps, so these lengths cross several limb boundaries
    for length in (59, 60, 61, 62, 121, 122, 183, 244, 299, 300):
        for j in {0, 1, 2, length // 2, length - 2, length - 1, length, length + 1}:
            got = count_confined_walks(1, length, end=(j,))
            assert got == dyck.ballot_count(0, j, length)
    assert _endpoint_counts(1, 300) == {
        (j,): dyck.ballot_count(0, j, 300) for j in range(0, 301, 2)
    }


def test_bad_inputs():
    with pytest.raises(ValueError):
        count_confined_walks(0, 2)
    with pytest.raises(ValueError):
        count_confined_walks(2, -1)
    with pytest.raises(ValueError):
        count_confined_walks(2, 2, end=(1,))
    # walks take the Gessel steps from the origin; there is no knob for either
    for knob in ({"steps": gessel_steps(2)}, {"start": (0, 0)}):
        with pytest.raises(TypeError):
            count_confined_walks(2, 2, **knob)


def test_endpoint_coordinates_must_be_integers():
    import numpy as np

    # int() would truncate 0.5 to the origin and count its 11 walks
    for end in ((0.5, 0), (0, 1.5), (-0.5, 0)):
        with pytest.raises(ValueError, match="end must be integers"):
            count_confined_walks(2, 4, end=end)
    # integral values of other types behave as plain ints
    want = count_confined_walks(2, 4, end=(2, 0))
    assert count_confined_walks(2, 4, end=(2.0, 0)) == want
    assert count_confined_walks(2, 4, end=np.array([2, 0])) == want
    assert count_confined_walks(2, 4, end=(np.int64(2), np.int32(0))) == want


@pytest.mark.parametrize(
    "call, args",
    [
        (count_confined_walks, (2, 4)),
        (g_sequence, (2, 2)),
        (gessel_steps, (2,)),
        (gessel_closed_form, (2,)),
        (formulas.gessel_closed_sequence, (2,)),
        (one_pair_closed, (2,)),
        (even_marker_sum_free_closed, (2,)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_counts_take_integral_numbers_of_any_type(call, args):
    import numpy as np

    # one shared check: int() must not change a value, whatever its type
    want = call(*args)
    assert call(*map(float, args)) == call(*map(np.int64, args)) == want
    for i in range(len(args)):
        for value in (args[i] + 0.5, float("inf")):
            bad = list(args)
            bad[i] = value
            with pytest.raises(ValueError, match="must be (an integer|integers)"):
                call(*bad)
