"""Adaptive minimum-bandwidth code: any repair degree in range, e <= k at once.

The bandwidth accounting is cross-checked two ways: transcript totals against
the closed-form bound, and information content against the rank law for
stacked node contents.
"""

import random
from itertools import combinations
from math import prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

import reference_paths as ref
from regenrepair.framework import InvalidHelperCountError
from regenrepair.gf import Field, _lane_bits, _reduce_packed, mat_rank
from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.workbench import run_sweep

F64 = Field(6)


def example_code():
    return AdaptiveMBRCode(F64, 7, 3, 4, 5)


def test_frozen_shape_parameters():
    code = example_code()
    assert (code.alpha, code.z, code.block_symbols, code.message_length) == (20, 5, 9, 45)
    # per-node content: z blocks of d_min symbols each
    shards = code.encode([0] * 45)
    assert shards == {l: [0] * 20 for l in range(1, 8)}


def test_psi_points_structure():
    code = example_code()
    # rows run over powers 1..d_min of distinct nonzero points
    points = [row[0] for row in code.Psi.data]
    assert len(set(points)) == 35 and 0 not in points
    for row in code.Psi.data:
        assert row == [F64.pow(row[0], j) for j in range(1, 5)]
    # omega columns are a Vandermonde transpose on consecutive generator powers
    g = F64.generator
    assert code.Omega.data == [
        [F64.pow(F64.pow(g, i), r) for i in range(5)] for r in range(5)
    ]


def test_construction_validation():
    with pytest.raises(ValueError):
        AdaptiveMBRCode(F64, 7, 3, 4, 7)  # gap > 2
    with pytest.raises(ValueError):
        AdaptiveMBRCode(Field(8, 0x11D), 8, 3, 5, 7)  # d_max > 6
    with pytest.raises(ValueError):
        AdaptiveMBRCode(F64, 7, 5, 4, 5)  # k > d_min
    with pytest.raises(ValueError):
        AdaptiveMBRCode(F64, 5, 3, 4, 5)  # d_max > n-1
    with pytest.raises(ValueError):
        AdaptiveMBRCode(Field(5), 7, 3, 4, 5)  # needs 35 points, field has 31 nonzero


def test_reconstruct_every_k_subset():
    code = example_code()
    msg = code.random_message(random.Random(3))
    shards = code.encode(msg)
    for sub in combinations(range(1, 8), 3):
        assert code.reconstruct({i: shards[i] for i in sub}) == msg


def test_single_repair_every_node_every_degree():
    code = example_code()
    msg = code.random_message(random.Random(5))
    shards = code.encode(msg)
    for node in code.node_ids():
        live = {i: s for i, s in shards.items() if i != node}
        for d in (4, 5):
            content, transcript = code.repair_single(live, node, d=d)
            assert content == shards[node]
            assert transcript.total == 20  # gamma = alpha for every degree
            assert set(transcript.per_helper.values()) == {20 // d}


def test_multi_repair_bandwidth_frozen():
    code = example_code()
    msg = code.random_message(random.Random(6))
    shards = code.encode(msg)
    live = {i: s for i, s in shards.items() if i not in (1, 2)}
    contents, transcript = code.repair_multi(live, (1, 2), d=5)
    assert contents == {1: shards[1], 2: shards[2]}
    assert transcript.total == 35 == code.mbr_bandwidth_bound(2)
    # first pass: 5 helpers x alpha/5; second: first d_min-1 helpers x z more
    assert transcript.per_helper == {3: 9, 4: 9, 5: 9, 6: 4, 7: 4}
    live = {i: s for i, s in shards.items() if i not in (2, 4, 6)}
    contents, transcript = code.repair_multi(live, (2, 4, 6), d=4)
    assert contents == {i: shards[i] for i in (2, 4, 6)}
    assert transcript.total == 45 == code.mbr_bandwidth_bound(3) == code.message_length


def test_multi_repair_exhaustive():
    code = example_code()
    msg = code.random_message(random.Random(7))
    shards = code.encode(msg)
    for e in (2, 3):
        for pattern in combinations(range(1, 8), e):
            live = {i: s for i, s in shards.items() if i not in pattern}
            for d in (4, 5):
                if e + d > 7:
                    continue
                contents, transcript = code.repair_multi(live, pattern, d=d)
                assert contents == {i: shards[i] for i in pattern}
                assert transcript.total == code.mbr_bandwidth_bound(e)


def test_bandwidth_bound_values():
    code = example_code()
    assert code.mbr_bandwidth_bound(1) == 20
    assert code.mbr_bandwidth_bound(2) == 35
    assert code.mbr_bandwidth_bound(3) == 45 == code.message_length  # e = k reads all
    with pytest.raises(ValueError):
        code.mbr_bandwidth_bound(4)


@pytest.mark.parametrize("e", [True, 1.0, "1", None])
def test_bandwidth_bound_refuses_an_e_that_is_not_an_int(e):
    """True and 1.0 read as e = 1 (20 and 20.0), and "1" died with TypeError."""
    with pytest.raises(ValueError):
        AdaptiveMBRCode(Field(8), 8, 3, 4, 5).mbr_bandwidth_bound(e)


def test_rank_law_for_stacked_contents():
    code = example_code()
    for e in (1, 2, 3):
        want = (e * 4 - e * (e - 1) // 2) * 5
        for sub in combinations(range(1, 8), e):
            assert mat_rank(code.coefficient_matrix(sub)) == want


def test_single_degree_range_collapse():
    # d_min = d_max = k: one block, plain minimum-bandwidth behavior
    code = AdaptiveMBRCode(Field(4), 5, 3, 3, 3)
    assert (code.alpha, code.z, code.message_length) == (3, 1, 6)
    msg = code.random_message(random.Random(8))
    shards = code.encode(msg)
    for sub in combinations(range(1, 6), 3):
        assert code.reconstruct({i: shards[i] for i in sub}) == msg
    contents, transcript = code.repair_multi({i: shards[i] for i in (3, 4, 5)}, (1, 2))
    assert contents == {1: shards[1], 2: shards[2]}
    assert transcript.total == 5 == code.mbr_bandwidth_bound(2)


def test_helper_validation():
    code = example_code()
    shards = code.encode([0] * 45)
    live = {i: shards[i] for i in (3, 5, 6, 7)}
    with pytest.raises(InvalidHelperCountError):
        code.repair_multi(live, (1, 2), d=6)  # degree out of range
    with pytest.raises(InvalidHelperCountError):
        code.repair_multi(live, (1, 2, 4), d=5)  # e + d > n
    with pytest.raises(InvalidHelperCountError):
        code.repair_multi(live, (1, 2), helpers=(3, 5), d=4)
    with pytest.raises(ValueError):
        code.repair_multi(shards, (1,))  # failed node kept a shard
    with pytest.raises(ValueError):
        code.repair_multi({i: shards[i] for i in (5, 6, 7)}, (1, 2, 3, 4))  # e > k


def test_too_many_failures_are_refused_with_the_limit_written_out():
    """e <= k, and the refusal names k, as PM's and IA's name their limits;
    it read "can repair 1..k nodes at once"."""
    with pytest.raises(ValueError) as refused:
        AdaptiveMBRCode(Field(8), 7, 3, 4, 5).repair_multi({}, (1, 2, 3, 4))
    assert type(refused.value) is ValueError and str(refused.value) == "can repair 1..3 nodes at once"


def test_explicit_helper_choice():
    code = example_code()
    msg = code.random_message(random.Random(9))
    shards = code.encode(msg)
    live = {i: s for i, s in shards.items() if i not in (1, 2)}
    contents, transcript = code.repair_multi(live, (1, 2), helpers=(4, 5, 6, 7), d=4)
    assert contents == {1: shards[1], 2: shards[2]}
    assert set(transcript.per_helper) == {4, 5, 6, 7}
    assert transcript.per_helper == {4: 10, 5: 10, 6: 10, 7: 5}


def test_descriptor_and_determinism():
    code = example_code()
    assert code.descriptor() == {
        "family": "ambr", "n": 7, "k": 3, "d_min": 4, "d_max": 5,
        "m": 6, "modulus": F64.modulus,
    }
    twin = AdaptiveMBRCode(F64, 7, 3, 4, 5)
    assert twin.Psi.data == code.Psi.data  # points are a pure function of params
    msg = list(range(45))
    assert twin.encode(msg) == code.encode(msg)


def test_sweep_interface():
    code = example_code()
    report = run_sweep(code, 2, seed=4, d=5)
    assert len(report.entries) == 21 and report.all_ok()
    assert {entry.bandwidth for entry in report.entries} == {35}


@pytest.mark.parametrize(
    "m, params",
    [
        (5, (7, 3, 3, 4)),  # three draws rejected before one passes
        (4, (5, 2, 2, 3)),  # all 25 draws rejected
        (8, (8, 3, 4, 5)),
        (10, (8, 2, 2, 3)),  # past the byte tables, mat_det on stacked blocks: one draw rejected
        (13, (5, 2, 2, 3)),  # past the log tables
    ],
)
def test_construction_picks_the_points_of_the_determinant_loop(m, params):
    """The block-table check accepts and rejects exactly the draws that
    mat_det of every subset's freshly built theta did."""
    field = Field(m)
    try:
        expected = ref.ambr_points(field, *params)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            AdaptiveMBRCode(field, *params)
    else:
        assert AdaptiveMBRCode(field, *params).Psi == expected


@pytest.mark.parametrize(
    "m, params, count",
    [
        # two helper sets at each degree, but one at d = 5 when five survive
        (8, (8, 3, 4, 5), 4 * 8 + 4 * 28 + 3 * 56),
        (7, (8, 3, 4, 5), 4 * 8 + 4 * 28 + 3 * 56),
        (10, (7, 2, 3, 4), 4 * 7 + 4 * 21),
        # past the log tables, and one set at d = 3 when three survive
        (13, (5, 2, 2, 3), 4 * 5 + 3 * 10),
    ],
    ids=["m8", "m7", "m10", "m13"],
)
def test_plans_match_the_compile_on_rebuilt_theta(m, params, count):
    """Every e <= k pattern at every degree, with the default helpers and
    with the last d survivors: the same send and decode maps as the compile
    that inverted each step's theta, built entry by entry, and chained the
    regenerated nodes through it."""
    code = AdaptiveMBRCode(Field(m), *params)
    plans = 0
    for e in range(1, code.k + 1):
        for failed in combinations(code.node_ids(), e):
            survivors = [i for i in code.node_ids() if i not in failed]
            for d in range(code.d_min, code.d_max + 1):
                for helpers in {tuple(survivors[:d]), tuple(survivors[-d:])}:
                    plan = code._compile_plan(failed, d, helpers)
                    reference = ref.ambr_compile_plan(code, failed, d, helpers)
                    assert [ref.map_columns(s) for s in plan.send] == [ref.map_columns(s) for s in reference.send]
                    assert ref.map_columns(plan.decode) == ref.map_columns(reference.decode)
                    plans += 1
    assert plans == count


# (d_min, d_max) with a degree above d_min, gap <= 2 and d_max <= 6
GAPPED_SHAPES = [(lo, hi) for lo in range(1, 5) for hi in range(lo + 1, min(lo + 2, 6) + 1)]


@st.composite
def drawn_point_sets(draw):
    """A drawn shape, n = d_max+1..d_max+3 within the field, and z*n drawn
    distinct nonzero points placed on the nodes of an AMBR code with k = 1.
    Past m = 8, where theta reduces on list rows, alpha stays <= 24."""
    m = draw(st.sampled_from([5, 6, 8, 10, 13]))
    field = Field(m)
    shapes = [
        (n, lo, hi)
        for lo, hi in GAPPED_SHAPES
        if m <= 8 or prod(range(lo, hi + 1)) <= 24
        for n in range(hi + 1, hi + 4)
        if prod(range(lo, hi + 1)) // lo * n <= field.order
    ]
    n, d_min, d_max = draw(st.sampled_from(shapes))
    z = prod(range(d_min, d_max + 1)) // d_min
    points = draw(st.lists(st.integers(1, field.order), min_size=z * n, max_size=z * n, unique=True))
    with mock.patch.object(AdaptiveMBRCode, "_decode_maps_invertible", return_value=True):
        code = AdaptiveMBRCode(field, n, 1, d_min, d_max)
    code._place(points)
    return code


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_point_sets())
def test_q_and_theta_find_the_same_singular_helper_sets(code):
    """On drawn shapes (gap <= 2, d_min = 1..4) and drawn point sets over
    m = 5, 6, 8, 10 and 13, the constructor's check names the same singular
    (d, S) as the reduction of every alpha-square theta_S (ref), so its
    verdict on the points is theirs. Below d = 2 d_min, where it decides S
    on the z(d - d_min)-square Q_S, Q_S's kernel has theta_S's dimension,
    as docs/ambr-decode-maps.md proves."""
    nullities = ref.ambr_theta_nullities(code)
    singular = [key for key, nullity in nullities.items() if nullity]
    assert list(code._singular_helper_sets()) == singular
    assert code._decode_maps_invertible() == (singular == [])
    for d in range(code.d_min + 1, min(code.d_max, 2 * code.d_min - 1) + 1):
        order = code.z * (d - code.d_min)
        for subset, rows in code._q_stacks(d):
            assert len(rows) == order and all(row >> _lane_bits(code.field) * order == 0 for row in rows)
            rank = len(_reduce_packed(code.field, rows, order, order, False)[0])
            assert order - rank == nullities[d, subset], (d, subset)


def test_the_drawn_point_sets_include_singular_helper_sets():
    """The strategy above draws singular helper sets on the Q side: a point
    set with a singular S at some d < 2 d_min turns up (no shrinking), and
    Q finds the same sets."""
    code = find(
        drawn_point_sets(),
        lambda c: any(d < 2 * c.d_min for d, _ in ref.ambr_singular_sets(c)),
        settings=settings(max_examples=200, database=None, derandomize=True, phases=[Phase.generate]),
    )
    singular = ref.ambr_singular_sets(code)
    assert list(code._singular_helper_sets()) == singular and not code._decode_maps_invertible()
