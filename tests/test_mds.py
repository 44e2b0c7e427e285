"""Striped MDS code: systematic layout, reconstruction, many-failure repair."""

import random
from itertools import combinations

import pytest

import reference_paths as ref
from regenrepair.framework import InvalidHelperCountError
from regenrepair.gf import Field, LinearMap
from regenrepair.mds import MDSStripeCode
from regenrepair.workbench import run_sweep

F32 = Field(5)
F128 = Field(7)


def test_fixed_construction_and_systematic_layout():
    code = MDSStripeCode(F32, 6, 2, d=3)
    assert (code.mode, code.delta, code.message_length) == ("fixed", 3, 6)
    msg = code.random_message(random.Random(1))
    shards = code.encode(msg)
    assert shards[1] + shards[2] == msg  # leading positions are the file itself
    assert code.encode([0] * 6) == {j: [0, 0, 0] for j in range(1, 7)}


def test_reconstruct_every_k_subset():
    code = MDSStripeCode(F32, 6, 2, d=3)
    msg = code.random_message(random.Random(2))
    shards = code.encode(msg)
    for sub in combinations(range(1, 7), 2):
        assert code.reconstruct({i: shards[i] for i in sub}) == msg
    big = MDSStripeCode(F32, 8, 3, d=4)
    msg = big.random_message(random.Random(3))
    shards = big.encode(msg)
    for sub in combinations(range(1, 9), 3):
        assert big.reconstruct({i: shards[i] for i in sub}) == msg


def test_single_symbol_file():
    code = MDSStripeCode(Field(2), 3, 1, d=1)
    shards = code.encode([3])
    assert shards[1] == [3]
    assert code.reconstruct({3: shards[3]}) == [3]
    content, transcript = code.repair_single({2: shards[2], 3: shards[3]}, 1)
    assert content == shards[1] and transcript.total == 1


def test_many_failure_repair_costs_exactly_m():
    code = MDSStripeCode(F32, 6, 2, d=3)
    msg = code.random_message(random.Random(4))
    shards = code.encode(msg)
    for e in (2, 3):  # e >= k patterns, d = 3 fits while e <= n - d
        for pattern in combinations(range(1, 7), e):
            live = {i: s for i, s in shards.items() if i not in pattern}
            contents, transcript = code.repair_multi(live, pattern)
            assert contents == {i: shards[i] for i in pattern}
            assert transcript.total == 6  # gamma = M always
            assert set(transcript.per_helper.values()) == {2}  # beta = M/d


def test_degenerate_full_shard_download():
    # e = n - k failures with d = k helpers: each helper ships its whole shard
    code = MDSStripeCode(F32, 6, 2, d=2)
    msg = code.random_message(random.Random(5))
    shards = code.encode(msg)
    live = {5: shards[5], 6: shards[6]}
    contents, transcript = code.repair_multi(live, (1, 2, 3, 4))
    assert contents == {i: shards[i] for i in (1, 2, 3, 4)}
    assert transcript.per_helper == {5: 2, 6: 2} and transcript.total == 4


def test_adaptive_mode_frozen_values():
    code = MDSStripeCode(F128, 7, 2, d_max=4)
    assert (code.mode, code.delta, code.message_length) == ("adaptive", 12, 24)
    msg = code.random_message(random.Random(6))
    shards = code.encode(msg)
    live = {i: shards[i] for i in (4, 5, 6, 7)}
    for d, beta in [(3, 8), (4, 6)]:
        contents, transcript = code.repair_multi(live, (1, 2, 3), d=d)
        assert contents == {i: shards[i] for i in (1, 2, 3)}
        assert set(transcript.per_helper.values()) == {beta}
        assert transcript.total == 24
    # default degree is the largest the survivor count allows
    _, transcript = code.repair_multi({i: shards[i] for i in range(3, 8)}, (1, 2))
    assert transcript.per_helper == {3: 6, 4: 6, 5: 6, 6: 6}


def test_small_failure_counts_also_work():
    # the regime of interest is e >= k, but reconstruct-and-reencode does not care
    code = MDSStripeCode(F32, 6, 2, d=3)
    msg = code.random_message(random.Random(7))
    shards = code.encode(msg)
    content, transcript = code.repair_single({i: s for i, s in shards.items() if i != 4}, 4)
    assert content == shards[4] and transcript.total == 6


def test_helper_and_degree_validation():
    code = MDSStripeCode(F32, 6, 2, d=3)
    shards = code.encode([0] * 6)
    live = {i: shards[i] for i in (4, 5, 6)}
    with pytest.raises(InvalidHelperCountError):
        code.repair_multi(live, (1, 2, 3), d=2)  # fixed mode pins d = delta
    with pytest.raises(InvalidHelperCountError):
        code.repair_multi(live, (1, 2, 3), helpers=(4, 5))
    with pytest.raises(InvalidHelperCountError):
        code.repair_multi({6: shards[6]}, (1, 2, 3, 4, 5))  # d > n - e
    ad = MDSStripeCode(F128, 7, 2, d_max=4)
    sh = ad.encode([0] * 24)
    with pytest.raises(InvalidHelperCountError):
        ad.repair_multi({i: sh[i] for i in (4, 5, 6, 7)}, (1, 2, 3), d=5)
    with pytest.raises(ValueError):
        ad.repair_multi({i: sh[i] for i in (1, 2, 4)}, (1, 5))  # failed node kept a shard


def test_construction_validation():
    with pytest.raises(ValueError):
        MDSStripeCode(F32, 2, 3, d=3)  # n < k
    with pytest.raises(ValueError):
        MDSStripeCode(F32, 6, 2, d=3, d_max=4)  # both modes
    with pytest.raises(ValueError):
        MDSStripeCode(F32, 6, 2)  # neither mode
    with pytest.raises(ValueError):
        MDSStripeCode(F32, 6, 2, d=6)  # d > n-1
    with pytest.raises(ValueError):
        MDSStripeCode(Field(4), 7, 2, d_max=4)  # needs 84 points, field has 16


def test_descriptor_and_sweep():
    code = MDSStripeCode(F32, 6, 2, d=3)
    assert code.descriptor() == {
        "family": "mds", "n": 6, "k": 2, "mode": "fixed",
        "d_or_range": 3, "m": 5, "modulus": F32.modulus,
    }
    ad = MDSStripeCode(F128, 7, 2, d_max=4)
    assert ad.descriptor()["d_or_range"] == [2, 4]
    report = run_sweep(code, 3, seed=9)
    assert len(report.entries) == 20 and report.all_ok()
    assert {entry.bandwidth for entry in report.entries} == {6}
    again = run_sweep(code, 3, seed=9)
    assert report.to_json() == again.to_json()


@pytest.mark.parametrize(
    "code",
    [MDSStripeCode(Field(8, 0x11D), 7, 3, d_max=4), MDSStripeCode(F32, 6, 2, d=3)],
    ids=["adaptive", "fixed"],
)
def test_lagrange_tables_match_the_eliminations(code):
    """The generator is V_all V_sys^-1 and every decode map, for every
    e <= 3 pattern, degree and helper set, is the Gauss-Jordan one."""
    assert code.generator == ref.mds_generator(code)
    low = code.delta if code.mode == "fixed" else code.k
    plans = 0
    for e in (1, 2, 3):
        for failed in combinations(code.node_ids(), e):
            survivors = [i for i in code.node_ids() if i not in failed]
            for d in range(low, min(code.d_max, code.n - e) + 1):
                if code.message_length % d:
                    continue
                beta = code.message_length // d
                for helpers in combinations(survivors, d):
                    plan = code._compile_plan(failed, helpers, beta)
                    reference = LinearMap(ref.mds_decode_map(code, failed, helpers, beta))
                    assert ref.map_columns(plan.decode) == ref.map_columns(reference)
                    plans += 1
    assert plans == {"adaptive": 735, "fixed": 140}[code.mode]
