"""Compiled, cached linear maps against the paths they replaced.

Encode, reconstruct and the MDS and AMBR repairs run as gf.LinearMap
products cached per code. tests/reference_paths.py keeps the per-family
formulas and solves they replaced; here both paths must give equal shards,
messages, repaired contents and transcripts: every reader set of the four
families, and every pattern of up to three failures at every repair degree
of MDS and AMBR. The cache must hand out no state a caller can corrupt,
the same pattern at two degrees must run two plans, and a full cache must
drop the entry used least recently.
"""

import random
from itertools import combinations

import pytest

import reference_paths as ref
from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.framework import MAP_CACHE_LIMIT
from regenrepair.gf import Field
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode

F256 = Field(8, 0x11D)
CODES = {
    "pm": (lambda: PMCode(F256, 11, 6), ref.pm_encode, ref.pm_reconstruct),
    "ia": (lambda: IACode(F256, 6), ref.ia_encode, ref.ia_reconstruct),
    "mds": (lambda: MDSStripeCode(F256, 7, 3, d_max=4), ref.mds_encode, ref.mds_reconstruct),
    "ambr": (lambda: AdaptiveMBRCode(F256, 8, 3, 4, 5), ref.ambr_encode, ref.ambr_reconstruct),
}
# the repairs that became maps, with every degree their codes support
REPAIRS = {
    "mds": (CODES["mds"][0], ref.mds_repair, (3, 4)),
    "ambr": (CODES["ambr"][0], ref.ambr_repair, (4, 5)),
}


@pytest.mark.parametrize("family", sorted(CODES))
def test_encode_matches_family_formula(family):
    build, encode, _ = CODES[family]
    code = build()
    rng = random.Random(family)
    messages = [[0] * code.message_length, [code.field.size - 1] * code.message_length]
    messages += [code.random_message(rng) for _ in range(4)]
    for msg in messages:
        assert code.encode(msg) == encode(code, msg)


@pytest.mark.parametrize("family", sorted(CODES))
def test_reconstruct_matches_solve_for_every_reader_set(family):
    build, _, reconstruct = CODES[family]
    code = build()
    msg = code.random_message(random.Random(family))
    shards = code.encode(msg)
    for readers in combinations(code.node_ids(), code.k):
        subset = {i: shards[i] for i in readers}
        got = code.reconstruct(subset)
        assert got == reconstruct(code, subset) == msg


@pytest.mark.parametrize("family", sorted(REPAIRS))
def test_repair_matches_reference_for_every_small_pattern_and_degree(family):
    build, repair, degrees = REPAIRS[family]
    code = build()
    shards = code.encode(code.random_message(random.Random(family)))
    for e in (1, 2, 3):
        for pattern in combinations(code.node_ids(), e):
            survivors = {i: v for i, v in shards.items() if i not in pattern}
            for d in degrees:
                contents, transcript = code.repair_multi(survivors, pattern, d=d)
                helpers = tuple(sorted(survivors))[:d]
                want, want_transcript = repair(code, survivors, pattern, helpers, d)
                assert contents == want == {i: shards[i] for i in pattern}
                assert transcript == want_transcript


def test_ambr_coefficient_matrix_is_the_generator_rows():
    code = CODES["ambr"][0]()
    nodes = (5, 2, 7)
    rows = code.coefficient_matrix(nodes).data
    for j in range(code.message_length):
        basis = [0] * code.message_length
        basis[j] = 1
        column = [x for node in nodes for x in ref.ambr_encode(code, basis)[node]]
        assert [row[j] for row in rows] == column


@pytest.mark.parametrize("family", sorted(CODES))
def test_returned_lists_do_not_alias_the_cache(family):
    code = CODES[family][0]()
    msg = code.random_message(random.Random(7))
    shards = code.encode(msg)
    again = code.encode(list(msg))
    for shard in shards.values():
        shard[0] ^= 1
    assert code.encode(msg) == again

    readers = {i: list(again[i]) for i in range(1, code.k + 1)}
    message = code.reconstruct(readers)
    message[0] ^= 1
    assert code.reconstruct(readers) == msg

    failed = (1, 2)
    survivors = {i: v for i, v in again.items() if i not in failed}
    contents, _ = code.repair_multi(survivors, failed)
    for content in contents.values():
        content[0] ^= 1
    assert code.repair_multi(survivors, failed)[0] == {i: again[i] for i in failed}
    assert code.encode(msg) == again


@pytest.mark.parametrize("family", sorted(REPAIRS))
def test_one_pattern_at_two_degrees_runs_two_plans(family):
    build, _, degrees = REPAIRS[family]
    code = build()
    shards = code.encode(code.random_message(random.Random(9)))
    pattern = (2, 4, 6)
    survivors = {i: v for i, v in shards.items() if i not in pattern}
    plans = []
    for d in degrees + degrees:
        contents, transcript = code.repair_multi(survivors, pattern, d=d)
        assert contents == {i: shards[i] for i in pattern}
        plans.append({key for key in code._maps if key[0] == "repair"})
    first, second, third, fourth = plans
    assert first < second  # the second degree compiled plans of its own
    assert second == third == fourth  # and both degrees reuse theirs
    # MDS keys carry beta = M / d, AMBR keys the degree itself
    degree_of = (lambda key: code.message_length // key[3]) if family == "mds" else (lambda key: key[2])
    assert {degree_of(key) for key in second} == set(degrees)


def test_full_cache_drops_the_least_recently_used_entry():
    """Fill a code's cache past its limit while encoding in between: the
    encode map stays, so the generator is built once, and a filler hit
    again stays while the ones around it go."""
    code = IACode(F256, 3)
    built = []
    generator = code._generator
    code._generator = lambda: built.append(1) or generator()
    msg = code.random_message(random.Random(5))
    shards = code.encode(msg)
    for i in range(2 * MAP_CACHE_LIMIT):
        code._compiled(("filler", i), object)
        if i % 50 == 0:
            assert code.encode(msg) == shards
            code._compiled(("filler", 0), None)  # a hit builds nothing
    assert len(code._maps) == MAP_CACHE_LIMIT
    assert "encode" in code._maps and ("filler", 0) in code._maps
    assert ("filler", 1) not in code._maps and ("filler", 2 * MAP_CACHE_LIMIT - 1) in code._maps
    assert len(built) == 1


@pytest.mark.parametrize("family", ["ambr", "ia", "pm"])
def test_generator_outlives_a_full_cache(family):
    """Warm encodes never read the generator, so newer entries must not
    push it out: after a full cache turns over, a read map is compiled
    from the generator built for the first encode. (MDS builds its
    generator in the constructor.)"""
    code = CODES[family][0]()
    built = []
    generator = code._generator
    code._generator = lambda: built.append(1) or generator()
    msg = code.random_message(random.Random(6))
    shards = code.encode(msg)
    for i in range(2 * MAP_CACHE_LIMIT):
        code._compiled(("filler", i), object)
    assert "encode" not in code._maps
    assert code.reconstruct(shards) == msg
    assert len(built) == 1
