"""Compiled repair plans against the symbolic repairs they replaced.

IA, MDS and AMBR repair by applying a cached RepairPlan: one send map per
helper and one decode map. tests/reference_paths.py keeps the paths the
plans replaced: IA's transfers, coupling solve and single-failure decodes,
MDS's solve and re-encode, and AMBR's node-by-node theta solves. Here both
must give the same contents, the same transcript and the same singular
outcome, with the same dependent transfers, on drawn codes, patterns,
helpers and messages over GF(2^4)..GF(2^8), and GF(2^10) for IA. Transcripts count the rows of
the send maps (PM's, the transfers it computes) and must meet each
family's closed form, and a singular
pattern must name size - rank(A) dependent transfers. IA's helpers share
one send map, which a plan runs over all of them at once; sent per helper
instead, every outcome must be the same.
"""

import functools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import reference_paths as ref
from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.framework import CouplingSystem, RepairPlan, SingularCouplingError, unknown_pairs
from regenrepair import pm
from regenrepair.gf import Field, LinearMap, Matrix, dot, mat_rank
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode

# family -> {m: constructor arguments after the field}; every family at the
# smallest fields it fits in, IA also with its singular patterns
# (k = 3 fails on (2, 5) at every m here, IA(GF(16), 4) on four pairs) and
# past m = 8, where IA(GF(2^10), 3) compiles on two-byte lanes and has one
# singular pattern among its 41
CODES = {
    "ia": {4: (4,), 5: (3,), 6: (4,), 7: (3,), 8: (4,), 10: (3,)},
    "mds": {4: (5, 2, 3, None), 5: (5, 2, 3, None), 6: (6, 2, None, 3), 7: (6, 2, None, 3), 8: (7, 3, None, 4)},
    "ambr": {5: (5, 2, 2, 3), 6: (6, 2, 3, 4), 7: (6, 2, 3, 4), 8: (8, 3, 4, 5)},
}


@functools.lru_cache(maxsize=None)
def build(family, m):
    field = Field(m)
    args = CODES[family][m]
    if family == "ia":
        return IACode(field, *args)
    if family == "mds":
        n, k, d, d_max = args
        return MDSStripeCode(field, n, k, d=d, d_max=d_max)
    return AdaptiveMBRCode(field, *args)


def degrees(code, e):
    """The repair degrees the code accepts for e failures."""
    if isinstance(code, (IACode, PMCode)):
        return [None]
    if isinstance(code, MDSStripeCode):
        low = code.delta if code.mode == "fixed" else code.k
        return [d for d in range(low, code.d_max + 1) if d <= code.n - e and code.message_length % d == 0]
    return [d for d in range(code.d_min, code.d_max + 1) if e + d <= code.n]


def max_failures(code):
    if isinstance(code, IACode):
        return code.k
    cap = code.k if isinstance(code, AdaptiveMBRCode) else code.n - 1
    return max(e for e in range(1, cap + 1) if degrees(code, e))


def outcome(repair):
    """(contents, transcript), or the singular error's failed nodes and
    dependent transfers."""
    try:
        return repair()
    except SingularCouplingError as err:
        return ("singular", err.failed, err.dependent)


def reference(code, survivors, pattern, helpers, d):
    if isinstance(code, IACode):
        return ref.ia_repair(code, survivors, pattern)
    if isinstance(code, MDSStripeCode):
        return ref.mds_repair(code, survivors, pattern, helpers, d)
    return ref.ambr_repair(code, survivors, pattern, helpers, d)


@functools.lru_cache(maxsize=None)
def singular_ia_patterns(code):
    return [
        pattern
        for e in range(2, code.k + 1)
        for pattern in combinations(code.node_ids(), e)
        if code.coupling_system(pattern)[0].determinant() == 0
    ]


@st.composite
def repair_cases(draw):
    family = draw(st.sampled_from(sorted(CODES)))
    code = build(family, draw(st.sampled_from(sorted(CODES[family]))))
    e = draw(st.integers(1, max_failures(code)))
    pattern = tuple(sorted(draw(st.permutations(code.node_ids()))[:e]))
    singular = singular_ia_patterns(code) if family == "ia" else []
    if singular and draw(st.booleans()):  # they are rare among uniform draws
        pattern = draw(st.sampled_from(singular))
    d = draw(st.sampled_from(degrees(code, len(pattern))))
    survivors = [node for node in code.node_ids() if node not in pattern]
    helpers = tuple(survivors) if d is None else tuple(sorted(draw(st.permutations(survivors))[:d]))
    symbol = st.integers(0, code.field.size - 1)
    message = draw(st.lists(symbol, min_size=code.message_length, max_size=code.message_length))
    return code, pattern, helpers, d, message


@settings(max_examples=300, deadline=None)
@given(repair_cases())
def test_plan_matches_symbolic_repair(case):
    code, pattern, helpers, d, message = case
    shards = code.encode(message)
    survivors = {node: shard for node, shard in shards.items() if node not in pattern}
    degree = {} if d is None else {"d": d}
    got = outcome(lambda: code.repair_multi(survivors, pattern, helpers, **degree))
    want = outcome(lambda: reference(code, survivors, pattern, helpers, d))
    assert got == want
    if got[0] != "singular":
        assert got[0] == {node: shards[node] for node in pattern}


def closed_form(code, e):
    if isinstance(code, PMCode):
        return e * (code.d - e + 1)
    if isinstance(code, IACode):
        return e * (code.n - e)
    if isinstance(code, MDSStripeCode):
        return code.message_length
    return e * code.alpha - e * (e - 1) // 2 * code.z


@pytest.mark.parametrize(
    "code",
    [
        PMCode(Field(8, 0x11D), 11, 6),
        IACode(Field(8, 0x11D), 6),
        MDSStripeCode(Field(8, 0x11D), 7, 3, d_max=4),
        AdaptiveMBRCode(Field(8, 0x11D), 8, 3, 4, 5),
    ],
    ids=["pm", "ia", "mds", "ambr"],
)
def test_transcripts_meet_the_closed_forms(code, monkeypatch):
    """Every pattern of up to three failures at every degree: e(d-e+1) for
    PM, e(n-e) for IA, M for MDS, e*alpha - C(e,2)*z for AMBR. Each
    helper's count is the row count of its send map, and for PM, which has
    no plan, the number of transfers it computed on its shard (pm's dot)."""
    shards = code.encode(code.random_message(random.Random(3)))
    sent = []
    monkeypatch.setattr(pm, "dot", lambda f, shard, projection: sent.append(shard) or dot(f, shard, projection))
    for e in (1, 2, 3):
        for pattern in combinations(code.node_ids(), e):
            survivors = {node: shard for node, shard in shards.items() if node not in pattern}
            for d in degrees(code, e):
                degree = {} if d is None else {"d": d}
                sent.clear()
                try:
                    _, transcript = code.repair_multi(survivors, pattern, **degree)
                except SingularCouplingError:
                    continue
                assert transcript.total == sum(transcript.per_helper.values()) == closed_form(code, e)
                if isinstance(code, PMCode):
                    counted = {h: sum(shard is survivors[h] for shard in sent) for h in transcript.per_helper}
                    assert transcript.per_helper == counted and len(sent) == transcript.total
                    continue
                plan = code._maps[code._plan_key(survivors, pattern, **degree)]
                assert transcript.per_helper == {h: send.rows for h, send in zip(plan.helpers, plan.send)}


@pytest.mark.parametrize("m, k", [(2, 3), (4, 4), (5, 3)])
def test_singular_ia_pattern_names_its_dependent_transfers(m, k):
    code = IACode(Field(m), k)
    shards = code.encode(code.random_message(random.Random(m)))
    patterns = singular_ia_patterns(code)
    assert patterns
    for pattern in patterns:
        survivors = {node: shard for node, shard in shards.items() if node not in pattern}
        system, _ = code.coupling_system(pattern)
        errors = []
        for _ in range(2):
            with pytest.raises(SingularCouplingError) as info:
                code.repair_multi(survivors, pattern)
            errors.append(info.value)
        first, second = errors
        assert first is not second  # a fresh error per call, not a stored one
        assert first.failed == second.failed == pattern
        assert first.dependent == second.dependent
        assert len(first.dependent) == system.size - mat_rank(system.A) > 0
        order = unknown_pairs(pattern)
        assert sorted(first.dependent, key=order.index) == list(first.dependent)
        assert code._maps[("repair", pattern)].decode is None  # the marker is cached
        with pytest.raises(SingularCouplingError) as info:
            system.solve()
        assert info.value.dependent == first.dependent


def test_singular_pm_pattern_names_its_dependent_transfers():
    code = PMCode(Field(6, 0x43), 11, 6)
    shards = code.encode(code.random_message(random.Random(2)))
    singular = 0
    for pattern in combinations(code.node_ids(), 2):
        survivors = {node: shard for node, shard in shards.items() if node not in pattern}
        helpers = code.default_helpers(survivors, pattern, code.d - 1)
        system, _ = code.assemble_multi(survivors, pattern, helpers)
        if system.determinant() != 0:
            continue
        singular += 1
        with pytest.raises(SingularCouplingError) as info:
            code.repair_multi(survivors, pattern)
        assert len(info.value.dependent) == system.size - mat_rank(system.A) > 0
        assert set(info.value.dependent) <= set(unknown_pairs(pattern))
    assert singular


def test_dependent_lists_every_column_without_a_pivot():
    """Real codes here are singular by one transfer; a made-up system and
    plan carry two."""
    field = Field(4)
    system = CouplingSystem(field, (2, 5, 8))
    for t in (1, 4):
        system.A.data[t][t] ^= 1  # clears the pre-filled diagonal
    with pytest.raises(SingularCouplingError) as info:
        system.solve()
    assert info.value.dependent == (system.pairs[1], system.pairs[4])
    assert len(info.value.dependent) == system.size - mat_rank(system.A)
    plan = RepairPlan((2, 5, 8), (), (), None, info.value.dependent)
    errors = []
    for _ in range(2):
        with pytest.raises(SingularCouplingError) as raised:
            plan.apply({})
        errors.append(raised.value)
    assert errors[0] is not errors[1]
    assert errors[0].dependent == errors[1].dependent == info.value.dependent


def test_repairs_reuse_one_plan_per_pattern():
    code = IACode(Field(8, 0x11D), 4)
    shards = code.encode(code.random_message(random.Random(4)))
    pattern = (2, 5, 7)
    survivors = {node: shard for node, shard in shards.items() if node not in pattern}
    first = code.repair_multi(survivors, pattern)
    plan = code._maps[("repair", pattern)]
    assert code.repair_multi(survivors, pattern) == first
    assert code._maps[("repair", pattern)] is plan
    assert first[0] == {node: shards[node] for node in pattern}


@pytest.mark.parametrize("m", sorted(CODES["ia"]))
def test_shared_sends_batched_match_sends_per_helper(m):
    """Every IA pattern of e = 1..k: the plan, which sends through its one
    shared map in one apply_stripes call, against the same plan with a
    copy of the map per helper, which sends helper by helper."""
    code = build("ia", m)
    shards = code.encode(code.random_message(random.Random(m)))
    singular = 0
    for e in range(1, code.k + 1):
        for pattern in combinations(code.node_ids(), e):
            survivors = {node: shard for node, shard in shards.items() if node not in pattern}
            batched = outcome(lambda: code.repair_multi(survivors, pattern))
            plan = code._maps[("repair", pattern)]
            send = [LinearMap(Matrix(code.field, [code._projection(j) for j in pattern])) for _ in plan.helpers]
            one_by_one = RepairPlan(plan.failed, plan.helpers, tuple(send), plan.decode, plan.dependent)
            per_helper = outcome(lambda: (one_by_one.apply(survivors), one_by_one.transcript()))
            assert batched == per_helper
            if batched[0] == "singular":
                singular += 1
                continue
            assert batched[0] == {node: shards[node] for node in pattern}
            # systematic nodes' projections are unit vectors, so a pattern
            # without a parity node picks, helper by helper, in both plans
            assert plan.send[0] is plan.send[-1]
            assert (plan.send[0].picks is None) == any(j > code.k for j in pattern)
    assert singular == len(singular_ia_patterns(code))
