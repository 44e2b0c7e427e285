"""Product-matrix code: round trips, coupling coefficients, sweeps."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_paths as ref
from regenrepair import pm
from regenrepair.framework import CouplingCode, InvalidRepairInputError, SingularCouplingError
from regenrepair.gf import Field, SingularMatrixError, _pack, _unpack_rows, dot, mat_det, mat_inv, mat_solve
from regenrepair.pm import PMCode
from regenrepair.workbench import AssignmentNotFoundError, run_sweep, search_assignment, verify_exact_repair


F16 = Field(4)
F256 = Field(8, 0x11D)
F64 = Field(6, 0x43)


def example_code():
    return PMCode(F256, 11, 6)


def pm_search(field, n, k, e_max, trials, seed=0):
    """The lambdas search_assignment's PM search finds over field."""
    params = {"m": field.m, "modulus": field.modulus, "n": n, "k": k, "e_max": e_max}
    return search_assignment("pm", params, budget=trials, seed=seed)["lambdas"]


# --- independent oracle: coefficient via generic Vandermonde inversion ---

def generic_coefficient(code, i, j, l, pool):
    f = code.field
    hi = sorted(m for m in pool if m != i)
    psi = code.Psi.submatrix([m - 1 for m in hi], range(code.d))
    col = hi.index(l)
    inv = mat_inv(psi)
    v = [inv.data[r][col] for r in range(code.d)]
    lam_j = code.lambdas[j - 1]
    lam_ia = f.pow(code.lambdas[i - 1], code.alpha)
    acc, pw = 0, 1
    for h in range(code.alpha):
        acc = f.add(acc, f.mul(pw, f.add(v[h], f.mul(lam_ia, v[h + code.alpha]))))
        pw = f.mul(pw, lam_j)
    return acc


# --- references built on the Lagrange row of reference_paths ---


def reference_coefficient(code, i, j, l, pool):
    """c_{i,l} . phi_j, phi_j evaluated by powers of lam_j."""
    f = code.field
    acc, pw = 0, 1
    for c in ref.pm_decoder_row(code, i, l, pool):
        acc = f.add(acc, f.mul(c, pw))
        pw = f.mul(pw, code.lambdas[j - 1])
    return acc


def reference_decode(code, target, transfers):
    """Rebuild node target from {source: w_src^t phi_target} by solving the
    sources' Vandermonde system for M phi_target."""
    f = code.field
    ordered = sorted(transfers)
    psi_h = code.Psi.submatrix([h - 1 for h in ordered], range(code.d))
    x = mat_solve(psi_h, [transfers[h] for h in ordered])
    lam = f.pow(code.lambdas[target - 1], code.alpha)
    return [f.add(x[c], f.mul(lam, x[code.alpha + c])) for c in range(code.alpha)]


# (field, n, k): alpha = 1, 2, 4 over GF(2^4), 3 and 5 over GF(2^6) and GF(2^8)
TABLE_CONFIGS = [(F16, 4, 2), (F16, 5, 3), (F16, 9, 5), (F64, 7, 4), (F64, 11, 6), (F256, 8, 4), (F256, 11, 6)]


# n > d+1, so the pool is a choice, over fields with byte tables, wider
# tables (m = 10) and none (m = 13)
WIDE_CONFIGS = [(F16, 7, 3), (F64, 12, 5), (F256, 13, 6), (Field(10), 9, 4), (Field(13), 11, 5), (Field(13), 5, 2)]


@st.composite
def pool_cases(draw, configs=TABLE_CONFIGS):
    """A code on drawn evaluation points, a pool of d+1 of its nodes, and
    a node i of the pool with a source l != i and a destination j."""
    field, n, k = draw(st.sampled_from(configs))
    lambdas = draw(st.lists(st.integers(0, field.size - 1), min_size=n, max_size=n, unique=True))
    assume(len({field.pow(x, k - 1) for x in lambdas}) == n)
    code = PMCode(field, n, k, lambdas)
    pool = draw(st.lists(st.integers(1, n), min_size=code.d + 1, max_size=code.d + 1, unique=True))
    i = draw(st.sampled_from(pool))
    l = draw(st.sampled_from([m for m in pool if m != i]))
    j = draw(st.integers(1, n))
    return code, pool, i, l, j


@settings(max_examples=150, deadline=None)
@given(pool_cases())
def test_table_rows_and_coefficients_match_references(case):
    code, pool, i, l, j = case
    assert code._pool_decoder(i, pool)[l][0] == ref.pm_decoder_row(code, i, l, pool)
    got = code.coupling_coefficient(i, j, l, pool)
    assert got == reference_coefficient(code, i, j, l, pool)
    assert got == generic_coefficient(code, i, j, l, pool)


@settings(max_examples=40, deadline=None)
@given(st.one_of(pool_cases(), pool_cases(WIDE_CONFIGS)))
def test_derived_decoders_equal_the_lagrange_rows(case):
    """Every node of a drawn pool: the decoder derived from the generator
    has the Lagrange row c_{i,l} as its column for each source l, and that
    column's product with Phi holds its dot with every phi_j."""
    code, pool, _, _, _ = case
    for i in pool:
        columns = code._pool_decoder(i, pool)
        assert sorted(columns) == sorted(set(pool) - {i})
        for l, (column, projected) in columns.items():
            row = ref.pm_decoder_row(code, i, l, pool)
            assert column == row, (i, l)
            assert projected == [dot(code.field, row, phi) for phi in code.Phi.data], (i, l)


# Each field once: building GF(2^16)'s tables takes tens of milliseconds.
field_of = functools.cache(Field)


@st.composite
def drawn_codes(draw):
    """A PM code over GF(2^3..2^16) at n = d+1, d+2 or d+4, its lambdas
    drawn, 0 among them or not, with distinct alpha-th powers, and the
    Random it was drawn with."""
    field = field_of(draw(st.integers(3, 16)))
    order = field.order
    powers = lambda k: order // math.gcd(k - 1, order) + 1  # distinct (k-1)-th powers, 0's included
    k = draw(st.sampled_from([k for k in range(2, 8) if 2 * k - 1 <= powers(k)]))
    d, alpha = 2 * k - 2, k - 1
    n = d + draw(st.sampled_from([x for x in (1, 2, 4) if d + x <= powers(k)]))
    rng = draw(st.randoms(use_true_random=False))
    lambdas = [0] if draw(st.booleans()) else []
    seen = {field.pow(x, alpha) for x in lambdas}
    for x in (rng.randrange(field.size) for _ in range(40 * n)):
        if len(lambdas) < n and field.pow(x, alpha) not in seen:
            lambdas.append(x)
            seen.add(field.pow(x, alpha))
    assume(len(lambdas) == n)
    return PMCode(field, n, k, rng.sample(lambdas, n)), rng


@st.composite
def decoder_cases(draw):
    """A drawn code, a node, and d sources in drawn order, the node among
    them or not."""
    code, rng = draw(drawn_codes())
    node = draw(st.integers(1, code.n))
    among = draw(st.booleans())
    sources = rng.sample([s for s in code.node_ids() if among or s != node], code.d)
    return code, node, sources


def pool_entry(code, node, sources, pool):
    """(columns, weights) of PM's rows for node over sources, written from
    the pool table of pool, unpacked."""
    rows = _unpack_rows(code.field, code._pool_entry(node, sources, code._pool_table(pool)), code.alpha + code.n)
    return [row[: code.alpha] for row in rows], [row[code.alpha :] for row in rows]


@settings(max_examples=150, deadline=None)
@given(decoder_cases())
def test_closed_form_decoders_equal_the_generator_space_derivation(case):
    """PM's closed-form decoder over d sources, written from the pool table
    of the node and its sources, is the one CouplingCode derives from the
    generator, column by column in sources order, and the Lagrange row
    c_{i,l} of that pool for each source l; its weights are each column's
    dot with every phi_j. PM refuses sources that are not the pool without
    the node: a repeated source and one source fewer, which the derivation
    refuses too, and a node among its own sources. (A node among d
    sources is determined by them, and the derivation from the generator
    takes such sources; no pool decoder lists its node as a source, and
    PM's closed form, which reads the node's own quotient, refuses them.)"""
    code, node, sources = case
    refused = "node %d decodes from the other %d nodes of its pool" % (node, code.d)
    repeated = sources[:-1] + sources[:1]
    with pytest.raises(SingularMatrixError, match="do not determine node %d" % node):
        CouplingCode._single_decoder(code, node, repeated)
    if node in sources:
        pool = sources + [next(s for s in code.node_ids() if s not in sources)]
        for bad in (sources, repeated):
            with pytest.raises(ValueError, match=refused):
                pool_entry(code, node, bad, pool)
        assert len(CouplingCode._single_decoder(code, node, sources)) == code.d
        return
    pool = [node, *sources]
    columns, weights = pool_entry(code, node, sources, pool)
    assert columns == CouplingCode._single_decoder(code, node, sources)
    assert columns == [ref.pm_decoder_row(code, node, l, pool) for l in sources]
    assert weights == [[dot(code.field, column, phi) for phi in code.Phi.data] for column in columns]
    for bad in (repeated, sources[1:]):
        with pytest.raises(ValueError, match=refused):
            pool_entry(code, node, bad, pool)
    with pytest.raises(SingularMatrixError, match="do not determine node %d" % node):
        CouplingCode._single_decoder(code, node, sources[1:])


@st.composite
def drawn_pools(draw):
    """A drawn code and a pool of d+1 of its nodes in drawn order."""
    code, rng = draw(drawn_codes())
    return code, rng.sample(code.node_ids(), code.d + 1)


@settings(max_examples=60, deadline=None)
@given(drawn_pools())
def test_every_entry_of_a_pool_table_is_the_derived_decoder(case):
    """Every node of a drawn pool, m = 3..16, 0 among the lambdas or not:
    its decoder table entry, written from the pool's one table, holds the
    reference's columns and weights (the decoder derived on list rows, the
    weights by a mat_mul with the projections); the columns are
    CouplingCode's derivation and the sources' Vandermonde inverse folded
    node by node (ref.pm_lagrange_decoder), and _pool_rows holds the same
    columns and weights packed, in sources order."""
    code, pool = case
    f = code.field
    for i in pool:
        sources = sorted(set(pool) - {i})
        entry = code._pool_decoder(i, pool)
        assert entry == ref.pool_decoder(code, i, pool)
        columns = [entry[l][0] for l in sources]
        assert columns == CouplingCode._single_decoder(code, i, sources) == ref.pm_lagrange_decoder(code, i, sources)
        packed = [_pack(f, entry[l][0]) for l in sources], [_pack(f, entry[l][1]) for l in sources]
        assert code._pool_rows(i, pool) == (sources, *packed)


def test_a_pool_table_is_made_once_per_pool_whatever_is_read(monkeypatch):
    """PM's pool table is made when a pool's decoder table starts, once,
    however many of its nodes are read and through whichever call; a new
    pool makes a new one, and so does a return to an earlier pool. At
    n = d+1 every repair and verdict reads one table per code."""
    made, build = [], PMCode._pool_table
    monkeypatch.setattr(PMCode, "_pool_table", lambda self, pool: made.append(frozenset(pool)) or build(self, pool))
    code = PMCode(F256, 13, 6)
    first, second = frozenset(range(1, 12)), frozenset(range(2, 13))
    code._pool_decoder(3, first)
    assert made == [first]
    for i in first:
        code._pool_decoder(i, tuple(first))
        code._pool_rows(i, frozenset(first))
        code.coupling_coefficient(i, 12, min(first - {i}), list(first))
    assert made == [first]
    for i in (2, 12):
        code._pool_decoder(i, second)
    code._pool_decoder(3, first)
    assert made == [first, second, first]
    made.clear()
    code = example_code()
    shards = code.encode(code.random_message(random.Random(7)))
    for failed in ((1,), (2, 5), (3, 7, 11), (1, 4, 6, 9), (2, 3, 5, 8, 10)):
        code.condition_check(failed)
        survivors = {m: s for m, s in shards.items() if m not in failed}
        assert code.repair_multi(survivors, failed)[0] == {x: shards[x] for x in failed}
    assert made == [frozenset(code.node_ids())]


@settings(max_examples=100, deadline=None)
@given(pool_cases(), st.randoms(use_true_random=False))
def test_table_decode_matches_vandermonde_solve(case, rng):
    code, pool, i, _, _ = case
    f = code.field
    shards = code.encode(code.random_message(rng))
    transfers = {l: code.repair_transfer(shards[l], i) for l in pool if l != i}
    columns = code._pool_decoder(i, pool)
    decoded = [0] * code.alpha
    for l, t in transfers.items():
        for c, x in enumerate(columns[l][0]):
            decoded[c] = f.add(decoded[c], f.mul(t, x))
    assert decoded == reference_decode(code, i, transfers) == shards[i]
    helpers = [l for l in pool if l != i]
    contents, _ = code.repair_multi({l: shards[l] for l in helpers}, (i,), helpers)
    assert contents[i] == shards[i]


@settings(max_examples=60, deadline=None)
@given(pool_cases(), st.randoms(use_true_random=False), st.data())
def test_multi_repair_on_drawn_pools_matches_reference_system(case, rng, data):
    code, pool, _, _, _ = case
    e_cap = min(code.n - code.k, code.k - 1)
    assume(e_cap >= 2)
    e = data.draw(st.integers(2, e_cap))
    failed = tuple(sorted(data.draw(st.permutations(pool))[:e]))
    helpers = tuple(sorted(set(pool) - set(failed)))
    assert code.coupling_system(failed, helpers)[0].A == ref.pm_coupling_matrix(code, failed, helpers).A
    shards = code.encode(code.random_message(rng))
    survivors = {m: v for m, v in shards.items() if m not in failed}
    system, _ = code.assemble_multi(survivors, failed, helpers)
    try:
        contents, _ = code.repair_multi(survivors, failed, helpers)
    except SingularCouplingError:
        assert mat_det(system.A) == 0
        return
    assert mat_det(system.A) != 0
    assert all(contents[m] == shards[m] for m in failed)


# (m, n, k) of the packed repair's checks: n = d+1 and n > d+1, over
# fields with byte lanes (m = 4, 5, 8) and two-byte lanes (m = 10, 16)
SYMBOLIC_CODES = [
    (4, 9, 5), (4, 8, 3), (5, 11, 6), (5, 12, 5), (8, 11, 6), (8, 13, 6), (10, 9, 5), (10, 13, 6), (16, 7, 4), (16, 9, 4)
]


@functools.lru_cache(maxsize=None)
def field_of(m):
    return Field(m)


def assert_repairs_as_symbolic(code, shards, failed, helpers=None):
    """The packed repair gives the symbolic reference's contents (the lost
    shards) and per-helper counts, in the same order, or raises
    SingularCouplingError with the same failed nodes and dependent
    transfers; returns the dependent transfers, or None."""
    live = {i: s for i, s in shards.items() if i not in failed}
    try:
        want, counts = ref.pm_symbolic_repair(code, live, failed, helpers)
    except SingularCouplingError as err:
        with pytest.raises(SingularCouplingError) as got:
            code.repair_multi(live, failed, helpers)
        assert (got.value.failed, got.value.dependent) == (err.failed, err.dependent) and err.dependent
        return err.dependent
    contents, transcript = code.repair_multi(live, failed, helpers)
    assert list(contents.items()) == list(want.items()) == [(i, shards[i]) for i in sorted(set(failed))]
    assert list(transcript.per_helper.items()) == list(counts.per_helper.items())
    assert set(transcript.per_helper.values()) == {len(set(failed))}
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_repair_matches_the_symbolic_repair(data):
    """On drawn evaluation points, every e up to min(n-k, k-1), default
    helpers and drawn helper sets (a choice once n > d+1), the packed solve
    and finish repair as the list path did, singular patterns included."""
    m, n, k = data.draw(st.sampled_from(SYMBOLIC_CODES))
    field = field_of(m)
    lambdas = data.draw(st.lists(st.integers(0, field.size - 1), min_size=n, max_size=n, unique=True))
    assume(len({field.pow(x, k - 1) for x in lambdas}) == n)
    code = PMCode(field, n, k, lambdas)
    e = data.draw(st.integers(1, min(n - k, k - 1)))
    order = data.draw(st.permutations(code.node_ids()))
    failed = order[:e]
    helpers = data.draw(st.sampled_from([None, tuple(order[e : code.d + 1])]))
    shards = code.encode(code.random_message(random.Random(data.draw(st.integers(0, 2**32)))))
    assert_repairs_as_symbolic(code, shards, failed, helpers)


def test_packed_repair_matches_the_symbolic_repair_on_singular_patterns():
    """Every pattern of e = 1..5 of the code with singular patterns at
    e = 2, 3 and 4, from its default helpers."""
    code = PMCode(F256, 11, 6, SINGULAR_LAMBDAS)
    shards = code.encode(code.random_message(random.Random(5)))
    dependent = {}
    for e in range(1, 6):
        for failed in itertools.combinations(code.node_ids(), e):
            pairs = assert_repairs_as_symbolic(code, shards, failed)
            if pairs:
                dependent[failed] = pairs
    assert dependent == {
        (7, 11): ((11, 7),),
        (1, 3, 5): ((5, 3),),
        (1, 8, 10, 11): ((11, 10),),
        (3, 5, 8, 11): ((11, 8),),
        (3, 7, 8, 9): ((9, 8),),
        (4, 6, 7, 11): ((11, 7),),
    }


def test_singular_sets_match_reference_determinants_on_f32():
    code = PMCode(Field(5), 9, 5)
    rng = random.Random(13)
    shards = code.encode(code.random_message(rng))
    singular = []
    for e in range(2, 5):
        for failed in itertools.combinations(code.node_ids(), e):
            survivors = {m: v for m, v in shards.items() if m not in failed}
            helpers = code.default_helpers(survivors, failed, code.d - e + 1)
            expected = mat_det(ref.pm_coupling_matrix(code, failed, helpers).A) == 0
            try:
                contents, _ = code.repair_multi(survivors, failed)
            except SingularCouplingError:
                singular.append(failed)
                assert expected, failed
                continue
            assert not expected, failed
            assert all(contents[m] == shards[m] for m in failed)
    assert singular == [(3, 4), (6, 7), (3, 4, 5), (5, 6, 7)]


def drawn_lambdas(field, n, k, seed):
    """n distinct lambdas with distinct (k-1)-th powers, from random.Random(seed)."""
    rng = random.Random(seed)
    while True:
        lambdas = rng.sample(range(field.size), n)
        if len({field.pow(x, k - 1) for x in lambdas}) == n:
            return lambdas


# lambdas of PM(11, 6) over GF(2^8) with singular patterns at e = 2, 3, 4
SINGULAR_LAMBDAS = [41, 248, 133, 18, 0, 74, 240, 191, 163, 11, 139]


# (field, n, k, lambda seed or None for the default lambdas, the singular
# pairs or None): n = d+1 and n > d+1 over m = 4, 5, 6, 8, 10, 16, and the
# codes with known singular pairs; at k = 2 every pair is singular
E2_CODES = {
    "f16-n5": (F16, 5, 3, None, []),
    "f16-n7-drawn": (F16, 7, 3, 1, None),
    "f16-k2": (F16, 4, 2, None, list(itertools.combinations(range(1, 5), 2))),
    "f16-k2-n3-drawn": (F16, 3, 2, 2, [(1, 2), (1, 3), (2, 3)]),
    "f32-n9": (Field(5), 9, 5, None, [(3, 4), (6, 7)]),
    "f32-n11-drawn": (Field(5), 11, 6, 3, None),
    "f64-n11": (F64, 11, 6, None, [(1, 2), (10, 11)]),
    "f256-n13": (F256, 13, 6, None, None),
    "f256-n11-drawn": (F256, 11, 6, 4, None),
    "f1024-n7-drawn": (Field(10), 7, 4, 5, None),
    "f1024-n9": (Field(10), 9, 4, None, None),
    "f65536-n9-drawn": (Field(16), 9, 5, 6, None),
    "f65536-n11-drawn": (Field(16), 11, 5, 7, None),
}


def singular_patterns(code, e):
    """The patterns of e failures whose reference coupling matrix over the
    default helpers is singular, after checking that _repairable answers
    each pattern as that determinant does, and condition_check too where
    e is within PM's limit."""
    found = []
    for failed in itertools.combinations(code.node_ids(), e):
        helpers = [i for i in code.node_ids() if i not in failed][: code.d - e + 1]
        clean = mat_det(ref.pm_coupling_matrix(code, failed, helpers).A) != 0
        assert code._repairable(failed) == clean, failed
        if e <= min(code.n - code.k, code.k - 1):
            assert code.condition_check(failed) == clean, failed
        if not clean:
            found.append(failed)
    return found


@pytest.mark.parametrize("case", sorted(E2_CODES))
def test_e2_verdicts_equal_the_reference_determinant(case):
    """Every pattern {a, b} is repairable by _repairable's closed form,
    c(a,b,b) c(b,a,a) != 1, exactly when the reference coupling matrix
    over the default helpers has a nonzero determinant; condition_check
    answers the same where e = 2 is within PM's limit (not at k = 2)."""
    field, n, k, seed, singular = E2_CODES[case]
    found = singular_patterns(PMCode(field, n, k, None if seed is None else drawn_lambdas(field, n, k, seed)), 2)
    if singular is not None:
        assert found == singular


# (field, n, k, lambdas: a seed, None for the defaults or the list, the
# singular triples or None): n = d+1 and n > d+1 over m = 3, 4, 5, 6, 8,
# 10, 16, with k >= 4 so that e = 3 is within PM's limit
E3_CODES = {
    "f8-n7": (Field(3), 7, 4, None, []),
    "f8-n8-drawn": (Field(3), 8, 4, 1, None),
    "f16-n9": (F16, 9, 5, None, [(1, 5, 7), (3, 5, 9)]),
    "f16-n11-drawn": (F16, 11, 5, 2, None),
    "f32-n9": (Field(5), 9, 5, None, [(3, 4, 5), (5, 6, 7)]),
    "f32-n11-drawn": (Field(5), 11, 5, 3, None),
    "f64-n11": (F64, 11, 6, None, [(1, 4, 5), (1, 8, 10), (2, 4, 11), (7, 8, 11)]),
    "f64-n12-drawn": (F64, 12, 5, 4, None),
    "f256-n11-singular": (F256, 11, 6, SINGULAR_LAMBDAS, [(1, 3, 5)]),
    "f256-n13": (F256, 13, 6, None, []),
    "f1024-n7-drawn": (Field(10), 7, 4, 5, None),
    "f1024-n9": (Field(10), 9, 4, None, []),
    "f65536-n9-drawn": (Field(16), 9, 5, 6, None),
    "f65536-n11-drawn": (Field(16), 11, 5, 7, None),
}


@pytest.mark.parametrize("case", sorted(E3_CODES))
def test_e3_verdicts_equal_the_reference_determinant(case):
    """Every pattern {a, b, c} is repairable by _repairable's expanded
    determinant exactly when the reference coupling matrix over the
    default helpers has a nonzero determinant, and condition_check
    answers the same."""
    field, n, k, lambdas, singular = E3_CODES[case]
    if type(lambdas) is int:
        lambdas = drawn_lambdas(field, n, k, lambdas)
    found = singular_patterns(PMCode(field, n, k, lambdas), 3)
    if singular is not None:
        assert found == singular


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_e3_verdicts_on_drawn_lambdas(data):
    """The same on codes with drawn evaluation points."""
    configs = [(Field(3), 8, 4), (F16, 9, 5), (Field(5), 11, 6), (F64, 12, 5), (F256, 11, 6), (Field(10), 9, 4)]
    field, n, k = data.draw(st.sampled_from(configs))
    lambdas = data.draw(st.lists(st.integers(0, field.size - 1), min_size=n, max_size=n, unique=True))
    assume(len({field.pow(x, k - 1) for x in lambdas}) == n)
    singular_patterns(PMCode(field, n, k, lambdas), 3)


def test_e3_verdicts_build_no_rows(monkeypatch):
    """_repairable decides e = 3 with no coupling rows and no reduction,
    and e = 4 still reduces its rows."""
    calls, build, reduce = [], PMCode._coupling_rows, pm._reduce_packed
    monkeypatch.setattr(PMCode, "_coupling_rows", lambda *args: calls.append("rows") or build(*args))
    monkeypatch.setattr(pm, "_reduce_packed", lambda *args: calls.append("reduce") or reduce(*args))
    code = PMCode(F256, 11, 6, SINGULAR_LAMBDAS)
    assert [code._repairable(f) for f in ((1, 2, 3), (1, 3, 5))] == [True, False]
    assert calls == []
    code._repairable((1, 2, 3, 4))
    assert calls == ["rows", "reduce"]


@pytest.mark.parametrize("field, n", [(Field(5), 11), (F64, 13)], ids=["gf32-n11", "gf64-n13"])
def test_vetting_up_to_three_failures_reads_the_decoder_table_directly(monkeypatch, field, n):
    """Vetting every pattern of two and three failures reads its coupling
    coefficients from the failed nodes' decoder columns, with no
    coupling_coefficient call, and writes each failed node's decoder once
    per pool: at n = d+1 the pool is every node; past it, it is the pattern
    with its default helpers, and a new pool starts a new table."""
    code = PMCode(field, n, 6)
    reads, derived = [], []
    read, write = PMCode.coupling_coefficient, PMCode._pool_entry
    monkeypatch.setattr(PMCode, "coupling_coefficient", lambda *args: reads.append(args) or read(*args))
    monkeypatch.setattr(
        PMCode, "_pool_entry", lambda self, i, sources, table: derived.append((i, {i, *sources})) or write(self, i, sources, table)
    )
    want, pool, held = [], None, set()
    for e in (2, 3):
        for failed in itertools.combinations(code.node_ids(), e):
            code._repairable(failed)
            now = {*failed, *code.default_helpers(code.node_ids(), failed, code.d - e + 1)}
            if now != pool:
                pool, held = now, set()
            want += [(x, pool) for x in failed if x not in held]
            held.update(failed)
    assert reads == []
    assert derived == want


def test_coupling_matrix_is_assemble_multis_matrix_without_shards():
    code = example_code()
    shards = code.encode(code.random_message(random.Random(43)))
    failed, helpers = (2, 5, 9), (1, 3, 4, 6, 7, 8, 10, 11)
    system, _ = code.coupling_system(failed, helpers)
    assert system.b == [0] * system.size
    assembled, _ = code.assemble_multi(shards, failed, helpers)
    assert system.A == assembled.A


@pytest.mark.parametrize("field, n, k", [(F16, 9, 5), (F256, 11, 6), (Field(10), 9, 5), (Field(13), 7, 4)])
def test_coupling_coefficient_is_the_row_projected_on_phi(field, n, k):
    """Every (i, j, l) of a pool, over fields with byte tables and past them:
    the coefficient read from the derived column's product with Phi is the
    dot product of the Lagrange row with phi_j."""
    code = PMCode(field, n, k)
    pool = tuple(range(2, code.d + 3)) if n > code.d + 1 else tuple(code.node_ids())
    for i, l in itertools.permutations(pool, 2):
        row = ref.pm_decoder_row(code, i, l, pool)
        for j in code.node_ids():
            want = dot(field, row, code.Phi.data[j - 1])
            assert code.coupling_coefficient(i, j, l, pool) == want, (i, j, l)


@pytest.mark.parametrize(
    "field, n, k, e_max, trials, seed",
    # not found, with later trials better, worse and tied; found after
    # losing trials, and at trial 0; no candidate at all; pools of d+1 < n
    # nodes, where the helpers of a pattern are a choice
    [(Field(5), 11, 6, 3, 6, 0), (Field(5), 11, 6, 3, 6, 1), (Field(5), 11, 6, 3, 4, 2),
     (F16, 9, 5, 4, 8, 0), (F16, 9, 5, 4, 8, 1), (Field(3), 7, 4, 3, 8, 0), (F16, 7, 4, 3, 8, 0),
     (Field(5), 11, 5, 3, 4, 1), (Field(5), 12, 4, 2, 6, 0)],
)
def test_field_search_matches_full_determinant_count(field, n, k, e_max, trials, seed):
    want, fallback = ref.pm_field_search(field, n, k, e_max, trials, seed)
    try:
        got = pm_search(field, n, k, e_max, trials, seed)
    except AssignmentNotFoundError as err:
        assert want is None and (err.best, err.best_failures) == fallback
        return
    assert got == want


def test_coupling_coefficient_rejects_nodes_outside_the_pool():
    code = example_code()
    pool = list(range(1, code.d + 2))
    with pytest.raises(ValueError):
        code.coupling_coefficient(1, 2, 1, pool)  # l == i
    with pytest.raises(ValueError):
        code.coupling_coefficient(1, 2, 12, pool)  # l not in pool
    with pytest.raises(ValueError):
        code.coupling_coefficient(1, 2, 3, pool[:-1])  # pool of d nodes
    # j = 0 read the j = 11 weight through a negative index, and j or i = 12
    # died with IndexError
    for i, j in ((1, 0), (1, 12), (12, 2)):
        with pytest.raises(ValueError):
            code.coupling_coefficient(i, j, 2, pool)


# On the whole pool of PM(11, 6), (True, 2, 3) and (1.0, 2, 3) read node
# 1's coefficient, (1, True, 3) that of j = 1, (2, 3, True) source 1's, and
# j = 2.0 or "2" died with TypeError.
NOT_INT_IDS = [(True, 2, 3), (1.0, 2, 3), (1, True, 3), (1, 2.0, 3), (1, "2", 3), (2, 3, True), (2, 3, 1.0), (None, 2, 3)]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_coupling_coefficient_refuses_ids_that_are_not_ints(warm):
    """Any id that is not an int, bools included, gets the ValueError an id
    outside the pool gets, with the table cold or holding every node."""
    code = example_code()
    pool = frozenset(code.node_ids())
    if warm:
        for i in pool:
            code._pool_decoder(i, pool)
    for i, j, l in NOT_INT_IDS:
        with pytest.raises(ValueError, match="need distinct nodes") as refused:
            code.coupling_coefficient(i, j, l, pool)
        assert type(refused.value) is ValueError, (i, j, l)
    assert code.coupling_coefficient(1, 2, 3, pool) == code._pool_decoder(1, pool)[3][1][1]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_pool_decoder_and_rows_refuse_ids_that_are_not_ints(warm):
    """_pool_decoder and _pool_rows give an id that is not an int, bools
    included, the ValueError an id outside the pool gets, with the table
    cold or holding every node. A cold True stored node 1's entry under
    the key True, a cold 1.0 died with TypeError in _pool_entry, and a warm
    _pool_rows(1.0, pool) returned node 1's rows."""
    code = example_code()
    pool = frozenset(code.node_ids())
    if warm:
        for i in pool:
            code._pool_decoder(i, pool)
    for bad in (True, 1.0, "1", None):
        for read in (code._pool_decoder, code._pool_rows):
            with pytest.raises(ValueError, match="is not in the pool") as refused:
                read(bad, pool)
            assert type(refused.value) is ValueError, (bad, read)
    assert not any(type(key) is not int for key in code._decoder_table[1])
    assert len(code._decoder_table[1]) == (len(pool) if warm else 0)
    assert code._pool_rows(1, pool)[0] == sorted(pool - {1})


def test_construction_validation():
    with pytest.raises(ValueError):
        PMCode(F16, 2, 2)  # n < d+1
    with pytest.raises(ValueError):
        PMCode(F16, 4, 2, lambdas=[1, 2, 4])  # wrong count
    with pytest.raises(ValueError):
        PMCode(F16, 4, 2, lambdas=[1, 2, 2, 4])  # duplicate
    # distinct lambdas whose cubes collide: g^0 and g^5 in F_16 (order 15)
    with pytest.raises(ValueError):
        PMCode(F16, 7, 4)
    with pytest.raises(ValueError):
        PMCode(Field(2), 11, 6)  # field cannot host 11 distinct points


def test_k2_hand_expansion():
    code = PMCode(F16, 4, 2)
    assert code.d == 2 and code.alpha == 1
    msg = [5, 9]  # S1 = [5], S2 = [9]
    shards = code.encode(msg)
    for i in code.node_ids():
        lam = code.lambdas[i - 1]
        assert shards[i] == [F16.add(5, F16.mul(lam, 9))]


def test_zero_message_encodes_to_zero():
    code = example_code()
    shards = code.encode([0] * code.message_length)
    assert all(v == [0] * code.alpha for v in shards.values())


def test_message_matrix_blocks_are_symmetric():
    code = example_code()
    rng = random.Random(3)
    m = code.message_matrix(code.random_message(rng))
    a = code.alpha
    for r in range(a):
        for c in range(a):
            assert m.data[r][c] == m.data[c][r]
            assert m.data[a + r][c] == m.data[a + c][r]


def test_encode_reconstruct_round_trip():
    rng = random.Random(11)
    for field, n, k in [(F16, 4, 2), (F256, 8, 4), (F256, 11, 6)]:
        code = PMCode(field, n, k)
        for _ in range(10):
            msg = code.random_message(rng)
            shards = code.encode(msg)
            pick = sorted(rng.sample(code.node_ids(), k))
            assert code.reconstruct({i: shards[i] for i in pick}) == msg


def test_reconstruct_50_random_subsets_on_example_code():
    rng = random.Random(17)
    code = example_code()
    msg = code.random_message(rng)
    shards = code.encode(msg)
    for _ in range(50):
        pick = sorted(rng.sample(code.node_ids(), 6))
        assert code.reconstruct({i: shards[i] for i in pick}) == msg


def test_repair_single_round_trip_and_bandwidth():
    rng = random.Random(23)
    code = example_code()
    msg = code.random_message(rng)
    shards = code.encode(msg)
    for i in code.node_ids():
        survivors = {j: v for j, v in shards.items() if j != i}
        content, transcript = code.repair_single(survivors, i)
        assert content == shards[i]
        assert transcript.total == code.d
        assert all(v == 1 for v in transcript.per_helper.values())


def test_coupling_coefficient_matches_generic_inverse():
    rng = random.Random(31)
    code = example_code()
    nodes = code.node_ids()
    for _ in range(40):
        pool = sorted(rng.sample(nodes, code.d + 1))
        i, j = rng.sample(pool, 2)
        l = rng.choice([m for m in pool if m != i])
        if l == i or j == i:
            continue
        got = code.coupling_coefficient(i, j, l, pool)
        assert got == generic_coefficient(code, i, j, l, pool)


def test_multi_repair_round_trip_and_per_helper_bandwidth():
    rng = random.Random(37)
    code = example_code()
    msg = code.random_message(rng)
    shards = code.encode(msg)
    for e in (2, 3):
        for _ in range(6):
            failed = tuple(sorted(rng.sample(code.node_ids(), e)))
            survivors = {j: v for j, v in shards.items() if j not in failed}
            contents, transcript = code.repair_multi(survivors, failed)
            assert all(contents[i] == shards[i] for i in failed)
            assert transcript.per_helper == {
                h: e for h in sorted(survivors)[: code.d - e + 1]
            }
            assert transcript.total == (code.d - e + 1) * e


def test_multi_repair_ignores_failed_order():
    rng = random.Random(41)
    code = example_code()
    shards = code.encode(code.random_message(rng))
    survivors = {j: v for j, v in shards.items() if j not in (3, 8, 5)}
    a, _ = code.repair_multi(survivors, (3, 8, 5))
    b, _ = code.repair_multi(survivors, (8, 5, 3))
    assert a == b


def test_multi_repair_validation():
    code = example_code()
    shards = code.encode([0] * code.message_length)
    with pytest.raises(ValueError):
        code.repair_multi(shards, (1, 2, 3, 4, 5, 6))  # e > k-1
    with pytest.raises(ValueError):
        code.repair_multi({j: v for j, v in shards.items() if j > 2}, (1, 2), helpers=(2, 3, 4, 5, 6, 7, 8, 9, 10))
    with pytest.raises(ValueError):
        code.repair_multi({j: v for j, v in shards.items() if j != 1}, (1,), helpers=(2, 3))


def test_repair_rejects_unknown_node_ids():
    code = example_code()
    shards = code.encode(code.random_message(random.Random(47)))
    # node 0 used to read lambdas[-1] and return node 11's shard as its own
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi(shards, (0,))
    survivors = {m: v for m, v in shards.items() if m != 1}
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi(survivors, (1, 12))
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi({**survivors, 12: [0] * code.alpha}, (1,), helpers=tuple(range(3, 13)))


def test_repair_rejects_short_helper_shard():
    code = example_code()
    shards = code.encode(code.random_message(random.Random(53)))
    survivors = {m: v for m, v in shards.items() if m != 1}
    survivors[2] = survivors[2][:-1]
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi(survivors, (1,))


def test_repair_rejects_symbols_outside_the_field():
    code = example_code()
    shards = code.encode(code.random_message(random.Random(59)))
    survivors = {m: v for m, v in shards.items() if m != 1}
    survivors[2] = [300] + survivors[2][1:]
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi(survivors, (1,))
    survivors[2] = [-1] + shards[2][1:]
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi(survivors, (1,))


def test_example_code_sweeps_clean_on_f256():
    code = example_code()
    rep = run_sweep(code, 2, seed=7, sample=12)
    assert rep.all_ok() and not rep.singular_patterns
    rep = run_sweep(code, 3, seed=7, sample=12)
    assert rep.all_ok() and not rep.singular_patterns


def test_f64_singular_sets_for_this_representation():
    # modulus x^6+x+1 (0x43), generator 2; sets depend on the representation
    code = PMCode(F64, 11, 6)
    rep2 = run_sweep(code, 2, seed=1)
    assert rep2.singular_patterns == [(1, 2), (10, 11)]
    assert rep2.success_count == 53
    rep3 = run_sweep(code, 3, seed=1)
    assert rep3.singular_patterns == [(1, 4, 5), (1, 8, 10), (2, 4, 11), (7, 8, 11)]
    # non-singular patterns still repair exactly
    assert rep3.success_count == 165 - 4


def test_singular_pattern_raises_for_direct_repair():
    code = PMCode(F64, 11, 6)
    shards = code.encode(code.random_message(random.Random(2)))
    survivors = {j: v for j, v in shards.items() if j not in (1, 2)}
    with pytest.raises(SingularCouplingError):
        code.repair_multi(survivors, (1, 2))


def test_k2_e2_coupling_is_always_singular():
    # with alpha = 1 the two coupling coefficients are exact inverses, so
    # det(A) = 1 - c12*c21 = 0 identically; e=2 is out of reach at k=2, and
    # the coupling views refuse it as a repair does
    code = PMCode(F16, 4, 2)
    shards = code.encode([3, 7])
    for failed in itertools.combinations(code.node_ids(), 2):
        a, b = failed
        helpers = code.default_helpers(shards, failed, 1)
        pool = frozenset(failed + helpers)
        c12, c21 = code.coupling_coefficient(a, b, b, pool), code.coupling_coefficient(b, a, a, pool)
        assert F16.mul(c12, c21) == 1
        with pytest.raises(ValueError, match=r"can repair 1\.\.1 nodes at once"):
            code.assemble_multi(shards, failed, helpers)


def test_verify_exact_repair_outcomes():
    ok, bandwidth, singular = verify_exact_repair(example_code(), (1, 2), rng=random.Random(5))
    assert ok and bandwidth == 18 and not singular
    ok, bandwidth, singular = verify_exact_repair(PMCode(F64, 11, 6), (1, 2))
    assert not ok and singular


def test_field_search_small_case_and_refusals():
    lam = pm_search(F16, 4, 2, 2, trials=10, seed=5)
    code = PMCode(F16, 4, 2, lam)  # invariants hold for the found assignment
    assert sorted(set(lam)) == sorted(lam)
    # GF(2) has too few elements for 4 distinct lambdas: no trial can run
    with pytest.raises(ValueError, match="too few"):
        pm_search(Field(1), 4, 2, 2, trials=5, seed=0)
    # no PM code has k < 2 or n < 2k-1: every trial's constructor raised,
    # and the search ended in AssignmentNotFoundError with no candidate
    for n, k in ((11, 1), (5, 4), (2, 3)):
        with pytest.raises(ValueError, match="n = %d, k = %d" % (n, k)):
            pm_search(Field(5), n, k, 2, trials=5, seed=0)
    # a float or string size died in a comparison with TypeError, and
    # trials=True ran one trial
    sizes = (7, 3, 2, 5)
    for at, size in enumerate(sizes):
        for bad in (float(size), str(size), True):
            with pytest.raises(ValueError, match=r"\bints\b"):
                pm_search(F64, *sizes[:at], bad, *sizes[at + 1 :], seed=0)


def test_field_search_finds_clean_assignment_over_f256():
    # n=7, k=4: e capped at min(3, 3, 3) = 3; search verifies determinants
    lam = pm_search(F256, 7, 4, 2, trials=30, seed=9)
    code = PMCode(F256, 7, 4, lam)
    rep = run_sweep(code, 2, seed=9)
    assert rep.all_ok()


def test_field_search_vets_the_default_helpers_only():
    """Once n > d+1, whether a pattern repairs depends on its helper set,
    and the search vets each pattern with its default helpers only,
    through condition_check's core, as the docstrings of search_assignment,
    condition_check and run_sweep say. The lambdas it finds for PM(13, 6)
    over GF(2^6) repair failed (1, 2) from the default helpers 3..11 but
    not from 3..10 and 12, and condition_check answers for the first."""
    desc = search_assignment("pm", {"m": 6, "n": 13, "k": 6, "e_max": 2}, seed=0)
    code = PMCode(F64, 13, 6, desc["lambdas"])
    assert Field(6).modulus == F64.modulus
    assert code.condition_check((1, 2)) and code.condition_check([2, 1, 2])
    default, other = tuple(range(3, 12)), tuple(range(3, 11)) + (12,)
    assert code.coupling_system((1, 2), default)[0].determinant() == 58
    assert code.coupling_system((1, 2), other)[0].determinant() == 0
    shards = code.encode(code.random_message(random.Random(3)))
    live = {i: s for i, s in shards.items() if i not in (1, 2)}
    assert code.repair_multi(live, (1, 2))[0] == {1: shards[1], 2: shards[2]}
    with pytest.raises(SingularCouplingError) as err:
        code.repair_multi(live, (1, 2), helpers=other)
    assert err.value.dependent == ((2, 1),)
    assert assert_repairs_as_symbolic(code, shards, (1, 2), other) == ((2, 1),)
    for doc in (search_assignment.__doc__, PMCode.condition_check.__doc__, run_sweep.__doc__):
        assert "default helpers" in " ".join(doc.split())


@pytest.mark.parametrize("lambdas", [None, SINGULAR_LAMBDAS], ids=["default", "singular"])
def test_condition_check_agrees_with_repair_from_the_default_helpers(lambdas):
    """condition_check is True exactly when repair_multi from the default
    helpers does not raise SingularCouplingError, on every pattern of
    e = 2..5; a repeated id counts once, and ids that are not nodes are
    refused."""
    code = PMCode(F256, 11, 6, lambdas)
    shards = code.encode(code.random_message(random.Random(11)))
    verdicts = []
    for e in range(2, 6):
        for failed in itertools.combinations(code.node_ids(), e):
            live = {i: s for i, s in shards.items() if i not in failed}
            try:
                contents, _ = code.repair_multi(live, failed)
                repaired = True
                assert contents == {i: shards[i] for i in failed}
            except SingularCouplingError:
                repaired = False
            assert code.condition_check(failed) == repaired, failed
            assert code.condition_check(failed[::-1] + failed[:1]) == repaired, failed
            verdicts.append(repaired)
    assert verdicts.count(False) == (0 if lambdas is None else 6)
    for bad in ((0, 1), (1, 12), (1, 2.0), ("1", 2)):
        with pytest.raises(InvalidRepairInputError):
            code.condition_check(bad)


def test_descriptor_round_trip():
    code = example_code()
    desc = code.descriptor()
    clone = PMCode(Field(desc["m"], desc["modulus"]), desc["n"], desc["k"], desc["lambdas"])
    msg = [t % F256.size for t in range(code.message_length)]
    assert clone.encode(msg) == code.encode(msg)
