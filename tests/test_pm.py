"""Product-matrix code: round trips, coupling coefficients, sweeps."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_paths as ref
from regenrepair.framework import InvalidRepairInputError, SingularCouplingError
from regenrepair.gf import Field, dot, mat_det, mat_inv, mat_solve
from regenrepair.pm import PMCode, field_search
from regenrepair.workbench import AssignmentNotFoundError, run_sweep, verify_exact_repair


F16 = Field(4)
F256 = Field(8, 0x11D)
F64 = Field(6, 0x43)


def example_code():
    return PMCode(F256, 11, 6)


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
    assert code.coupling_matrix(failed, helpers).A == ref.pm_coupling_matrix(code, failed, helpers).A
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


def test_coupling_matrix_is_assemble_multis_matrix_without_shards():
    code = example_code()
    shards = code.encode(code.random_message(random.Random(43)))
    failed, helpers = (2, 5, 9), (1, 3, 4, 6, 7, 8, 10, 11)
    system = code.coupling_matrix(failed, helpers)
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
        got = field_search(field, n, k, e_max, trials, seed)
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
    # det(A) = 1 - c12*c21 = 0 identically; e=2 is out of reach at k=2
    code = PMCode(F16, 4, 2)
    shards = code.encode([3, 7])
    for failed in itertools.combinations(code.node_ids(), 2):
        helpers = code.default_helpers(shards, failed, 1)
        system, _ = code.assemble_multi(shards, failed, helpers)
        assert system.determinant() == 0


def test_verify_exact_repair_outcomes():
    ok, bandwidth, singular = verify_exact_repair(example_code(), (1, 2), rng=random.Random(5))
    assert ok and bandwidth == 18 and not singular
    ok, bandwidth, singular = verify_exact_repair(PMCode(F64, 11, 6), (1, 2))
    assert not ok and singular


def test_field_search_small_case_and_refusals():
    lam = field_search(F16, 4, 2, 2, trials=10, seed=5)
    code = PMCode(F16, 4, 2, lam)  # invariants hold for the found assignment
    assert sorted(set(lam)) == sorted(lam)
    # GF(2) has too few elements for 4 distinct lambdas: no trial can run
    with pytest.raises(ValueError, match="too few"):
        field_search(Field(1), 4, 2, 2, trials=5, seed=0)
    # no PM code has k < 2 or n < 2k-1: every trial's constructor raised,
    # and the search ended in AssignmentNotFoundError with no candidate
    for n, k in ((11, 1), (5, 4), (2, 3)):
        with pytest.raises(ValueError, match="n = %d, k = %d" % (n, k)):
            field_search(Field(5), n, k, 2, trials=5, seed=0)


def test_field_search_finds_clean_assignment_over_f256():
    # n=7, k=4: e capped at min(3, 3, 3) = 3; search verifies determinants
    lam = field_search(F256, 7, 4, 2, trials=30, seed=9)
    code = PMCode(F256, 7, 4, lam)
    rep = run_sweep(code, 2, seed=9)
    assert rep.all_ok()


def test_descriptor_round_trip():
    code = example_code()
    desc = code.descriptor()
    clone = PMCode(Field(desc["m"], desc["modulus"]), desc["n"], desc["k"], desc["lambdas"])
    msg = [t % F256.size for t in range(code.message_length)]
    assert clone.encode(msg) == code.encode(msg)
