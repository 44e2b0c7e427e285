"""Interference-alignment code: construction, duality, repair, conditions.

The coupling coefficients are cross-checked two independent ways: the
closed-form repairability conditions are compared against the coupling
determinant, and the decode matrices are compared against generic inverses.
"""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_paths as ref
from regenrepair.framework import SingularCouplingError
from regenrepair.gf import Field, Matrix, all_square_submatrices_invertible, cauchy, mat_mul
from regenrepair.ia import IACode, UnsupportedPatternError, default_kappa, field_search
from regenrepair.workbench import AssignmentNotFoundError, verify_exact_repair

F32 = Field(5)
F256 = Field(8, 0x11D)
F4 = Field(2)


def example_code():
    return IACode(F32, 4)


def test_default_construction_is_power_table():
    code = example_code()
    g = F32.generator
    expect = [[F32.pow(g, r * c) for c in range(4)] for r in range(4)]
    assert code.P.data == expect
    assert code.V.data == Matrix.identity(F32, 4).data
    assert code.kappa == 2
    assert (code.n, code.d, code.alpha) == (8, 7, 4)


def test_duality_identities():
    for code in [example_code(), IACode(F256, 3), IACode(F4, 2)]:
        f, k = code.field, code.k
        inv_kappa = f.inv(code.kappa)
        utv = mat_mul(code.U.transpose(), code.V).data
        assert utv == [[f.mul(inv_kappa, code.P.data[c][r]) for c in range(k)] for r in range(k)]
        vdtud = mat_mul(code.Vd.transpose(), ref.ia_constants(code)[0]).data
        assert vdtud == [[f.mul(code.kappa, code.Pd.data[r][c]) for c in range(k)] for r in range(k)]
        assert mat_mul(code.Pd, code.P.transpose()).data == Matrix.identity(f, k).data


def test_construction_validation():
    with pytest.raises(ValueError):
        IACode(F256, 2, P=Matrix(F256, [[1, 1], [1, 1]]))  # singular submatrix
    with pytest.raises(ValueError):
        IACode(F256, 2, kappa=0)
    with pytest.raises(ValueError):
        IACode(F256, 2, kappa=1)
    with pytest.raises(ValueError):
        IACode(Field(1), 2)  # GF(2) has no kappa with kappa^2 != 1
    with pytest.raises(ValueError):
        IACode(F256, 0)
    assert default_kappa(F4) == 2


def test_systematic_nodes_store_raw_data():
    code = example_code()
    rng = random.Random(11)
    msg = code.random_message(rng)
    shards = code.encode(msg)
    for j in range(1, 5):
        assert shards[j] == msg[(j - 1) * 4 : j * 4]
    assert code.encode([0] * 16) == {i: [0] * 4 for i in range(1, 9)}


def test_reconstruct_from_every_k_subset():
    code = example_code()
    rng = random.Random(12)
    msg = code.random_message(rng)
    shards = code.encode(msg)
    for sub in combinations(code.node_ids(), 4):
        assert code.reconstruct({i: shards[i] for i in sub}) == msg


def test_single_repair_every_node():
    code = example_code()
    rng = random.Random(13)
    msg = code.random_message(rng)
    shards = code.encode(msg)
    for node in code.node_ids():
        rest = {i: s for i, s in shards.items() if i != node}
        content, transcript = code.repair_single(rest, node)
        assert content == shards[node]
        assert transcript.total == 7
        assert transcript.per_helper == {h: 1 for h in rest}


def test_multi_repair_all_patterns_exact():
    code = example_code()
    for e in (2, 3, 4):
        report = code.pattern_sweep(e, seed=5)
        assert len(report.entries) == [28, 56, 70][e - 2]
        assert report.all_ok()
        assert {entry.bandwidth for entry in report.entries} == {e * (8 - e)}


def test_multi_repair_validation():
    code = example_code()
    shards = code.encode([0] * 16)
    with pytest.raises(ValueError):
        code.repair_multi({i: shards[i] for i in range(1, 4)}, (4, 5, 6, 7, 8))  # e > k
    with pytest.raises(ValueError):
        code.repair_multi({i: shards[i] for i in (2, 3, 4)}, (1, 5))  # missing survivors
    live = {i: shards[i] for i in (2, 3, 4, 5, 6, 7)}
    with pytest.raises(ValueError):
        code.repair_multi(live, (1, 8), helpers=(2, 3, 4, 5, 6))  # partial helper set


def test_failed_order_invariance():
    code = example_code()
    rng = random.Random(14)
    msg = code.random_message(rng)
    shards = code.encode(msg)
    live = {i: s for i, s in shards.items() if i not in (2, 5, 7)}
    a, _ = code.repair_multi(live, (2, 5, 7))
    b, _ = code.repair_multi(live, (7, 2, 5))
    assert a == b == {i: shards[i] for i in (2, 5, 7)}


def test_one_sided_determinants_frozen():
    # all-systematic and all-parity patterns: det = (1 + kappa^2)^(e(e-1)/2)
    for code in [example_code(), IACode(F256, 6)]:
        f, k = code.field, code.k
        base = f.add(1, f.mul(code.kappa, code.kappa))
        for e in range(2, k + 1):
            want = f.pow(base, e * (e - 1) // 2)
            for pat in combinations(range(1, k + 1), e):
                system, _ = code.coupling_system(pat)
                assert system.determinant() == want
            for pat in combinations(range(k + 1, 2 * k + 1), e):
                system, _ = code.coupling_system(pat)
                assert system.determinant() == want


def test_condition_check_matches_determinant_on_example():
    code = example_code()
    for e in (2, 3, 4):
        for pat in combinations(code.node_ids(), e):
            system, _ = code.coupling_system(pat)
            assert code.condition_check(pat) == (system.determinant() != 0)


def test_condition_check_matches_determinant_random_p():
    rng = random.Random(99)
    shapes = [(1, 5), (1, 2, 5), (1, 5, 6), (1, 2, 3, 5), (1, 5, 6, 7), (1, 2, 5, 6)]
    codes = 0
    while codes < 25:
        data = [[rng.randrange(1, F256.size) for _ in range(4)] for _ in range(4)]
        p = Matrix(F256, data)
        if not all_square_submatrices_invertible(p):
            continue
        code = IACode(F256, 4, P=p)
        codes += 1
        for pat in shapes:
            system, _ = code.coupling_system(pat)
            assert code.condition_check(pat) == (system.determinant() != 0)


def random_ia_code(field, k, rng):
    """IACode(k) with a random kappa and a random superregular P: random
    entries where a few draws find one, else a Cauchy matrix on random
    points with scaled rows and columns."""
    for _ in range(20):
        p = Matrix(field, [[rng.randrange(1, field.size) for _ in range(k)] for _ in range(k)])
        if all_square_submatrices_invertible(p):
            break
    else:
        points = rng.sample(range(field.size), 2 * k)
        c = cauchy(field, points[:k], points[k:]).data
        left = [rng.randrange(1, field.size) for _ in range(k)]
        right = [rng.randrange(1, field.size) for _ in range(k)]
        p = Matrix(field, [[field.mul(left[r], field.mul(c[r][j], right[j])) for j in range(k)] for r in range(k)])
    return IACode(field, k, P=p, kappa=rng.randrange(2, field.size))


@st.composite
def random_ia_codes(draw, ms=range(3, 9), k_min=2):
    """random_ia_code over GF(2^m), m in ms (3..8 by default), k = k_min..5."""
    m = draw(st.sampled_from(ms))
    k = draw(st.integers(k_min, 5 if m > 3 else 4))
    return random_ia_code(Field(m), k, draw(st.randoms(use_true_random=False)))


@settings(max_examples=60, deadline=None)
@given(random_ia_codes())
@example(IACode(F256, 6))
@example(random_ia_code(F256, 6, random.Random(6)))
def test_coupling_system_and_closed_forms_on_random_codes(code):
    """On every pattern of e = 2..k the coupling system equals the one built
    entry by entry and condition_check is det(A) != 0, so field_search can
    vet by it alone; on the shapes where condition_check trusts its closed
    form, it agrees with the hand formulas it replaced. The two fixed
    k = 6 codes carry the check past the strategy's k <= 5."""
    for e in range(2, code.k + 1):
        for pat in combinations(code.node_ids(), e):
            system, known = code.coupling_system(pat)
            want, want_known = ref.ia_coupling_system(code, pat)
            assert system.A == want.A
            assert {pair: dict(terms) for pair, terms in known.items()} == want_known
            repairable = code.condition_check(pat)
            assert repairable == (system.determinant() != 0), pat
            try:
                assert repairable == ref.ia_condition_table(code, pat), pat
            except UnsupportedPatternError:
                pass


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        random_ia_codes(ms=(3, 4, 8, 10, 13), k_min=1),
        st.sampled_from([1, 6]).map(lambda k: IACode(F256, k)),
    )
)
def test_derived_decoders_equal_the_hand_formulas(code):
    """Every node's decoder in the shared table, derived from the
    generator over all the other nodes, is the two-case formula, whose
    column of the node itself is zero; on random P and kappa, over fields
    with byte tables, wider tables (m = 10) and none (m = 13), for k = 1
    up to 6."""
    nodes = code.node_ids()
    for target in nodes:
        columns = code._pool_decoder(target, nodes)
        got = [[columns[l][0][r] if l != target else 0 for l in nodes] for r in range(code.alpha)]
        assert got == ref.ia_decoder(code, target).data, target


@pytest.mark.parametrize("m, k", [(8, 6), (4, 3), (5, 3), (6, 4)])
def test_derived_rows_equal_the_hand_expansion(m, k):
    """Every ordered pair's row, the nonzero projection_y . decoder_x
    weights of x's table entry, carries the nonzero weights of the hand
    expansion of x -> y, summed per source."""
    code = IACode(F256 if m == 8 else Field(m), k)
    for x, y in permutations(code.node_ids(), 2):
        want = {}
        for src, dst, coeff in ref.ia_expand_terms(code, x, y):
            assert dst == x
            want[src] = want.get(src, 0) ^ coeff
        columns = code._pool_decoder(x, code.node_ids())
        row = {src: weights[y - 1] for src, (_, weights) in columns.items() if weights[y - 1]}
        assert row == {src: w for src, w in want.items() if w}, (x, y)


def test_uncovered_shape_is_answered_by_the_determinant():
    """3 systematic + 2 parity has no trusted closed form: condition_check
    answers it with the coupling determinant's verdict instead of raising."""
    code = IACode(F256, 5)
    with pytest.raises(UnsupportedPatternError):
        ref.ia_condition_table(code, (1, 2, 3, 6, 7))
    system, _ = code.coupling_system((1, 2, 3, 6, 7))
    assert system.determinant() != 0
    assert code.condition_check((1, 2, 3, 6, 7)) is True


def conjecture_eval(code, failed):
    """Compare det(A) with the conjectured product formula (report only)."""
    f = code.field
    failed = tuple(sorted(set(failed)))
    sys_nodes = [x for x in failed if code.is_systematic(x)]
    par_nodes = [x - code.k for x in failed if not code.is_systematic(x)]
    s, p = len(sys_nodes), len(par_nodes)
    e = s + p
    system, _ = code.coupling_system(failed)
    lhs = system.determinant()
    # kappa^{2sp} (1-kappa^2)^{C(s,2)+C(p,2)} (1 - sum over matchings)^e
    bracket = 1
    for size in range(1, min(s, p) + 1):
        for lset in combinations(sys_nodes, size):
            for jset in combinations(par_nodes, size):
                for sigma in permutations(range(size)):
                    prod_a = 1
                    for i, t in enumerate(sigma):
                        prod_a = f.mul(prod_a, code.P.data[lset[i] - 1][jset[t] - 1])
                    for sigma2 in permutations(range(size)):
                        prod_b = 1
                        for i, t in enumerate(sigma2):
                            prod_b = f.mul(prod_b, code.Pd.data[lset[i] - 1][jset[t] - 1])
                        term = f.mul(prod_a, prod_b)
                        # signs are powers of -1 = 1 in characteristic 2
                        bracket = f.add(bracket, term)
    rhs = f.pow(code.kappa, 2 * s * p)
    rhs = f.mul(rhs, f.pow(ref.ia_constants(code)[1], s * (s - 1) // 2 + p * (p - 1) // 2))
    rhs = f.mul(rhs, f.pow(bracket, e))
    return lhs, rhs, lhs == rhs


def test_product_formula_matches_determinant():
    code = example_code()
    for e in (2, 3, 4):
        for pat in combinations(code.node_ids(), e):
            lhs, rhs, equal = conjecture_eval(code, pat)
            assert equal and lhs == rhs


def test_systematic_decode_matrix_is_closed_form_inverse():
    # (U' + kappa^2/(1+kappa) V e_l e_l^t P') inverts rows u_i^t + P_{l,i} v'_l^t
    code = example_code()
    f, k = code.field, code.k
    ud, _, one_plus_k = ref.ia_constants(code)
    for l in range(1, k + 1):
        fwd = [[code.U.data[c][i] for c in range(k)] for i in range(k)]
        vdl = [code.Vd.data[r][l - 1] for r in range(k)]
        for i in range(k):
            for c in range(k):
                fwd[i][c] = f.add(fwd[i][c], f.mul(code.P.data[l - 1][i], vdl[c]))
        inv = [row[:] for row in ud.data]
        coef = f.div(f.mul(code.kappa, code.kappa), one_plus_k)
        for r in range(k):
            for c in range(k):
                inv[r][c] = f.add(inv[r][c], f.mul(coef, f.mul(code.V.data[r][l - 1], code.Pd.data[l - 1][c])))
        prod = mat_mul(Matrix(f, inv), Matrix(f, fwd))
        assert prod.data == Matrix.identity(f, k).data


def test_column_order_permutation_keeps_determinant():
    # reference layout for failures {1, 2, parity 1} lists the transfers as
    # s_{1,1}, sbar_{1,1}, r_{1,2}, r_{2,1}, s_{2,1}, sbar_{1,2}
    code = example_code()
    failed = (1, 2, 5)
    system, _ = code.coupling_system(failed)
    ours = system.pairs
    theirs = [(1, 5), (5, 1), (1, 2), (2, 1), (2, 5), (5, 2)]
    assert sorted(ours) == sorted(theirs)
    pos = {pair: i for i, pair in enumerate(ours)}
    perm = [pos[pair] for pair in theirs]
    reordered = Matrix(
        code.field, [[system.A.data[perm[r]][perm[c]] for c in range(6)] for r in range(6)]
    )
    from regenrepair.gf import mat_det

    assert mat_det(reordered) == system.determinant() != 0


def test_gf4_k3_mixed_pairs_all_singular():
    code = IACode(F4, 3)
    singular = []
    for pat in combinations(code.node_ids(), 2):
        system, _ = code.coupling_system(pat)
        if system.determinant() == 0:
            singular.append(pat)
    assert singular == [(l, m) for l in (1, 2, 3) for m in (4, 5, 6)]
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            assert ref.ia_pi(code, l, m) == 1  # Pi = 1 is exactly the failure condition
    for pat in combinations(code.node_ids(), 3):
        system, _ = code.coupling_system(pat)
        assert system.determinant() != 0


def test_singular_coupling_reported():
    code = IACode(F4, 3)
    rng = random.Random(4)
    msg = code.random_message(rng)
    shards = code.encode(msg)
    live = {i: s for i, s in shards.items() if i not in (1, 4)}
    with pytest.raises(SingularCouplingError) as err:
        code.repair_multi(live, (1, 4))
    assert err.value.failed == (1, 4)
    ok, bandwidth, singular = verify_exact_repair(code, (1, 4), rng=random.Random(8))
    assert (ok, bandwidth, singular) == (False, 0, True)
    ok, bandwidth, singular = verify_exact_repair(code, (1, 2, 4), rng=random.Random(8))
    assert (ok, singular) == (True, False) and bandwidth == 9


def test_k1_degenerate():
    code = IACode(Field(3), 1)
    shards = code.encode([5])
    fixed, transcript = code.repair_single({2: shards[2]}, 1)
    assert fixed == shards[1] and transcript.total == 1
    fixed, _ = code.repair_single({1: shards[1]}, 2)
    assert fixed == shards[2]


def test_field_search_found_and_not_found():
    code = field_search(F32, 4, e_max=4, trials=5, seed=1)
    assert code.P.data == example_code().P.data  # default assignment wins
    with pytest.raises(AssignmentNotFoundError) as err:
        field_search(F4, 3, e_max=3, trials=40, seed=0)
    assert err.value.best_failures == 9


def test_field_search_refuses_sizes_no_code_has():
    """k < 1, and GF(2), which has no kappa, made every trial's constructor
    raise, and the search ended in AssignmentNotFoundError with no code."""
    for field, k in ((F32, 0), (Field(1), 3)):
        with pytest.raises(ValueError, match=r"k = %d over GF\(2\^%d\)" % (k, field.m)):
            field_search(field, k, e_max=2, trials=5, seed=0)


@pytest.mark.parametrize(
    "m, k, e_max, trials, seed",
    # found at trial 0 or later; not found, with later trials that beat the
    # first, tie it, or lose to it; k = 5, whose mixed e = 5 shapes have no
    # trusted closed form; and k = 6, where some of the e = 5 shapes without
    # one are singular
    [(5, 4, 4, 10, 0), (4, 3, 3, 12, 1), (2, 2, 2, 5, 0), (3, 3, 3, 12, 0), (3, 3, 3, 12, 2),
     (4, 3, 3, 12, 0), (4, 4, 4, 20, 3), (2, 3, 3, 40, 0), (4, 5, 5, 4, 1), (5, 5, 5, 3, 0),
     (8, 6, 5, 2, 0)],
)
def test_field_search_matches_full_determinant_count(m, k, e_max, trials, seed):
    field = Field(m)
    want, fallback = ref.ia_field_search(field, k, e_max, trials, seed)
    try:
        code = field_search(field, k, e_max, trials, seed)
    except AssignmentNotFoundError as err:
        assert want is None
        best, best_failures = fallback
        assert (err.best.P, err.best.kappa, err.best_failures) == (best.P, best.kappa, best_failures)
        return
    assert want is not None and (code.P, code.kappa) == (want.P, want.kappa)


def test_descriptor():
    code = example_code()
    desc = code.descriptor()
    assert desc["family"] == "ia"
    assert (desc["k"], desc["m"], desc["kappa"]) == (4, 5, 2)
    rebuilt = IACode(Field(desc["m"], desc["modulus"]), desc["k"],
                     P=Matrix(F32, desc["P"]), V=Matrix(F32, desc["V"]), kappa=desc["kappa"])
    assert rebuilt.encode([1] * 16) == code.encode([1] * 16)
