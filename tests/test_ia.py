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
from coupling import coupling, known_terms
from regenrepair import ia
from regenrepair.framework import SingularCouplingError
from regenrepair.gf import Field, Matrix, all_square_submatrices_invertible, cauchy, mat_det, mat_mul
from regenrepair.ia import IACode, UnsupportedPatternError, default_kappa
from regenrepair.workbench import AssignmentNotFoundError, build_code, run_sweep, search_assignment, verify_exact_repair

F32 = Field(5)
F256 = Field(8, 0x11D)
F4 = Field(2)


def example_code():
    return IACode(F32, 4)


def ia_search(field, k, e_max, trials, seed=0):
    """The code search_assignment's IA search finds over field."""
    params = {"m": field.m, "modulus": field.modulus, "k": k, "e_max": e_max}
    return build_code(search_assignment("ia", params, budget=trials, seed=seed))


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
        report = run_sweep(code, e, seed=5)
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
                assert coupling(code, pat).det == want
            for pat in combinations(range(k + 1, 2 * k + 1), e):
                assert coupling(code, pat).det == want


def test_condition_check_matches_determinant_on_example():
    code = example_code()
    for e in (2, 3, 4):
        for pat in combinations(code.node_ids(), e):
            assert code.condition_check(pat) == (coupling(code, pat).det != 0)


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
            assert code.condition_check(pat) == (coupling(code, pat).det != 0)


def random_ia_code(field, k, rng, random_v=False):
    """IACode(k) with a random kappa and a random superregular P: random
    entries where a few draws find one, else a Cauchy matrix on random
    points with scaled rows and columns. With random_v, V is a random
    invertible matrix too; else V = I."""
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
    kappa = rng.randrange(2, field.size)
    return IACode(field, k, P=p, V=random_invertible(field, k, rng) if random_v else None, kappa=kappa)


def random_invertible(field, k, rng):
    while True:
        v = Matrix(field, [[rng.randrange(field.size) for _ in range(k)] for _ in range(k)])
        if mat_det(v):
            return v


@st.composite
def random_ia_codes(draw, ms=range(3, 9), k_min=2, k_max=5, random_v=False):
    """random_ia_code over GF(2^m), m in ms (3..8 by default), k = k_min..k_max
    (at most 4 over GF(8)); with random_v, half of them with a random V."""
    m = draw(st.sampled_from(ms))
    k = draw(st.integers(k_min, k_max if m > 3 else 4))
    return random_ia_code(Field(m), k, draw(st.randoms(use_true_random=False)), random_v and draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(random_ia_codes(random_v=True))
@example(IACode(F256, 6))
@example(random_ia_code(F256, 6, random.Random(6)))
def test_coupling_system_and_closed_forms_on_random_codes(code):
    """On every pattern of e = 2..k the coupling rows' A and the decoder
    tables' known terms equal those built entry by entry, and
    condition_check is det(A) != 0 on the rows, the slow reference it
    replaces, so the search can vet by it alone; on the six shapes the
    retired hand formulas covered, it agrees with them. The two fixed
    k = 6 codes carry the check past the strategy's k <= 5."""
    for e in range(2, code.k + 1):
        for pat in combinations(code.node_ids(), e):
            want, want_known = ref.ia_coupling_system(code, pat)
            got = coupling(code, pat)
            assert got.A == want.A.data
            assert known_terms(code, pat) == want_known
            repairable = code.condition_check(pat)
            assert repairable == (got.det != 0), pat
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


@pytest.mark.parametrize(
    "k, failed, repairable",
    [(5, (1, 2, 3, 6, 7), True), (6, (1, 5, 6, 7, 8), False)],
    ids=["ia5-repairable", "ia6-singular"],
)
def test_shapes_past_the_retired_hand_formulas_take_the_closed_form(monkeypatch, k, failed, repairable):
    """3 systematic + 2 parity has no hand formula, and condition_check
    once answered it with the coupling determinant. With the determinant
    identity proven it takes det(I + G) and never builds A, and its answer
    is still det A != 0, on a repairable pattern and a singular one."""
    code = IACode(F256, k)
    with pytest.raises(UnsupportedPatternError):
        ref.ia_condition_table(code, failed)
    assert (coupling(code, failed).det != 0) is repairable
    monkeypatch.setattr(code, "_coupling_rows", None)
    assert code.condition_check(failed) is repairable


def proof_rows(code, failed):
    """Rows (1)-(4) of docs/ia-repairability.md for V = I, as {(x, y): {(l, x):
    weight}}, every node by its id: a_{lx}, c_{lm}, d_{ml} and f_{mm'} with
    the right side moved left."""
    f, k, kappa = code.field, code.k, code.kappa
    P, Pd, mul = code.P.data, code.Pd.data, f.mul
    one_k2 = 1 ^ mul(kappa, kappa)
    S = [x for x in failed if x <= k]
    J = [x - k for x in failed if x > k]
    rows = {}

    def row(x, y, terms):
        weights = {(x, y): 1}
        for src, weight in terms:
            weights[(src, x)] = weights.get((src, x), 0) ^ weight
        rows[(x, y)] = {pair: w for pair, w in weights.items() if w}

    for l in S:
        for x in S:
            if x != l:  # (1)
                row(l, x, [(x, kappa)] + [(k + i, mul(kappa, Pd[x - 1][i - 1])) for i in J])
        c = f.div(kappa, 1 ^ kappa)
        for m in J:  # (2)
            row(l, k + m, [(k + m, 1)] + [(j, P[j - 1][m - 1]) for j in S if j != l]
                + [(k + i, mul(mul(c, P[l - 1][m - 1]), Pd[l - 1][i - 1])) for i in J])
    for m in J:
        c = kappa ^ mul(kappa, kappa)
        for x in S:  # (3)
            row(k + m, x, [(k + i, mul(mul(kappa, kappa), Pd[x - 1][i - 1])) for i in J if i != m]
                + [(x, one_k2)] + [(j, mul(mul(c, Pd[x - 1][m - 1]), P[j - 1][m - 1])) for j in S])
        for m2 in J:
            if m2 != m:  # (4)
                row(k + m, k + m2, [(k + m2, kappa)]
                    + [(j, mul(f.div(one_k2, kappa), P[j - 1][m2 - 1])) for j in S])
    return rows


@settings(max_examples=20, deadline=None)
@given(random_ia_codes())
@example(IACode(F256, 6))
def test_coupling_rows_match_the_proof(code):
    """Step 4 of the proof, row by row, on every pattern of e = 2..k."""
    for e in range(2, code.k + 1):
        for pat in combinations(code.node_ids(), e):
            system = coupling(code, pat)
            pairs = system.pairs
            got = {pair: {pairs[c]: w for c, w in enumerate(row) if w} for pair, row in zip(pairs, system.A)}
            assert got == proof_rows(code, pat), pat


def product_formula(code, failed):
    """The right side of the determinant identity of docs/ia-repairability.md,
    kappa^{2sp} (1 + kappa^2)^{C(s,2)+C(p,2)} det(I + G)^e, with det(I + G)
    expanded by Cauchy-Binet as 1 plus a sum over matchings, apart from
    condition_check's elimination."""
    f = code.field
    failed = tuple(sorted(set(failed)))
    sys_nodes = [x for x in failed if code.is_systematic(x)]
    par_nodes = [x - code.k for x in failed if not code.is_systematic(x)]
    s, p = len(sys_nodes), len(par_nodes)
    e = s + p
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
    return f.mul(rhs, f.pow(bracket, e))


@settings(max_examples=30, deadline=None)
@given(random_ia_codes(k_max=6, random_v=True))
@example(example_code())
@example(IACode(F256, 6))
def test_product_formula_matches_determinant(code):
    """The identity holds exactly on every pattern of e = 2..k, at k = 2..6,
    on random P, kappa and V."""
    for e in range(2, code.k + 1):
        for pat in combinations(code.node_ids(), e):
            assert coupling(code, pat).det == product_formula(code, pat), pat


IA6 = IACode(F256, 6)
IA6_SINGULAR = [
    (5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8), (5, 6, 7, 8), (1, 4, 5, 6, 9), (1, 4, 7, 8, 12), (1, 5, 6, 7, 8),
    (2, 3, 5, 6, 10), (2, 3, 7, 8, 11), (2, 5, 6, 7, 8), (3, 5, 6, 7, 8), (4, 5, 6, 7, 8), (5, 6, 7, 8, 9),
    (5, 6, 7, 8, 10), (5, 6, 7, 8, 11), (5, 6, 7, 8, 12),
]


@settings(max_examples=40, deadline=None)
@given(random_ia_codes(ms=(3, 4, 5, 6, 7, 8, 10, 16), k_max=6, random_v=True), st.randoms(use_true_random=False))
@example(IA6, random.Random(0))
def test_repairable_from_the_product_table_matches_the_determinant(code, rng):
    """One vetting pass over every pattern within the limit, in the search's
    order, builds the product table once, at the first pattern with
    failures on both sides; construction builds none. Each verdict is
    det != 0 of the reference coupling system, built entry by entry: on
    every pattern up to k = 4, and past it on drawn patterns and on every
    singular one. IA(6)/GF(2^8)'s singular patterns are pinned."""
    assert "_product_table" not in code.__dict__
    patterns = [p for e in range(2, code.k + 1) for p in combinations(code.node_ids(), e)]
    verdicts, tables = {}, []
    for pattern in patterns:
        verdicts[pattern] = code._repairable(pattern)
        table = code.__dict__.get("_product_table")
        mixed = any(x <= code.k for x in pattern) and any(x > code.k for x in pattern)
        assert (table is None) == (not tables and not mixed), pattern
        if table is not None and (not tables or tables[-1] is not table):
            tables.append(table)
    assert len(tables) == 1
    singular = [p for p in patterns if not verdicts[p]]
    checked = patterns if code.k <= 4 else set(rng.sample(patterns, 30) + singular)
    for pattern in checked:
        assert verdicts[pattern] == (mat_det(ref.ia_coupling_system(code, pattern)[0].A) != 0), pattern
    if code is IA6:
        assert singular == IA6_SINGULAR


def plan_state(plan):
    """What a compiled plan holds, each map as its shape, picks and table."""

    def state(linear_map):
        if linear_map is None:
            return None
        return linear_map.rows, linear_map.cols, linear_map.picks, linear_map._columns, linear_map._matrix

    return plan.failed, plan.helpers, [state(send) for send in plan.send], state(plan.decode), plan.dependent


@settings(max_examples=40, deadline=None)
@given(random_ia_codes(ms=(4, 5, 6, 7, 8, 10), k_max=6, random_v=True), st.randoms(use_true_random=False))
@example(IACode(F256, 6), random.Random(0))
@example(IACode(F4, 3), random.Random(0))
@example(IACode(Field(4), 4), random.Random(0))
@example(IACode(Field(10), 3), random.Random(0))
def test_packed_compile_matches_the_list_compile(code, rng):
    """The plan compiled on packed rows holds the same send maps, decode
    map and dependent transfers as the compile on list rows, both in
    unknown_pairs order, on every e: every pattern
    up to k = 4, and past it 25 drawn ones per e plus every singular one.
    The examples carry singular patterns, the last past m = 8."""
    for e in range(1, code.k + 1):
        patterns = list(combinations(code.node_ids(), e))
        if code.k > 4:
            singular = [pat for pat in patterns if not code.condition_check(pat)]
            patterns = rng.sample(patterns, min(25, len(patterns))) + singular
        for pat in patterns:
            assert plan_state(code._compile_plan(pat)) == plan_state(ref.ia_compile_plan(code, pat)), pat


def test_a_singular_compile_names_its_dependent_transfers_from_its_own_reduction(monkeypatch):
    """Each singular pattern of IA(6)/GF(2^8) at e = 3 builds its coupling
    rows once and reduces them once, and names the dependent transfers that
    a reduction of the same rows below the pivots names."""
    code = IACode(F256, 6)
    singular = [pat for pat in combinations(code.node_ids(), 3) if not code.condition_check(pat)]
    assert len(singular) == 4
    calls, build, reduce = [], IACode._coupling_rows, ia._reduce_packed
    monkeypatch.setattr(IACode, "_coupling_rows", lambda *args: calls.append("rows") or build(*args))
    monkeypatch.setattr(ia, "_reduce_packed", lambda *args: calls.append("reduce") or reduce(*args))
    for pat in singular:
        calls.clear()
        plan = code._compile_plan(pat)
        assert calls == ["rows", "reduce"], pat
        assert plan.dependent == coupling(code, pat).dependent != (), pat


@settings(max_examples=20, deadline=None)
@given(random_ia_codes(), st.integers(0, 2**32))
def test_coupling_matrix_does_not_depend_on_v(code, seed):
    """Step 2 of the proof: the coupling rows and their known terms are
    the same for V = I and a random invertible V."""
    v = random_invertible(code.field, code.k, random.Random(seed))
    other = IACode(code.field, code.k, P=code.P, V=v, kappa=code.kappa)
    for e in range(2, code.k + 1):
        for pat in combinations(code.node_ids(), e):
            assert coupling(code, pat).A == coupling(other, pat).A, pat
            assert known_terms(code, pat) == known_terms(other, pat), pat


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
    system = coupling(code, failed)
    ours, a = system.pairs, system.A
    theirs = [(1, 5), (5, 1), (1, 2), (2, 1), (2, 5), (5, 2)]
    assert sorted(ours) == sorted(theirs)
    pos = {pair: i for i, pair in enumerate(ours)}
    perm = [pos[pair] for pair in theirs]
    reordered = Matrix(code.field, [[a[perm[r]][perm[c]] for c in range(6)] for r in range(6)])
    assert mat_det(reordered) == system.det != 0


def test_gf4_k3_mixed_pairs_all_singular():
    code = IACode(F4, 3)
    singular = []
    for pat in combinations(code.node_ids(), 2):
        if coupling(code, pat).det == 0:
            singular.append(pat)
    assert singular == [(l, m) for l in (1, 2, 3) for m in (4, 5, 6)]
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            assert ref.ia_pi(code, l, m) == 1  # Pi = 1 is exactly the failure condition
    for pat in combinations(code.node_ids(), 3):
        assert coupling(code, pat).det != 0


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
    code = ia_search(F32, 4, e_max=4, trials=5, seed=1)
    assert code.P.data == example_code().P.data  # default assignment wins
    with pytest.raises(AssignmentNotFoundError) as err:
        ia_search(F4, 3, e_max=3, trials=40, seed=0)
    assert err.value.best_failures == 9


def test_field_search_refuses_sizes_no_code_has():
    """k < 1, and GF(2), which has no kappa, made every trial's constructor
    raise, and the search ended in AssignmentNotFoundError with no code.
    So did k = True; a float or string size died with TypeError, and
    trials=True ran one trial."""
    for field, k in ((F32, 0), (Field(1), 3)):
        with pytest.raises(ValueError, match=r"k = %d over GF\(2\^%d\)" % (k, field.m)):
            ia_search(field, k, e_max=2, trials=5, seed=0)
    sizes = (3, 2, 5)
    for at, size in enumerate(sizes):
        for bad in (float(size), str(size), True):
            with pytest.raises(ValueError, match=r"\bints\b"):
                ia_search(F32, *sizes[:at], bad, *sizes[at + 1 :], seed=0)


@pytest.mark.parametrize(
    "m, k, e_max, trials, seed",
    # found at trial 0 or later; not found, with later trials that beat the
    # first, tie it, or lose to it; k = 5, whose mixed e = 5 shapes have no
    # hand formula; and k = 6, where some of the e = 5 shapes without one
    # are singular
    [(5, 4, 4, 10, 0), (4, 3, 3, 12, 1), (2, 2, 2, 5, 0), (3, 3, 3, 12, 0), (3, 3, 3, 12, 2),
     (4, 3, 3, 12, 0), (4, 4, 4, 20, 3), (2, 3, 3, 40, 0), (4, 5, 5, 4, 1), (5, 5, 5, 3, 0),
     (8, 6, 5, 2, 0)],
)
def test_field_search_matches_full_determinant_count(m, k, e_max, trials, seed):
    field = Field(m)
    want, fallback = ref.ia_field_search(field, k, e_max, trials, seed)
    try:
        code = ia_search(field, k, e_max, trials, seed)
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
