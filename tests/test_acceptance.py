"""Acceptance suite: one test per release criterion, each printing one line.

Every expected value here is derived through a route independent of the code
under test: exhaustive scenario enumeration, closed-form corner formulas, or
hand-counted bandwidth totals. Runtime ceilings are asserted where a criterion
pins one.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.framework import InvalidHelperCountError
from regenrepair.gf import (
    Field,
    Matrix,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_solve,
    mat_vec,
)
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode
from regenrepair.tradeoff import (
    InfeasibleBandwidthError,
    Scenario,
    SystemParams,
    alpha_star,
    compare_strategies,
    cut_value,
    gamma_mbmr,
    gamma_min_for_alpha,
    mbcr_check,
    mbmr_point,
    min_cut_oracle,
    msmr_point,
    optimal_scenario,
    tradeoff_curve,
)
from regenrepair.workbench import SplitRandom, run_sweep, verify_exact_repair

from exhaustive import exhaustive_min_cut

# shared parameter grid: every (k, e, d) with 2<=k<=10, 1<=e<=k, k<=d<=13
GRID = [
    (k, e, d)
    for k in range(2, 11)
    for e in range(1, k + 1)
    for d in range(k, 14)
]


def report(line):
    print("\n%s" % line)


def test_criterion_01_closed_form_scenario_matches_exhaustive_min_cut():
    t0 = time.monotonic()
    checked = 0
    for k, e, d in GRID:
        params = SystemParams(1, d + e, k, d, e)
        beta = F(1)
        for t in range(1, 101):
            alpha = F(t * (d + 1), 100)
            best, best_u = exhaustive_min_cut(params, alpha, beta)
            got = cut_value(optimal_scenario(params, alpha, beta), alpha, beta, d)
            assert got == best, (k, e, d, alpha)
            assert min_cut_oracle(params, alpha, beta) == (best, Scenario(best_u)), (k, e, d, alpha)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("criterion 01 PASS: %d grid points, closed form == DP oracle == exhaustive min (%.1fs)"
           % (checked, elapsed))


def test_criterion_02_extreme_points_match_alpha_star_endpoints():
    equal_cases = strict_cases = 0
    for k, e, d in GRID:
        params = SystemParams(1, d + e, k, d, e)
        msmr = msmr_point(params)
        assert msmr.alpha == F(1, k)
        assert alpha_star(params, msmr.gamma) == msmr.alpha
        assert gamma_min_for_alpha(params, msmr.alpha) == msmr.gamma

        g_mb = gamma_mbmr(params)
        a_mb = alpha_star(params, g_mb)
        if e < k:
            mbmr = mbmr_point(params)
            assert (mbmr.alpha, mbmr.gamma) == (a_mb, g_mb)
            assert gamma_min_for_alpha(params, mbmr.alpha) == mbmr.gamma
        else:
            # single-group regime collapses the curve to one point
            assert g_mb == params.M and a_mb == F(1, k)
        # bandwidth for e repairs vs storage: equality exactly when e | k
        if k % e == 0:
            assert e * a_mb == g_mb
            equal_cases += 1
        else:
            assert e * a_mb > g_mb
            strict_cases += 1
        with pytest.raises(InfeasibleBandwidthError):
            alpha_star(params, g_mb - F(1, 10**9))
    report("criterion 02 PASS: endpoints consistent on %d triples "
           "(%d divisible, %d strict)" % (len(GRID), equal_cases, strict_cases))


def test_criterion_03_divisible_case_reduces_to_single_failure():
    reduced_count = 0
    for k, e, d in GRID:
        if k % e or d % e:
            continue
        params = SystemParams(1, d + e, k, d, e)
        single = SystemParams(F(1, e), d // e + 1, k // e, d // e, 1)
        orig = [(p.alpha, p.gamma / d) for p in tradeoff_curve(params)]
        red = [(p.alpha, p.gamma / (d // e)) for p in tradeoff_curve(single)]
        assert orig == red, (k, e, d)
        reduced_count += 1
    report("criterion 03 PASS: %d divisible (k,e,d) triples reduce exactly"
           % reduced_count)


def test_criterion_04_cooperative_point_on_curve_iff_k_is_one_mod_e():
    checked = 0
    for k in range(2, 13):
        for e in range(2, k + 1):
            for d in range(k, 13):
                params = SystemParams(1, d + e, k, d, e)
                _, on_curve = mbcr_check(params)
                assert on_curve == (k % e == 1), (k, e, d)
                checked += 1
    # spotlight trio: same e and d=k, membership flips with k mod e
    for k, want in ((7, True), (8, False), (9, False)):
        _, on = mbcr_check(SystemParams(1, k + 3, k, k, 3))
        assert on is want
    report("criterion 04 PASS: %d (k,e,d) combinations match k = 1 (mod e)"
           % checked)


def test_criterion_05_product_matrix_example_all_patterns_repair():
    t0 = time.monotonic()
    code = PMCode(Field(8, 0x11D), 11, 6)
    d = code.d
    assert d == 10
    base = SplitRandom(2026)
    counts = {}
    for e in (2, 3):
        patterns = list(itertools.combinations(code.node_ids(), e))
        for pattern in patterns:
            rng = base.split("pm-%s" % (",".join(map(str, pattern))))
            msg = code.random_message(rng)
            shards = code.encode(msg)
            golden = {i: shards[i] for i in pattern}
            survivors = {i: s for i, s in shards.items() if i not in pattern}
            contents, transcript = code.repair_multi(survivors, pattern)
            assert contents == golden
            assert set(transcript.per_helper.values()) == {e}
            assert len(transcript.per_helper) == d - e + 1
            assert transcript.total == e * (d - e + 1)
        counts[e] = len(patterns)
    assert counts == {2: 55, 3: 165}
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0

    # smaller field: singular patterns are expected and get reported
    small = PMCode(Field(6, 0x43), 11, 6)
    singular = {e: run_sweep(small, e, seed=5).singular_patterns for e in (2, 3)}
    assert len(singular[2]) > 0
    report("criterion 05 PASS: 55+165 patterns, per-helper bandwidth e (%.1fs); "
           "64-element field singular sets: e=2 %s, e=3 %d patterns"
           % (elapsed, singular[2], len(singular[3])))


def test_criterion_06_aligned_code_example_all_patterns_repair():
    t0 = time.monotonic()
    code = IACode(Field(5), 4)
    counts = {}
    for e in (2, 3, 4):
        patterns = list(itertools.combinations(code.node_ids(), e))
        for pattern in patterns:
            rng = SplitRandom(31).split("ia-%s" % (",".join(map(str, pattern))))
            ok, bandwidth, sing = verify_exact_repair(code, pattern, rng=rng)
            assert ok and not sing, pattern
            assert bandwidth == e * (8 - e)
        counts[e] = len(patterns)
    assert counts == {2: 28, 3: 56, 4: 70}
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("criterion 06 PASS: 28+56+70 patterns repair exactly (%.1fs)" % elapsed)


def test_criterion_07_one_sided_patterns_always_repair_with_known_det():
    cases = 0
    for k in range(2, 7):
        code = IACode(Field(5), k)
        base = code.field.add(1, code.field.mul(code.kappa, code.kappa))
        for e in range(2, k + 1):
            for failed in (tuple(range(1, e + 1)), tuple(range(k + 1, k + e + 1))):
                system, _ = code.coupling_system(failed)
                want = code.field.pow(base, e * (e - 1) // 2)
                assert mat_det(system.A) == want, (k, failed)
                ok, _, sing = verify_exact_repair(
                    code, failed, rng=SplitRandom(7).split("os-%d-%s" % (k, failed))
                )
                assert ok and not sing
                cases += 1
    report("criterion 07 PASS: %d one-sided patterns, det == (1-kappa^2)^(e(e-1)/2)"
           % cases)


def test_criterion_08_closed_form_conditions_agree_with_determinants():
    field = Field(8)
    rng = random.Random(88)
    shapes = [
        (1, 5), (1, 2), (5, 6),
        (1, 2, 5), (1, 5, 6),
        (1, 2, 3, 5), (1, 5, 6, 7), (1, 2, 5, 6),
    ]
    codes = 0
    agreements = 0
    while codes < 1000:
        p = Matrix(field, [[rng.randrange(256) for _ in range(4)] for _ in range(4)])
        try:
            code = IACode(field, 4, P=p)
        except ValueError:
            continue  # singular draw, not a covered code
        codes += 1
        for failed in shapes:
            system, _ = code.coupling_system(failed)
            assert code.condition_check(failed) == (mat_det(system.A) != 0), (
                code.descriptor(), failed)
            agreements += 1
    report("criterion 08 PASS: %d/%d closed-form vs determinant agreements "
           "on 1000 random coupling matrices" % (agreements, agreements))


def test_criterion_09_stripe_codes_ship_whole_file_for_large_failures():
    field = Field(6)
    repairs = 0
    for n in range(2, 9):
        for k in range(1, n):
            for d in range(k, n):
                code = MDSStripeCode(field, n, k, d=d)
                for e in range(k, n - d + 1):
                    for pattern in itertools.combinations(code.node_ids(), e):
                        rng = SplitRandom(9).split("mds-%d-%d-%d-%s" % (n, k, d, pattern))
                        ok, bandwidth, sing = verify_exact_repair(code, pattern, rng=rng)
                        assert ok and not sing
                        assert bandwidth == code.message_length
                        repairs += 1

    adaptive = MDSStripeCode(Field(7), 7, 2, d_max=4)
    assert adaptive.delta == 12  # lcm of the allowed degrees 2..4
    adaptive_repairs = 0
    for e in range(2, 6):
        for d in range(2, min(4, 7 - e) + 1):
            for pattern in itertools.combinations(adaptive.node_ids(), e):
                rng = SplitRandom(10).split("ad-%d-%d-%s" % (e, d, pattern))
                ok, bandwidth, sing = verify_exact_repair(adaptive, pattern, rng=rng, d=d)
                assert ok and not sing and bandwidth == 24
                adaptive_repairs += 1
    report("criterion 09 PASS: %d fixed-degree and %d adaptive repairs, "
           "bandwidth == file size" % (repairs, adaptive_repairs))


def test_criterion_10_adaptive_mbr_bandwidth_and_rank_law():
    code = AdaptiveMBRCode(Field(6), 7, 3, 4, 5)
    alpha, z = code.alpha, code.z
    assert (alpha, z) == (20, 5)
    repairs = 0
    for e in (1, 2, 3):
        want = e * alpha - e * (e - 1) // 2 * z
        assert code.mbr_bandwidth_bound(e) == want
        for d in (4, 5):
            if e + d > code.n:
                pattern = tuple(range(1, e + 1))
                msg = code.random_message(random.Random(4))
                shards = code.encode(msg)
                survivors = {i: s for i, s in shards.items() if i not in pattern}
                with pytest.raises(InvalidHelperCountError):
                    code.repair_multi(survivors, pattern, d=d)
                continue
            for pattern in itertools.combinations(code.node_ids(), e):
                rng = SplitRandom(12).split("mbr-%d-%d-%s" % (e, d, pattern))
                ok, bandwidth, sing = verify_exact_repair(code, pattern, rng=rng, d=d)
                assert ok and not sing
                assert bandwidth == want, (e, d, pattern)
                repairs += 1
    for e in (1, 2, 3):
        for nodes in itertools.combinations(code.node_ids(), e):
            got = mat_rank(code.coefficient_matrix(nodes))
            assert got == (e * code.d_min - e * (e - 1) // 2) * z, nodes
    report("criterion 10 PASS: %d repairs at e*alpha - C(e,2)*alpha/d_min; "
           "rank law holds on all node subsets" % repairs)


def test_criterion_11_fewer_helper_storage_point_ratio():
    checked = 0
    for k, e, d in GRID:
        if d - e + 1 < k or e < 2:
            continue
        params = SystemParams(1, d + e, k, d, e)
        fewer = SystemParams(1, d + 1, k, d - e + 1, e)
        single = SystemParams(1, d + 1, k, d, 1)
        a0 = F(1, k)
        ratio = gamma_min_for_alpha(fewer, a0) / (e * gamma_min_for_alpha(single, a0))
        assert ratio == F(d - e + 1, d), (k, e, d)
        assert compare_strategies(params, alphas=[a0]).msmr_ratio == ratio
        checked += 1
    report("criterion 11 PASS: ratio (d-e+1)/d exact on %d parameter triples"
           % checked)


def test_criterion_12_randomized_round_trips_and_field_invariants():
    plan = [
        ("pm_small", PMCode(Field(5), 6, 3), (1, 2), {}, 2500),
        ("pm_large", PMCode(Field(8), 11, 6), (1, 2, 3, 4, 5), {}, 1000),
        ("ia", IACode(Field(5), 4), (1, 2, 3, 4), {}, 2500),
        ("mds_fixed", MDSStripeCode(Field(6), 6, 2, d=3), (1, 2, 3), {}, 1500),
        ("mds_adaptive", MDSStripeCode(Field(7), 7, 2, d_max=4), (1, 2, 3, 4, 5), {"adaptive_d": True}, 1000),
        ("ambr", AdaptiveMBRCode(Field(6), 7, 3, 4, 5), (1, 2, 3), {"mbr_d": True}, 1500),
    ]
    trips = 0
    for name, code, failure_sizes, opts, count in plan:
        rng = SplitRandom(1234).split(name)
        ids = list(code.node_ids())
        for t in range(count):
            e = failure_sizes[rng.randrange(len(failure_sizes))]
            pattern = tuple(sorted(rng.sample(ids, e)))
            kwargs = {}
            if opts.get("adaptive_d"):
                top = min(code.d_max, code.n - e)
                kwargs["d"] = code.k + rng.randrange(top - code.k + 1)
            if opts.get("mbr_d"):
                top = min(code.d_max, code.n - e)
                kwargs["d"] = code.d_min + rng.randrange(top - code.d_min + 1)
            ok, _, sing = verify_exact_repair(
                code, pattern, rng=rng.split("msg%d" % t), **kwargs
            )
            assert ok and not sing, (name, pattern, kwargs)
            trips += 1
    assert trips == 10000

    # field axioms on random elements across a spread of extension degrees
    fields = [Field(m) for m in (1, 2, 3, 5, 6, 8, 12)]
    frng = random.Random(99)
    for _ in range(2000):
        f = fields[frng.randrange(len(fields))]
        a, b, c = (frng.randrange(f.size) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, a) == 0
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(b, a) == f.mul(b, f.inv(a))
            assert f.pow(a, f.order) == 1

    # matrix identities on random squares
    for f in (Field(5), Field(8)):
        for t in range(100):
            mrng = random.Random(1000 + t)
            a = Matrix(f, [[mrng.randrange(f.size) for _ in range(4)] for _ in range(4)])
            b = Matrix(f, [[mrng.randrange(f.size) for _ in range(4)] for _ in range(4)])
            assert mat_det(mat_mul(a, b)) == f.mul(mat_det(a), mat_det(b))
            assert a.transpose().transpose() == a
            assert mat_rank(a) == mat_rank(a.transpose())
            assert (mat_rank(a) == 4) == (mat_det(a) != 0)
            if mat_det(a):
                assert mat_mul(a, mat_inv(a)) == Matrix.identity(f, 4)
                rhs = [mrng.randrange(f.size) for _ in range(4)]
                assert mat_vec(a, mat_solve(a, rhs)) == rhs
    report("criterion 12 PASS: 10000 randomized repair round trips; "
           "field and matrix invariants hold")
