"""Tradeoff module: frozen endpoints, oracle equivalence, curve geometry."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from regenrepair.tradeoff import (
    ComparisonReport,
    InfeasibleBandwidthError,
    InvalidScenarioError,
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

import reference_paths as ref
from exhaustive import compositions, exhaustive_min_cut


# --- independent oracle: pure-Fraction recursion, no shared code path ---

def brute_compositions(k, e):
    if k == 0:
        return [[]]
    out = []
    for first in range(1, min(e, k) + 1):
        for rest in brute_compositions(k - first, e):
            out.append([first] + rest)
    return out


def brute_min_cut(params, alpha, beta):
    best = None
    for u in brute_compositions(params.k, min(params.e, params.k)):
        total = F(0)
        used = 0
        for ui in u:
            total += min(ui * F(alpha), (params.d - used) * F(beta))
            used += ui
        if best is None or total < best:
            best = total
    return best


def grid_params(kmax=6, dmax=9):
    for k in range(2, kmax + 1):
        for e in range(1, k + 1):
            for d in range(k, dmax + 1):
                yield SystemParams(1, d + e, k, d, e)


def test_cut_value_frozen():
    assert cut_value([4, 4], F(1, 8), F(1, 12), 10) == 1
    assert cut_value([2, 3, 3], 1, 1, 10) == 8
    assert cut_value([3], F(1, 3), F(1, 5), 5) == 1


def test_cut_value_validation():
    with pytest.raises(InvalidScenarioError):
        cut_value([0, 3], 1, 1, 5)
    with pytest.raises(InvalidScenarioError):
        cut_value([4, 4], 1, 1, 7)  # sum exceeds d
    with pytest.raises(InvalidScenarioError):
        cut_value([2], -1, 1, 5)


@pytest.mark.parametrize("u", [(1.5, 2), (2.0, 1), (True, 2), (2, False), ("2",), (F(2),)])
def test_scenario_refuses_group_sizes_that_are_not_ints(u):
    # (1.5, 2) and (2.0, 1) gave float cuts 3.5 and 3.0, bools passed for
    # 1 and ("2",) died comparing a str with 1
    with pytest.raises(InvalidScenarioError, match="must be ints"):
        Scenario(u)
    with pytest.raises(InvalidScenarioError, match="must be ints"):
        cut_value(u, 1, 1, 10)


def test_enumerate_scenarios_lexicographic():
    assert [u for u, _ in compositions(3, 2)] == [(1, 1, 1), (1, 2), (2, 1)]
    assert len(compositions(8, 3)) == 81
    us = [u for u, _ in compositions(6, 4)]
    assert us == sorted(us)
    # parts never exceed e and always sum to k
    assert all(sum(u) == 6 and max(u) <= 4 for u in us)


def test_optimal_scenario_frozen():
    p = SystemParams(1, 13, 8, 10, 3)
    assert optimal_scenario(p, 3, 1).u == (2, 3, 3)
    assert optimal_scenario(p, 5, 1).u == (3, 3, 2)
    # tie at the switching storage level keeps the residual-first form
    assert optimal_scenario(p, 4, 1).u == (2, 3, 3)
    assert optimal_scenario(SystemParams(1, 14, 8, 10, 4), 7, 1).u == (4, 4)
    assert optimal_scenario(SystemParams(1, 9, 3, 5, 3), 2, 1).u == (3,)
    assert optimal_scenario(SystemParams(1, 10, 3, 5, 4), 2, 1).u == (3,)


@pytest.mark.parametrize("alpha, beta", [(-1, 1), (1, -1), (F(-1, 3), 0)])
@pytest.mark.parametrize("params", [SystemParams(12, 10, 4, 6, 2), SystemParams(12, 10, 2, 6, 3)])
def test_optimal_scenario_refuses_a_negative_alpha_or_beta(params, alpha, beta):
    """optimal_scenario(SystemParams(12, 10, 4, 6, 2), -1, 1) returned
    Scenario((2, 2)); cut_value and min_cut_oracle refused it already."""
    for call in (optimal_scenario, min_cut_oracle):
        with pytest.raises(InvalidScenarioError):
            call(params, alpha, beta)


def test_min_cut_oracle_matches_independent_brute_force():
    rng = random.Random(2024)
    for params in grid_params(kmax=5, dmax=8):
        for _ in range(8):
            alpha = F(rng.randrange(1, 40), rng.randrange(1, 12))
            beta = F(rng.randrange(1, 12), rng.randrange(1, 12))
            got, scen = min_cut_oracle(params, alpha, beta)
            assert got == brute_min_cut(params, alpha, beta)
            assert cut_value(scen, alpha, beta, params.d) == got


def test_min_cut_oracle_tie_breaks_lexicographically():
    params = SystemParams(1, 13, 8, 10, 3)
    beta = F(1)
    alpha = F(4)  # both (2,3,3) and (3,3,2) are optimal here
    val, scen = min_cut_oracle(params, alpha, beta)
    ties = [
        u
        for u in brute_compositions(8, 3)
        if cut_value(u, alpha, beta, 10) == val
    ]
    assert tuple(min(ties)) == scen.u
    assert (2, 3, 3) in [tuple(u) for u in ties]
    assert cut_value(optimal_scenario(params, alpha, beta), alpha, beta, 10) == val


@st.composite
def oracle_cases(draw):
    """Parameters with k <= 14, e from 1 to above k and d in k..k+4, and a
    nonnegative (alpha, beta) pair; zero and tie-prone small ratios included."""
    k = draw(st.integers(1, 14))
    e = draw(st.integers(1, k + 2))
    d = draw(st.integers(k, k + 4))
    rational = st.builds(F, st.integers(0, 24), st.integers(1, 6))
    return SystemParams(1, d + e, k, d, e), draw(rational), draw(rational)


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_dp_oracle_matches_exhaustive_value_and_scenario(case):
    params, alpha, beta = case
    best, best_u = exhaustive_min_cut(params, alpha, beta)
    value, scen = min_cut_oracle(params, alpha, beta)
    assert (value, scen.u) == (best, best_u)
    assert cut_value(scen, alpha, beta, params.d) == value


def test_dp_oracle_ties_go_to_the_lexicographically_smallest_scenario():
    # alpha = beta = 0 makes every scenario optimal; (1, ..., 1) is the least
    for k, e in [(1, 1), (5, 2), (9, 4)]:
        value, scen = min_cut_oracle(SystemParams(1, k + e + 1, k, k + 1, e), 0, 0)
        assert (value, scen.u) == (0, (1,) * k)
    # beta = 0 with alpha > 0: every scenario cuts 0 as well
    assert min_cut_oracle(SystemParams(1, 12, 8, 9, 3), 5, 0)[1].u == (1,) * 8
    # alpha = 0 with beta > 0: likewise
    assert min_cut_oracle(SystemParams(1, 12, 8, 9, 3), 0, 2)[1].u == (1,) * 8


def test_closed_form_equals_oracle_on_grid():
    for params in grid_params():
        for num in range(1, 25, 3):
            alpha = F(num, 6)
            val, _ = min_cut_oracle(params, alpha, 1)
            assert cut_value(optimal_scenario(params, alpha, 1), alpha, 1, params.d) == val


def test_alpha_star_frozen_endpoints():
    assert alpha_star(SystemParams(1, 14, 8, 10, 4), F(5, 6)) == F(1, 8)
    assert alpha_star(SystemParams(1, 13, 8, 10, 3), F(10, 21)) == F(4, 21)


def test_alpha_star_infeasible_below_mbmr():
    p = SystemParams(1, 13, 8, 10, 3)
    with pytest.raises(InfeasibleBandwidthError):
        alpha_star(p, F(10, 21) - F(1, 1000))
    with pytest.raises(InfeasibleBandwidthError):
        alpha_star(SystemParams(1, 9, 3, 5, 3), F(99, 100))  # k <= e needs gamma >= M


def test_alpha_star_threshold_property_against_oracle():
    for params in grid_params(kmax=5, dmax=8):
        lo = gamma_mbmr(params)
        hi = msmr_point(params).gamma * F(5, 4)
        for j in range(9):
            gamma = lo + (hi - lo) * F(j, 8)
            alpha = alpha_star(params, gamma)
            val, _ = min_cut_oracle(params, alpha, gamma / params.d)
            assert val == params.M
            shrunk, _ = min_cut_oracle(params, alpha * F(999, 1000), gamma / params.d)
            assert shrunk < params.M


def test_alpha_star_monotone_and_continuous():
    for params in grid_params(kmax=6, dmax=9):
        pts = tradeoff_curve(params)
        # breakpoints strictly increase in gamma, alpha non-increasing
        gammas = [p.gamma for p in pts]
        alphas = [p.alpha for p in pts]
        assert gammas == sorted(gammas)
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))
        # curve evaluation agrees with linear interpolation between rows
        for (g0, a0), (g1, a1) in zip(
            [(p.gamma, p.alpha) for p in pts], [(p.gamma, p.alpha) for p in pts[1:]]
        ):
            mid = (g0 + g1) / 2
            interp = a0 + (a1 - a0) * (mid - g0) / (g1 - g0)
            assert alpha_star(params, mid) == interp
        # flat at M/k beyond the last breakpoint
        assert pts[-1].alpha == params.M / F(params.k)
        assert alpha_star(params, pts[-1].gamma * 2) == params.M / F(params.k)


def test_curve_piece_counts():
    # residual-free: eta-1 linear pieces; otherwise eta pieces
    p = SystemParams(1, 14, 8, 10, 4)  # eta=2, r=0
    assert len(tradeoff_curve(p)) == 2
    p = SystemParams(1, 13, 8, 10, 3)  # eta=2, r=2
    assert len(tradeoff_curve(p)) == 3
    p = SystemParams(1, 11, 8, 9, 1)  # eta=8
    assert len(tradeoff_curve(p)) == 8
    p = SystemParams(1, 9, 3, 5, 3)  # single point
    pts = tradeoff_curve(p)
    assert [(q.gamma, q.alpha) for q in pts] == [(F(1), F(1, 3))]


def test_curve_frozen_small_instance():
    pts = tradeoff_curve(SystemParams(1, 6, 4, 4, 2))
    assert [(p.gamma, p.alpha, p.segment) for p in pts] == [
        (F(2, 3), F(1, 3), 0),
        (F(1), F(1, 4), 1),
    ]


def test_extreme_points_match_curve_ends():
    for params in grid_params():
        ms = msmr_point(params)
        assert ms.alpha == params.M / F(params.k)
        assert ms.gamma == ms.beta * params.d
        assert alpha_star(params, ms.gamma) == ms.alpha
        if params.e < params.k:
            mb = mbmr_point(params)
            assert mb.gamma == gamma_mbmr(params)
            assert alpha_star(params, mb.gamma) == mb.alpha
            if params.r == 0:
                assert params.e * mb.alpha == mb.gamma
            else:
                assert params.e * mb.alpha > mb.gamma


def test_msmr_collapses_to_file_size_when_k_le_e():
    pt = msmr_point(SystemParams(1, 10, 3, 5, 4))
    assert pt.gamma == 1 and pt.alpha == F(1, 3)
    with pytest.raises(ValueError):
        mbmr_point(SystemParams(1, 10, 3, 5, 4))


def test_reduction_to_single_failure_in_alpha_beta_space():
    for k, d, e in [(4, 4, 2), (6, 9, 3), (8, 10, 2), (6, 6, 2), (9, 12, 3)]:
        if k % e or d % e:
            continue
        params = SystemParams(1, d + e, k, d, e)
        reduced = SystemParams(F(1, e), d // e + 1, k // e, d // e, 1)
        orig = [(p.alpha, p.gamma / d) for p in tradeoff_curve(params)]
        red = [(p.alpha, p.gamma / (d // e)) for p in tradeoff_curve(reduced)]
        assert orig == red


def test_mbcr_on_curve_iff_k_is_one_mod_e():
    for params in grid_params():
        if not 1 < params.e <= params.k:
            continue
        point, on = mbcr_check(params)
        assert on == (params.k % params.e == 1)
        # predicted storage gap at the cooperative bandwidth
        gap = params.M * F(params.r - 1, params.k * (2 * params.d - params.k + params.e))
        if params.r >= 1:
            assert point.alpha - alpha_star(params, point.gamma) == gap


def test_batched_repair_never_beaten_by_singles():
    for params in grid_params(kmax=6, dmax=9):
        if params.e < 2:
            continue
        single = SystemParams(params.M, params.n, params.k, params.d, 1)
        for pt in tradeoff_curve(params):
            ge = gamma_min_for_alpha(params, pt.alpha)
            g1 = gamma_min_for_alpha(single, pt.alpha)
            assert ge < params.e * g1


def test_compare_strategies_frozen_ratio_and_shape():
    rep = compare_strategies(SystemParams(1, 12, 7, 9, 3))
    assert isinstance(rep, ComparisonReport)
    assert rep.msmr_ratio == F(7, 9)
    for row in rep.rows:
        assert row.gamma_centralized < row.gamma_separate
    rep1 = compare_strategies(SystemParams(1, 11, 7, 9, 1))
    assert rep1.msmr_ratio == 1
    for row in rep1.rows:
        assert row.gamma_centralized == row.gamma_separate == row.gamma_centralized_fewer


def test_compare_strategies_rows_match_gamma_min_for_alpha():
    for params in grid_params(kmax=6, dmax=9):
        e = params.e
        single = SystemParams(params.M, params.n, params.k, params.d, 1)
        fewer = None
        if params.d - e + 1 >= params.k:
            fewer = SystemParams(params.M, max(params.n, params.d + 1), params.k, params.d - e + 1, e)
        rep = compare_strategies(params)
        assert rep.rows
        for row in rep.rows:
            assert row.gamma_centralized == gamma_min_for_alpha(params, row.alpha)
            assert row.gamma_separate == e * gamma_min_for_alpha(single, row.alpha)
            want = gamma_min_for_alpha(fewer, row.alpha) if fewer else None
            assert row.gamma_centralized_fewer == want


@st.composite
def params_and_alphas(draw):
    """Random params with alphas at every breakpoint of the three curves
    compare_strategies reads, halfway between them, at M/k, past the top
    breakpoint, just below M/k, and drawn at random."""
    k = draw(st.integers(1, 20))
    e = draw(st.integers(1, 8))
    d = draw(st.integers(k, k + 8))
    n = d + e + draw(st.integers(0, 3))
    M = F(draw(st.integers(1, 10**6)), draw(st.integers(1, 1000)))
    params = SystemParams(M, n, k, d, e)
    single = SystemParams(M, n, k, d, 1)
    curves = [params, single] + ([SystemParams(M, n, k, d - e + 1, e)] if d - e + 1 >= k else [])
    points = sorted({a for p in curves for a in ref.curve_alphas(p, ref.segments(p))})
    alphas = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
    alphas += [points[-1] * 2, M / k - F(1, 10**9)]
    alphas += [M / k + F(draw(st.integers(0, 10**6)), draw(st.integers(1, 10**4))) for _ in range(4)]
    return params, single, curves, alphas


@settings(max_examples=100, deadline=None)
@given(params_and_alphas())
def test_bisected_gamma_min_matches_linear_scan(case):
    params, single, curves, alphas = case
    report = compare_strategies(params)
    rows, ratio = ref.compare_strategies(params)
    assert [(r.alpha, r.gamma_centralized, r.gamma_separate, r.gamma_centralized_fewer) for r in report.rows] == rows
    assert report.msmr_ratio == ratio
    assert [pt.alpha for pt in tradeoff_curve(params)] == ref.curve_alphas(params, ref.segments(params))
    fewer = curves[2] if len(curves) == 3 else None
    explicit = [a for a in alphas if a >= params.M / params.k]
    want = [
        (
            alpha,
            ref.gamma_min_for_alpha(params, alpha),
            params.e * ref.gamma_min_for_alpha(single, alpha),
            ref.gamma_min_for_alpha(fewer, alpha) if fewer else None,
        )
        for alpha in explicit
    ]
    report = compare_strategies(params, explicit)
    assert [(r.alpha, r.gamma_centralized, r.gamma_separate, r.gamma_centralized_fewer) for r in report.rows] == want
    assert report.msmr_ratio == ratio
    for p in (params, single):
        for alpha in alphas:
            try:
                want = ref.gamma_min_for_alpha(p, alpha)
            except ValueError:
                with pytest.raises(ValueError):
                    gamma_min_for_alpha(p, alpha)
                continue
            assert gamma_min_for_alpha(p, alpha) == want


def test_compare_strategies_checks_the_msmr_ratio_without_assert(monkeypatch):
    from regenrepair import tradeoff

    real = tradeoff._gamma_min

    def skewed(params, segs, alpha):
        gamma = real(params, segs, alpha)
        return 2 * gamma if params.e == 1 else gamma

    monkeypatch.setattr(tradeoff, "_gamma_min", skewed)
    with pytest.raises(ArithmeticError):
        compare_strategies(SystemParams(1, 12, 7, 9, 3))


def test_compare_strategies_walks_instead_of_bisecting(monkeypatch):
    # the rows come from one walk per curve; only the MSMR ratio's two
    # gamma_min reads may go through the bisecting query
    from regenrepair import tradeoff

    calls = []
    real = tradeoff._gamma_min

    def counted(params, segs, alpha):
        calls.append(alpha)
        return real(params, segs, alpha)

    monkeypatch.setattr(tradeoff, "_gamma_min", counted)
    report = compare_strategies(SystemParams(300, 23, 18, 20, 2))
    assert len(report.rows) > 2
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(300, 23, 18, 20, 2),  # eta = 9, r = 0
        SystemParams(F(600), 14, 7, 10, 3),  # eta = 2, r = 1
        SystemParams(1, 12, 6, 9, 3),  # eta = 2, r = 0: one piece
        SystemParams(7, 11, 5, 6, 4),  # eta = 1, r = 1: one piece
        SystemParams(5, 8, 3, 5, 3),  # k <= e: no piece
    ],
)
def test_segments_evaluate_each_breakpoint_once(monkeypatch, params):
    """Each piece starts where the one before ends, so _f runs eta times
    per build, not twice at every interior breakpoint, and the pieces are
    the reference's."""
    from regenrepair import tradeoff

    calls = []
    real = tradeoff._f

    def counted(p, i):
        calls.append(i)
        return real(p, i)

    monkeypatch.setattr(tradeoff, "_f", counted)
    segs = tradeoff._segments(params)
    assert segs.pieces == ref.segments(params)
    assert segs.alphas == ref.curve_alphas(params, ref.segments(params))
    assert sorted(calls) == (list(range(params.eta)) if params.k > params.e else [])


def test_rational_inputs_are_checked_at_the_boundary():
    """Every rational argument takes an int, a Fraction or a string Fraction
    parses, and refuses floats, bools and anything else with ValueError,
    where a float once slipped in as its binary value and a bool as 0 or 1."""
    assert SystemParams("25/2", 12, 4, 6, 2) == SystemParams(F(25, 2), 12, 4, 6, 2)
    for bad in (0.1, 12.0, True, None, "twelve", "1/0", [12]):
        with pytest.raises(ValueError, match="file size M must be"):
            SystemParams(bad, 10, 4, 6, 2)
    p = SystemParams(12, 10, 4, 6, 2)
    for bad in (float("inf"), 8.0, True, None, "eight"):
        with pytest.raises(ValueError):
            alpha_star(p, bad)
        with pytest.raises(ValueError):
            gamma_min_for_alpha(p, bad)
        for call in (min_cut_oracle, optimal_scenario):
            with pytest.raises(ValueError):
                call(p, bad, 1)
            with pytest.raises(ValueError):
                call(p, 1, bad)
        with pytest.raises(ValueError):
            cut_value((2, 2), bad, 1, 6)
        with pytest.raises(ValueError):
            cut_value((2, 2), 1, bad, 6)
        with pytest.raises(ValueError):
            compare_strategies(p, [4, bad])
    for bad in (6.0, True, "6", F(6)):
        with pytest.raises(ValueError, match="d must be an int"):
            cut_value((2, 2), 1, 1, bad)
    for bad in ("34", b"34", 5, F(5)):
        with pytest.raises(ValueError, match="alphas must be an iterable"):
            compare_strategies(p, bad)
    # strings convert to the same values as the Fractions they name
    assert alpha_star(p, "15/2") == alpha_star(p, F(15, 2))
    assert gamma_min_for_alpha(p, "7/2") == gamma_min_for_alpha(p, F(7, 2))
    assert min_cut_oracle(p, "3/2", " 1 ") == min_cut_oracle(p, F(3, 2), 1)
    assert optimal_scenario(p, "3/2", 1) == optimal_scenario(p, F(3, 2), 1)
    assert cut_value((2, 2), "1/2", 1, 6) == cut_value((2, 2), F(1, 2), 1, 6)
    assert compare_strategies(p, ["7/2", 4]).rows == compare_strategies(p, [F(7, 2), 4]).rows


def test_an_analysis_builds_each_piece_table_once(monkeypatch):
    """The design analysis on one params object builds three piece tables:
    its own, and the single-failure and fewer-helper ones of the comparison.
    The kept table changes no output and no eq, hash or repr."""
    from regenrepair import tradeoff

    calls = []
    real = tradeoff._f

    def counted(params, i):
        calls.append(params)
        return real(params, i)

    def analysis(params):
        return (
            tradeoff_curve(params),
            msmr_point(params),
            mbmr_point(params),
            mbcr_check(params),
            gamma_min_for_alpha(params, msmr_point(params).alpha),
            compare_strategies(params),
        )

    monkeypatch.setattr(tradeoff, "_f", counted)
    args = (F(601, 3), 18, 12, 14, 3)
    params, untouched = SystemParams(*args), SystemParams(*args)
    single, fewer = SystemParams(args[0], 18, 12, 14, 1), SystemParams(args[0], 18, 12, 12, 3)
    got = analysis(params)
    assert len(calls) == params.eta + single.eta + fewer.eta == 20
    assert [p for p in calls if p is params] == [params] * params.eta
    assert got == analysis(SystemParams(*args))
    assert params == untouched and hash(params) == hash(untouched) and repr(params) == repr(untouched)


def test_compare_strategies_explicit_alphas_keep_the_callers_order():
    params = SystemParams(F(600), 14, 7, 10, 3)
    single = SystemParams(params.M, params.n, 7, 10, 1)
    fewer = SystemParams(params.M, params.n, 7, 8, 3)
    floor = params.M / 7
    top = tradeoff_curve(params)[0].alpha
    alphas = [top * 3, floor, F(1717, 17), floor, "201/2", 2 * floor, top, floor + F(1, 7), top * 3]
    for given_alphas in (alphas, (a for a in alphas)):
        report = compare_strategies(params, given_alphas)
        assert [row.alpha for row in report.rows] == [F(a) for a in alphas]
        for alpha, row in zip(alphas, report.rows):
            alpha = F(alpha)
            assert row.gamma_centralized == ref.gamma_min_for_alpha(params, alpha)
            assert row.gamma_separate == 3 * ref.gamma_min_for_alpha(single, alpha)
            assert row.gamma_centralized_fewer == ref.gamma_min_for_alpha(fewer, alpha)
        assert report.msmr_ratio == compare_strategies(params).msmr_ratio
    assert compare_strategies(params, []).rows == []
    # the error names the first alpha below M/k in the caller's order
    low = [floor + 1, floor - F(1, 3), floor - 1]
    with pytest.raises(ValueError) as info:
        compare_strategies(params, low)
    assert str(info.value) == "alpha=%s below M/k=%s; no gamma suffices" % (floor - F(1, 3), floor)


@pytest.mark.parametrize("k, e, d", [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5)])
def test_compare_strategies_msmr_ratio_when_e_exceeds_k(k, e, d):
    # at alpha = M/k a batch of e > k failures downloads the whole file
    params = SystemParams(10, d + e, k, d, e)
    alpha = params.M / k
    fewer = SystemParams(params.M, params.n, k, d - e + 1, e)
    single = SystemParams(params.M, params.n, k, d, 1)
    want = gamma_min_for_alpha(fewer, alpha) / (e * gamma_min_for_alpha(single, alpha))
    assert compare_strategies(params).msmr_ratio == want == F(k * (d - k + 1), e * d)


def test_compare_strategies_fewer_helper_crossover_exists():
    # one batch of 3 on 7 helpers vs three singles on 9 helpers: the batch
    # wins at minimum storage but loses for some larger alpha
    rep = compare_strategies(SystemParams(1, 12, 7, 9, 3))
    diffs = [row.gamma_centralized_fewer - row.gamma_separate for row in rep.rows]
    assert any(x < 0 for x in diffs) and any(x > 0 for x in diffs)


def test_gamma_min_for_alpha_inverts_alpha_star():
    for params in grid_params(kmax=5, dmax=8):
        for pt in tradeoff_curve(params):
            assert gamma_min_for_alpha(params, pt.alpha) == pt.gamma
        lo = gamma_mbmr(params)
        hi = msmr_point(params).gamma
        for j in range(1, 6):
            gamma = lo + (hi - lo) * F(j, 6)
            alpha = alpha_star(params, gamma)
            assert gamma_min_for_alpha(params, alpha) <= gamma
            assert alpha_star(params, gamma_min_for_alpha(params, alpha)) == alpha


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(0, 10, 4, 6, 2)
    with pytest.raises(ValueError):
        SystemParams(1, 10, 11, 6, 2)
    with pytest.raises(ValueError):
        SystemParams(1, 10, 4, 9, 2)  # d > n-e
    with pytest.raises(ValueError):
        SystemParams(1, 10, 4, 6, 7)  # e > n-k
    # sizes that are not ints constructed and then died in the curve, the
    # MSMR point and the oracle with TypeError; a bool would pass for 0 or 1
    SystemParams(10, 8, 3, 4, 1)
    for bad in (3.5, 4.0, "4", True, F(4)):
        for at in range(4):
            sizes = [8, 3, 4, 1]
            sizes[at] = bad
            with pytest.raises(ValueError, match="must be ints"):
                SystemParams(10, *sizes)
    with pytest.raises(InvalidScenarioError):
        Scenario((2, 0, 1))


def test_scenario_permutation_changes_cut_but_not_validity():
    # the cut is order-sensitive: residual-last costs at least residual-first
    p = SystemParams(1, 13, 8, 10, 3)
    a, b = F(3), F(1)
    assert cut_value((2, 3, 3), a, b, 10) <= cut_value((3, 3, 2), a, b, 10)
