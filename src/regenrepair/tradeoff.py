"""Exact storage-bandwidth tradeoff for centralized repair of e node failures.

A data collector must recover a file of size M from any k of n nodes, each
storing alpha symbols, after any sequence of repairs in which a central node
rebuilds batches of e failed nodes by downloading beta symbols from each of
d helpers (gamma = d*beta per batch). Feasibility is governed by the minimum
cut over repair scenarios u = composition of k into parts of size <= e; all
arithmetic here is exact rational (fractions.Fraction), no floats.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import neg
from typing import NamedTuple

RationalLike = Fraction | int


class InfeasibleBandwidthError(ValueError):
    """Requested gamma is below the minimum-bandwidth point."""


class InvalidScenarioError(ValueError):
    """Scenario vector violates its constraints."""


@dataclass(frozen=True)
class SystemParams:
    M: Fraction
    n: int
    k: int
    d: int
    e: int

    def __post_init__(self):
        if any(type(x) is not int for x in (self.n, self.k, self.d, self.e)):
            raise ValueError(f"n, k, d and e must be ints, got {self.n!r}, {self.k!r}, {self.d!r}, {self.e!r}")
        object.__setattr__(self, "M", Fraction(self.M))
        if self.M <= 0:
            raise ValueError("file size M must be positive")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 1 <= self.e <= self.n - self.k:
            raise ValueError(f"need 1 <= e <= n-k, got e={self.e}")
        if not self.k <= self.d <= self.n - self.e:
            raise ValueError(f"need k <= d <= n-e, got d={self.d}")

    @property
    def eta(self) -> int:
        return self.k // self.e

    @property
    def r(self) -> int:
        return self.k % self.e


@dataclass(frozen=True)
class Scenario:
    """Group sizes of successive repair batches feeding a data collector."""

    u: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        if not self.u or any(x < 1 for x in self.u):
            raise InvalidScenarioError(f"group sizes must be >= 1: {self.u}")

    @property
    def groups(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class TradeoffPoint:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction


@dataclass(frozen=True)
class CurvePoint:
    gamma: Fraction
    alpha: Fraction
    segment: int


def cut_value(u, alpha: RationalLike, beta: RationalLike, d: int) -> Fraction:
    """Min-cut bound sum(min(u_i*alpha, (d - used)*beta)) for scenario u."""
    u = u.u if isinstance(u, Scenario) else tuple(u)
    Scenario(u)  # validates group sizes
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha < 0 or beta < 0:
        raise InvalidScenarioError("alpha and beta must be nonnegative")
    if sum(u) > d:
        raise InvalidScenarioError(f"sum(u)={sum(u)} exceeds d={d}")
    total = Fraction(0)
    used = 0
    for ui in u:
        total += min(ui * alpha, (d - used) * beta)
        used += ui
    return total


def min_cut_oracle(params: SystemParams, alpha: RationalLike, beta: RationalLike):
    """Exact minimum cut over all scenarios; ties resolve to the
    lexicographically smallest u. Returns (value, Scenario).

    A backward DP over the prefix sum p of u: V(k) = 0 and V(p) = min over
    the next part x <= min(e, k-p) of min(x*alpha, (d-p)*beta) + V(p+x).
    Taking the smallest attaining x at each p on the way forward yields
    the lexicographically smallest minimiser. O(k*e) integer steps:
    denominators are cleared up front and restored on the way out.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha < 0 or beta < 0:
        raise InvalidScenarioError("alpha and beta must be nonnegative")
    den = lcm(alpha.denominator, beta.denominator)
    a = int(alpha * den)
    b = int(beta * den)
    k, d, e = params.k, params.d, params.e
    value = [0] * (k + 1)
    step = [0] * (k + 1)
    for p in range(k - 1, -1, -1):
        y = (d - p) * b
        best = None
        for x in range(1, min(e, k - p) + 1):
            xa = x * a
            acc = (xa if xa < y else y) + value[p + x]
            if best is None or acc < best:
                best, step[p] = acc, x
        value[p] = best
    u = []
    p = 0
    while p < k:
        u.append(step[p])
        p += step[p]
    return Fraction(value[0], den), Scenario(u)


def optimal_scenario(params: SystemParams, alpha: RationalLike, beta: RationalLike) -> Scenario:
    """Closed-form minimizing scenario. The residual group r goes first
    when alpha <= (d + eta*r - eta*e)*beta/r (ties keep the r-first form)."""
    k, e, d = params.k, params.e, params.d
    alpha, beta = Fraction(alpha), Fraction(beta)
    if k <= e:
        return Scenario((k,))
    eta, r = params.eta, params.r
    if r == 0:
        return Scenario((e,) * eta)
    alpha_c = Fraction(d + eta * r - eta * e, r) * beta
    if alpha <= alpha_c:
        return Scenario((r,) + (e,) * eta)
    return Scenario((e,) * eta + (r,))


# -- threshold function and curve ------------------------------------


def _f(params: SystemParams, i: int) -> Fraction:
    """Bandwidth at which the optimal alpha leaves linear piece i."""
    M, k, d, e, r = params.M, params.k, params.d, params.e, params.r
    den = -k * k - r * r + e * (k - r) + 2 * k * d - e * e * (i * i + i) - 2 * i * e * r
    return Fraction(2 * e * d, den) * M


def _g(params: SystemParams, i: int) -> Fraction:
    eta, e, d, r = params.eta, params.e, params.d, params.r
    return Fraction((eta - i) * (-2 * r + e + 2 * d - eta * e - e * i), 2 * d)


def gamma_mbmr(params: SystemParams) -> Fraction:
    """Minimum feasible repair bandwidth (gamma at the MBMR point)."""
    M, k, d, e = params.M, params.k, params.d, params.e
    if k <= e:
        return Fraction(M)
    eta, r = params.eta, params.r
    if r == 0:
        return Fraction(d, d * eta - e * (eta * (eta - 1) // 2)) * M
    h = eta + 1
    return Fraction(d, d * h - e * (h * (h - 1) // 2)) * M


class _Segments(NamedTuple):
    """The linear pieces of alpha*(gamma) and its breakpoints.

    pieces holds (gamma_lo, gamma_hi, g_coef, den) with
    alpha*(gamma) = (M - gamma*g_coef)/den on [gamma_lo, gamma_hi], gamma
    ascending; it is empty in the single-point regime k <= e. gammas and
    alphas are the breakpoints: gamma_lo of the first piece, then gamma_hi
    of each, with alpha* there (M and M/k alone when there is no piece).
    gammas rise, alphas fall, and the last alpha is M/k.
    """

    pieces: list[tuple[Fraction, Fraction, Fraction, int]]
    gammas: list[Fraction]
    alphas: list[Fraction]


def _segments(params: SystemParams) -> _Segments:
    """The pieces of alpha*(gamma) with alpha* computed once at every
    breakpoint, so that a query bisects instead of rescanning the pieces."""
    M, k, e = params.M, params.k, params.e
    if k <= e:
        return _Segments([], [Fraction(M)], [M / Fraction(k)])
    eta, r = params.eta, params.r
    pieces = []
    if r == 0:
        # eta >= 2 here (eta == 1 would mean k == e)
        for i in range(1, eta):
            pieces.append((_f(params, i - 1), _f(params, i), _g(params, i), i * e))
    else:
        pieces.append((gamma_mbmr(params), _f(params, 0), _g(params, 0), r))
        for i in range(1, eta):
            pieces.append((_f(params, i - 1), _f(params, i), _g(params, i), r + i * e))
    lo0, _, g0, den0 = pieces[0]
    gammas = [lo0] + [hi for _, hi, _, _ in pieces]
    alphas = [(M - lo0 * g0) / den0] + [(M - hi * g) / den for _, hi, g, den in pieces]
    return _Segments(pieces, gammas, alphas)


def alpha_star(params: SystemParams, gamma: RationalLike) -> Fraction:
    """Minimum per-node storage supporting file size M at bandwidth gamma."""
    gamma = Fraction(gamma)
    M, k = params.M, params.k
    floor = gamma_mbmr(params)
    if gamma < floor:
        raise InfeasibleBandwidthError(
            f"gamma={gamma} below minimum feasible bandwidth {floor}"
        )
    for lo, hi, g, den in _segments(params).pieces:
        if gamma <= hi:
            return (M - gamma * g) / den
    return M / Fraction(k)


def tradeoff_curve(params: SystemParams) -> list[CurvePoint]:
    """Breakpoints of alpha*(gamma), gamma ascending; the function is
    linear between consecutive rows and flat at M/k after the last."""
    segs = _segments(params)
    return [CurvePoint(g, a, t) for t, (g, a) in enumerate(zip(segs.gammas, segs.alphas))]


def gamma_min_for_alpha(params: SystemParams, alpha: RationalLike) -> Fraction:
    """Least feasible gamma at per-node storage alpha (inverse threshold)."""
    return _gamma_min(params, _segments(params), Fraction(alpha))


def _gamma_min(params: SystemParams, segs: _Segments, alpha: Fraction) -> Fraction:
    """Least gamma with alpha*(gamma) <= alpha: the first breakpoint at or
    below alpha is found by bisection over segs.alphas (falling), and
    gamma is read off the piece that ends there."""
    alphas = segs.alphas
    if alpha < alphas[-1]:
        M, k = params.M, params.k
        raise ValueError(f"alpha={alpha} below M/k={M / Fraction(k)}; no gamma suffices")
    if alpha >= alphas[0]:
        return segs.gammas[0]
    t = bisect_left(alphas, -alpha, 1, key=neg)
    _, _, g, den = segs.pieces[t - 1]
    return (params.M - den * alpha) / g


# -- named operating points ------------------------------------------


def msmr_point(params: SystemParams) -> TradeoffPoint:
    """Minimum-storage end of the curve."""
    M, k, d, e = params.M, params.k, params.d, params.e
    alpha = M / Fraction(k)
    if k <= e:
        return TradeoffPoint(alpha, M / Fraction(d), Fraction(M))
    gamma = alpha * Fraction(e * d, d - k + e)
    return TradeoffPoint(alpha, gamma / d, gamma)


def mbmr_point(params: SystemParams) -> TradeoffPoint:
    """Minimum-bandwidth end of the curve (defined for e < k)."""
    M, k, d, e = params.M, params.k, params.d, params.e
    if not params.e < params.k:
        raise ValueError("minimum-bandwidth point needs e < k")
    eta, r = params.eta, params.r
    gamma = gamma_mbmr(params)
    if r == 0:
        alpha = gamma / e
    else:
        alpha = gamma * Fraction(d + eta * r - e * eta, r * d)
    return TradeoffPoint(alpha, gamma / d, gamma)


def mbcr_check(params: SystemParams) -> tuple[TradeoffPoint, bool]:
    """Cooperative minimum-bandwidth point and whether it lies on the
    centralized tradeoff (it does exactly when k = 1 mod e)."""
    M, k, d, e = params.M, params.k, params.d, params.e
    if not 1 < e <= k:
        raise ValueError("comparison point needs 1 < e <= k")
    den = k * (2 * d - k + e)
    alpha = Fraction(2 * d + e - 1, den) * M
    gamma = Fraction(2 * d * e, den) * M
    on_curve = alpha_star(params, gamma) == alpha
    return TradeoffPoint(alpha, gamma / d, gamma), on_curve


# -- centralized vs one-by-one repair --------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    alpha: Fraction
    gamma_centralized: Fraction          # e failures in one batch, d helpers
    gamma_separate: Fraction             # e single repairs, d helpers each
    gamma_centralized_fewer: Fraction | None  # one batch, d-e+1 helpers


@dataclass(frozen=True)
class ComparisonReport:
    params: SystemParams
    rows: list[ComparisonRow]
    msmr_ratio: Fraction | None  # centralized-fewer / separate at alpha = M/k


def compare_strategies(params: SystemParams, alphas=None) -> ComparisonReport:
    """Exact bandwidth of batched repair vs e independent single repairs,
    tabulated per alpha. The fewer-helper column uses d-e+1 helpers so
    both strategies contact d+1-e survivors; it needs d-e+1 >= k."""
    M, n, k, d, e = params.M, params.n, params.k, params.d, params.e
    single = SystemParams(M, n, k, d, 1)
    fewer = None
    if d - e + 1 >= k:
        fewer = SystemParams(M, max(n, d - e + 1 + e), k, d - e + 1, e)
    segs = _segments(params)
    segs_single = _segments(single)
    segs_fewer = _segments(fewer) if fewer else None
    if alphas is None:
        cand = set(segs.alphas) | set(segs_single.alphas)
        if fewer:
            cand |= set(segs_fewer.alphas)
        grid = sorted(cand)
        mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        alphas = sorted(set(grid) | set(mids))
    rows = []
    for alpha in alphas:
        alpha = Fraction(alpha)
        g_cent = _gamma_min(params, segs, alpha)
        g_sep = e * _gamma_min(single, segs_single, alpha)
        g_few = _gamma_min(fewer, segs_fewer, alpha) if fewer else None
        rows.append(ComparisonRow(alpha, g_cent, g_sep, g_few))
    ratio = None
    if fewer:
        a0 = M / Fraction(k)
        ratio = _gamma_min(fewer, segs_fewer, a0) / (e * _gamma_min(single, segs_single, a0))
        # at alpha = M/k a batch of e >= k failures downloads the whole file M
        if e <= k:
            expected, form = Fraction(d - e + 1, d), "(d-e+1)/d"
        else:
            expected, form = Fraction(k * (d - k + 1), e * d), "k(d-k+1)/(e*d)"
        if ratio != expected:
            raise ArithmeticError("MSMR ratio %s differs from %s = %s" % (ratio, form, expected))
    return ComparisonReport(params, rows, ratio)
