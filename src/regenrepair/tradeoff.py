"""Exact storage-bandwidth tradeoff for centralized repair of e node failures.

A data collector must recover a file of size M from any k of n nodes, each
storing alpha symbols, after any sequence of repairs in which a central node
rebuilds batches of e failed nodes by downloading beta symbols from each of
d helpers (gamma = d*beta per batch). Feasibility is governed by the minimum
cut over repair scenarios u = composition of k into parts of size <= e. The
results are exact, no floats: every rational argument (M, alpha, beta,
gamma) passes one conversion at the boundary, which takes an int, a Fraction
or a string Fraction parses and refuses floats and bools with ValueError,
and every params argument that is not a SystemParams is refused with
ValueError too.

The curve alpha*(gamma) is a table of linear pieces (_segments), built on
first use and kept with its SystemParams object, so the curve, alpha*,
the MBCR check, the inverse gamma_min_for_alpha and the comparison's rows
on one params object share one build. Its formulas are integer ratios in
M's numerator and denominator (docs/tradeoff-pieces.md), so each value is
computed and compared on integers and made a Fraction once, as a value
returned or kept in the table, never for an intermediate step.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

# an int (not a bool), a Fraction, or a string Fraction parses, e.g. "25/2"
RationalLike = Fraction | int | str


class InfeasibleBandwidthError(ValueError):
    """Requested gamma is below the minimum-bandwidth point."""


class InvalidScenarioError(ValueError):
    """Scenario vector violates its constraints."""


def _rational(value, name: str) -> Fraction:
    """value as a Fraction, for the RationalLike argument called name.
    The type is tested before anything is converted, so a Fraction passes
    through as it is; a float, a bool or any other type raises ValueError,
    as does a string Fraction cannot parse."""
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int or kind is str or isinstance(value, Fraction):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} must be an int, a Fraction or a fraction string, got {value!r}")


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
        object.__setattr__(self, "M", _rational(self.M, "file size M"))
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


def _system(params) -> SystemParams:
    """params itself; anything but a SystemParams raises ValueError."""
    if not isinstance(params, SystemParams):
        raise ValueError(f"params must be a SystemParams, got {params!r}")
    return params


@dataclass(frozen=True)
class Scenario:
    """Group sizes of successive repair batches feeding a data collector."""

    u: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        if not self.u or any(type(x) is not int or x < 1 for x in self.u):
            raise InvalidScenarioError(f"group sizes must be ints >= 1: {self.u}")


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
    alpha, beta = _rational(alpha, "alpha"), _rational(beta, "beta")
    if type(d) is not int:
        raise ValueError(f"d must be an int, got {d!r}")
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
    _system(params)
    alpha, beta = _rational(alpha, "alpha"), _rational(beta, "beta")
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
    when alpha <= (d + eta*r - eta*e)*beta/r (ties keep the r-first form).
    A negative alpha or beta raises InvalidScenarioError."""
    k, e, d = _system(params).k, params.e, params.d
    alpha, beta = _rational(alpha, "alpha"), _rational(beta, "beta")
    if alpha < 0 or beta < 0:
        raise InvalidScenarioError("alpha and beta must be nonnegative")
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
    """Bandwidth at which the optimal alpha leaves linear piece i:
    gamma_i = 2*e*d*M/den_i (docs/tradeoff-pieces.md), one Fraction over
    M's numerator and denominator."""
    M, k, d, e, r = params.M, params.k, params.d, params.e, params.r
    den = -k * k - r * r + e * (k - r) + 2 * k * d - e * e * (i * i + i) - 2 * i * e * r
    return Fraction(2 * e * d * M.numerator, den * M.denominator)


def _g(params: SystemParams, i: int) -> Fraction:
    """Slope of linear piece i: alpha* = (M - gamma*g)/(r + i*e) on it."""
    eta, e, d, r = params.eta, params.e, params.d, params.r
    return Fraction((eta - i) * (-2 * r + e + 2 * d - eta * e - e * i), 2 * d)


def gamma_mbmr(params: SystemParams) -> Fraction:
    """Minimum feasible repair bandwidth (gamma at the MBMR point):
    d*M/(d*h - e*C(h, 2)) with h = ceil(k/e) groups, or M when k <= e."""
    M, k, d, e = _system(params).M, params.k, params.d, params.e
    if k <= e:
        return M
    h = params.eta + (params.r > 0)
    return Fraction(d * M.numerator, (d * h - e * (h * (h - 1) // 2)) * M.denominator)


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
    breakpoint, so that a query walks the breakpoints (_walk) instead of
    rescanning the pieces. Each breakpoint's alpha, (M - gamma*g)/den, is
    one Fraction built from the numerators and denominators of M, gamma
    and g (docs/tradeoff-pieces.md gives it in closed form).

    Built on first use and kept with params, written past the frozen
    dataclass as __post_init__ writes M: every later query on the same
    object reads it. It is no field, so eq, hash and repr ignore it, and
    an equal params object builds its own."""
    segs = params.__dict__.get("_segments")
    if segs is not None:
        return segs
    M, k, e = params.M, params.k, params.e
    Mn, Md = M.numerator, M.denominator
    if k <= e:
        segs = _Segments([], [M], [Fraction(Mn, Md * k)])
    else:
        eta, r = params.eta, params.r
        pieces = []
        # each piece starts where the one before ends, so _f runs once per
        # breakpoint, eta times in all
        lo = _f(params, 0)
        if r:
            pieces.append((gamma_mbmr(params), lo, _g(params, 0), r))
        for i in range(1, eta):  # eta >= 2 when r == 0 (eta == 1 would mean k == e)
            hi = _f(params, i)
            pieces.append((lo, hi, _g(params, i), r + i * e))
            lo = hi
        lo0, _, g0, den0 = pieces[0]
        gammas, alphas = [], []
        for gamma, g, den in [(lo0, g0, den0)] + [(hi, g, den) for _, hi, g, den in pieces]:
            gd = gamma.denominator * g.denominator
            gammas.append(gamma)
            alphas.append(Fraction(Mn * gd - gamma.numerator * g.numerator * Md, Md * gd * den))
        segs = _Segments(pieces, gammas, alphas)
    object.__setattr__(params, "_segments", segs)
    return segs


def alpha_star(params: SystemParams, gamma: RationalLike) -> Fraction:
    """Minimum per-node storage supporting file size M at bandwidth gamma.
    gamma's piece is found by cross-multiplying it with the breakpoints,
    and alpha* = (M - gamma*g)/den (docs/tradeoff-pieces.md) is built as
    one Fraction from the integer parts of M, gamma and g."""
    segs = _segments(_system(params))
    gamma = _rational(gamma, "gamma")
    gn, gd = gamma.numerator, gamma.denominator
    floor = segs.gammas[0]
    if gn * floor.denominator < floor.numerator * gd:
        raise InfeasibleBandwidthError(
            f"gamma={gamma} below minimum feasible bandwidth {floor}"
        )
    M = params.M
    for _, hi, g, den in segs.pieces:
        if gn * hi.denominator <= hi.numerator * gd:
            gd *= g.denominator
            return Fraction(M.numerator * gd - gn * g.numerator * M.denominator, M.denominator * gd * den)
    return segs.alphas[-1]


def tradeoff_curve(params: SystemParams) -> list[CurvePoint]:
    """Breakpoints of alpha*(gamma), gamma ascending; the function is
    linear between consecutive rows and flat at M/k after the last."""
    segs = _segments(_system(params))
    return [CurvePoint(g, a, t) for t, (g, a) in enumerate(zip(segs.gammas, segs.alphas))]


def gamma_min_for_alpha(params: SystemParams, alpha: RationalLike) -> Fraction:
    """Least feasible gamma at per-node storage alpha (inverse threshold):
    alpha over the breakpoints' common denominator, walked as
    compare_strategies walks its alphas (_walk)."""
    segs = _segments(_system(params))
    alpha, floor = _rational(alpha, "alpha"), segs.alphas[-1]
    if alpha.numerator * floor.denominator < floor.numerator * alpha.denominator:
        raise ValueError(f"alpha={alpha} below M/k={floor}; no gamma suffices")
    den = lcm(alpha.denominator, *(a.denominator for a in segs.alphas))
    return _walk(segs, params.M, 1, den, [alpha.numerator * (den // alpha.denominator)])[0]


# -- named operating points ------------------------------------------


def msmr_point(params: SystemParams) -> TradeoffPoint:
    """Minimum-storage end of the curve: alpha = M/k and, for k > e,
    gamma = e*d*M/(k*(d - k + e))."""
    M, k, d, e = _system(params).M, params.k, params.d, params.e
    Mn, Md = M.numerator, M.denominator
    alpha = Fraction(Mn, Md * k)
    if k <= e:
        return TradeoffPoint(alpha, Fraction(Mn, Md * d), M)
    den = Md * k * (d - k + e)
    return TradeoffPoint(alpha, Fraction(Mn * e, den), Fraction(Mn * e * d, den))


def mbmr_point(params: SystemParams) -> TradeoffPoint:
    """Minimum-bandwidth end of the curve (defined for e < k)."""
    k, d, e = _system(params).k, params.d, params.e
    if not e < k:
        raise ValueError("minimum-bandwidth point needs e < k")
    eta, r = params.eta, params.r
    gamma = gamma_mbmr(params)
    gn, gd = gamma.numerator, gamma.denominator
    if r == 0:
        alpha = Fraction(gn, gd * e)
    else:
        alpha = Fraction(gn * (d + eta * r - e * eta), gd * r * d)
    return TradeoffPoint(alpha, Fraction(gn, gd * d), gamma)


def mbcr_check(params: SystemParams) -> tuple[TradeoffPoint, bool]:
    """Cooperative minimum-bandwidth point and whether it lies on the
    centralized tradeoff (it does exactly when k = 1 mod e)."""
    M, k, d, e = _system(params).M, params.k, params.d, params.e
    if not 1 < e <= k:
        raise ValueError("comparison point needs 1 < e <= k")
    den = k * (2 * d - k + e) * M.denominator
    alpha = Fraction((2 * d + e - 1) * M.numerator, den)
    gamma = Fraction(2 * d * e * M.numerator, den)
    on_curve = alpha_star(params, gamma) == alpha
    return TradeoffPoint(alpha, Fraction(2 * e * M.numerator, den), gamma), on_curve


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
    both strategies contact d+1-e survivors; it needs d-e+1 >= k.

    By default the rows are every breakpoint alpha of the three curves and
    the midpoint of each gap between them, alpha ascending; explicit alphas,
    an iterable of RationalLike, keep the caller's order, and one below M/k,
    or alphas given as a string or a non-iterable, raise ValueError. Either
    way the alphas are put over one common denominator and merged, deduped
    and sorted as integer numerators, never as Fractions, so each curve is
    walked once from M/k toward its MBMR end, and each entry is an integer
    numerator over its piece's denominator (docs/tradeoff-pieces.md);
    nothing bisects, and a Fraction is built only for a row's values and
    the ratio."""
    M, n, k, d, e = _system(params).M, params.n, params.k, params.d, params.e
    single = SystemParams(M, n, k, d, 1)
    curves = [(_segments(params), 1), (_segments(single), e)]
    fewer = None
    if d - e + 1 >= k:
        fewer = SystemParams(M, max(n, d - e + 1 + e), k, d - e + 1, e)
        curves.append((_segments(fewer), 1))
    points = [a for segs, _ in curves for a in segs.alphas]
    if alphas is None:
        # twice the lcm, so that every midpoint is an integer too
        den = 2 * lcm(*(a.denominator for a in points))
        ends = sorted({a.numerator * (den // a.denominator) for a in points})
        nums = [x for a, b in zip(ends, ends[1:]) for x in (a, (a + b) // 2)] + ends[-1:]
        values = [Fraction(x, den) for x in nums]
        order = range(len(nums))
    else:
        if isinstance(alphas, (str, bytes)) or not isinstance(alphas, Iterable):
            raise ValueError(f"alphas must be an iterable of alphas, got {alphas!r}")
        Mn, Mdk = M.numerator, M.denominator * k
        values = []
        for alpha in alphas:
            alpha = _rational(alpha, "alpha")
            if alpha.numerator * Mdk < Mn * alpha.denominator:
                raise ValueError(f"alpha={alpha} below M/k={Fraction(Mn, Mdk)}; no gamma suffices")
            values.append(alpha)
        den = lcm(*(a.denominator for a in points), *(a.denominator for a in values))
        given = [a.numerator * (den // a.denominator) for a in values]
        order = sorted(range(len(given)), key=given.__getitem__)
        nums = [given[i] for i in order]
    columns = [_walk(segs, M, scale, den, nums) for segs, scale in curves]
    if not fewer:
        columns.append([None] * len(nums))
    rows = [None] * len(nums)
    for i, g_cent, g_sep, g_few in zip(order, *columns):
        rows[i] = ComparisonRow(values[i], g_cent, g_sep, g_few)
    ratio = None
    if fewer:
        # gamma_min at alpha = M/k is each curve's last breakpoint
        few, sep = curves[2][0].gammas[-1], curves[1][0].gammas[-1]
        ratio = Fraction(few.numerator * sep.denominator, few.denominator * e * sep.numerator)
        # at alpha = M/k a batch of e >= k failures downloads the whole file M
        if e <= k:
            expected, form = Fraction(d - e + 1, d), "(d-e+1)/d"
        else:
            expected, form = Fraction(k * (d - k + 1), e * d), "k(d-k+1)/(e*d)"
        if ratio != expected:
            raise ArithmeticError("MSMR ratio %s differs from %s = %s" % (ratio, form, expected))
    return ComparisonReport(params, rows, ratio)


def _walk(segs: _Segments, M: Fraction, scale: int, den: int, nums: list[int]) -> list[Fraction]:
    """scale * gamma_min_for_alpha at each alpha = x/den for x in nums,
    which rise and are none below M/k. Entry s is the flat top (s = 0) or
    the piece ending at breakpoint s, as (p, q, r) with gamma =
    (p - q*x)/r, so one pointer moves down the breakpoints as alpha rises."""
    ends = [a.numerator * (den // a.denominator) for a in segs.alphas]
    top = segs.gammas[0]
    entries = [(scale * top.numerator, 0, top.denominator)]
    for _, _, g, d in segs.pieces:
        # (M - d*x/den)/g with M = Mn/Md and g = gn/gd
        c = scale * g.denominator
        entries.append((c * M.numerator * den, c * d * M.denominator, M.denominator * den * g.numerator))
    s = len(ends) - 1
    out = []
    for x in nums:
        while s and ends[s - 1] <= x:
            s -= 1
        p, q, r = entries[s]
        out.append(Fraction(p - q * x, r))
    return out
