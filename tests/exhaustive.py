"""Exhaustive min-cut oracle: the reference the DP in tradeoff is tested against.

Walks every composition u of k into parts of size at most e in
lexicographic order, with denominators cleared so the inner loop runs on
ints, and prunes a composition once its running sum reaches the best
total so far. Strict improvement keeps the first, lexicographically
smallest, minimiser. About 1.9^k compositions at e = 4: tests only.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm


@lru_cache(maxsize=None)
def compositions(k, emax):
    """Compositions of k with parts in 1..emax, lexicographic, each with the
    prefix sum before every part."""
    out = []

    def rec(remaining, acc):
        if remaining == 0:
            pref = []
            s = 0
            for x in acc:
                pref.append(s)
                s += x
            out.append((acc, tuple(pref)))
            return
        for part in range(1, min(emax, remaining) + 1):
            rec(remaining - part, acc + (part,))

    rec(k, ())
    return tuple(out)


def exhaustive_min_cut(params, alpha, beta):
    """(value, u) of the least cut over all scenarios; ties go to the
    lexicographically smallest u."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    den = lcm(alpha.denominator, beta.denominator)
    a = int(alpha * den)
    b = int(beta * den)
    d = params.d
    best = None
    best_u = None
    for u, pref in compositions(params.k, min(params.e, params.k)):
        acc = 0
        pruned = False
        for ui, pi in zip(u, pref):
            x = ui * a
            y = (d - pi) * b
            acc += x if x < y else y
            if best is not None and acc >= best:
                pruned = True
                break
        if not pruned and (best is None or acc < best):
            best = acc
            best_u = u
    return Fraction(best, den), best_u
