"""Verification orchestration: golden round trips, pattern sweeps, seeded
randomness, assignment search, and CSV/JSON exports for the tradeoff curves.

Each table is written once, from dict rows, by write_csv (a Fraction or None
column as name_num,name_den) or with json_default, the JSON writers' hook
that writes a Fraction as [numerator, denominator]; no other code splits one.

Code families plug in through a small duck-typed surface: node_ids(),
random_message(rng), encode(msg) -> {node: symbols}, repair_multi(shards,
failed, helpers=None, ...) -> ({node: symbols}, transcript), descriptor().

search_assignment is the one coefficient search: PM and IA only draw
candidate codes, and one loop vets each through the family's _repairable,
condition_check's unchecked core, up to the failure limit the candidate
reads from the framework: the loop's patterns are valid by construction,
so they skip condition_check's boundary check.
"""

import contextlib
import csv
import hashlib
import itertools
import json
import random
import sys
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction

from .ambr import AdaptiveMBRCode
from .framework import SingularCouplingError, _read_ids, check_input
from .gf import Field, Matrix, all_square_submatrices_invertible
from .ia import IACode
from .mds import MDSStripeCode
from .pm import PMCode
from .tradeoff import compare_strategies, tradeoff_curve


class AssignmentNotFoundError(LookupError):
    """Search budget exhausted without a fully sweep-clean assignment."""

    def __init__(self, family, best=None, best_failures=None):
        self.family = family
        self.best = best
        self.best_failures = best_failures
        super().__init__(
            "no %s assignment found (best candidate leaves %s singular patterns)"
            % (family, best_failures)
        )


class SplitRandom:
    """Counter-mode SHA-256 stream with named substreams.

    split(label) returns an independent deterministic stream, so per-pattern
    messages do not depend on sweep order or on how many draws came before.
    A seed that is not an int, bools included, is a ValueError, as
    randrange refuses its bound, so no other value stands in for an int's
    stream.
    """

    def __init__(self, seed, path=()):
        if type(seed) is not int:
            raise ValueError("need a seed that is an int, got %r" % (seed,))
        self.seed = seed
        self.path = tuple(str(p) for p in path)
        self.counter = 0
        # draw t hashes "seed|path|t"; the prefix is hashed once per stream
        self._prefix = hashlib.sha256(("%d|%s|" % (self.seed, "/".join(self.path))).encode())

    def split(self, label):
        return SplitRandom(self.seed, self.path + (str(label),))

    def _next64(self):
        key = self._prefix.copy()
        key.update(b"%d" % self.counter)
        self.counter += 1
        return int.from_bytes(key.digest()[:8], "big")

    def randrange(self, bound):
        """A draw in 0..bound-1; a bound that is not an int >= 1, bools
        included, is a ValueError."""
        if type(bound) is not int or bound <= 0:
            raise ValueError("need a bound that is an int >= 1, got %r" % (bound,))
        return self._next64() % bound

    def sample(self, seq, count):
        """count distinct items of seq in a seeded order; a count that is
        not an int in 0..len(seq), bools included, is a ValueError."""
        pool = list(seq)
        if type(count) is not int or count < 0:
            raise ValueError("need a sample count that is an int >= 0, got %r" % (count,))
        if count > len(pool):
            raise ValueError("sample larger than population")
        for t in range(count):
            u = t + self.randrange(len(pool) - t)
            pool[t], pool[u] = pool[u], pool[t]
        return pool[:count]


@dataclass
class SweepEntry:
    pattern: tuple
    success: bool
    bandwidth: int
    singular: bool


@dataclass
class SweepReport:
    descriptor: dict
    e: int
    entries: list = dataclass_field(default_factory=list)

    @property
    def singular_patterns(self):
        return [x.pattern for x in self.entries if x.singular]

    @property
    def failed_patterns(self):
        return [x.pattern for x in self.entries if not x.success]

    @property
    def success_count(self):
        return sum(1 for x in self.entries if x.success)

    def all_ok(self):
        return all(x.success for x in self.entries)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def verify_exact_repair(code, pattern, helpers=None, rng=None, **repair_args):
    """Encode a message, erase the pattern, repair, compare bit-exactly.

    Returns (success, bandwidth, singular); a singular coupling system is a
    reported outcome, a content mismatch after a solve would be a code bug
    and also comes back as success=False. A pattern a repair would refuse
    for its ids raises InvalidRepairInputError before anything is encoded.
    """
    [pattern] = _read_ids(pattern)
    check_input(code, (), 0, (), pattern)
    pattern = tuple(sorted(pattern))
    if rng is None:
        rng = random.Random(0)
    msg = code.random_message(rng)
    shards = code.encode(msg)
    golden = {i: list(shards[i]) for i in pattern}
    lost = set(pattern)
    survivors = {i: v for i, v in shards.items() if i not in lost}
    try:
        contents, transcript = code.repair_multi(survivors, pattern, helpers, **repair_args)
    except SingularCouplingError:
        return False, 0, True
    ok = all(list(contents[i]) == golden[i] for i in pattern)
    return ok, transcript.total, False


def run_sweep(code, e, seed=0, sample=None, helpers=None, **repair_args):
    """Try every e-failure pattern (or a seeded sample) and verify repair
    from helpers, or from the default helpers when None: for PM at n > d+1
    a clean sweep vouches for those helpers only, as a pattern can repair
    from one helper set and not another. An e that is not an int in 1..n,
    or a sample that is not an int >= 1, bools included, is a ValueError."""
    if type(e) is not int or not 1 <= e <= code.n:
        raise ValueError("need 1 <= e <= n = %d failed nodes, got %r" % (code.n, e))
    if sample is not None and (type(sample) is not int or sample < 1):
        raise ValueError("need a sample of at least 1 pattern, got %r" % (sample,))
    base = SplitRandom(seed)
    patterns = list(itertools.combinations(code.node_ids(), e))
    if sample is not None and sample < len(patterns):
        chosen = sorted(base.split("patterns").sample(range(len(patterns)), sample))
        patterns = [patterns[t] for t in chosen]
    report = SweepReport(descriptor=code.descriptor(), e=e)
    for pattern in patterns:
        rng = base.split("msg-%s" % (",".join(map(str, pattern))))
        ok, bandwidth, singular = verify_exact_repair(
            code, pattern, helpers=helpers, rng=rng, **repair_args
        )
        report.entries.append(SweepEntry(pattern, ok, bandwidth, singular))
    return report


def search_assignment(family, params, budget=200, seed=0):
    """Randomized search for PM or IA coefficients with no singular pattern.

    params holds m, an optional modulus, n and k (IA's n is 2k and may be
    left out) and e_max, n-k by default. Each of budget trials draws a
    candidate from random.Random(seed): PM n distinct lambdas; IA the
    default code at trial zero, then a random P, kept only if every square
    submatrix is invertible, and a random kappa. The code vets its patterns
    of 2..e_max failures, capped by the code's own failure limit
    (_max_failures), through _repairable, condition_check's verdict without
    its boundary check: the patterns are sorted combinations of node ids
    within that limit by construction. A PM pattern is vetted with its
    default helpers only, the first d-e+1 live nodes. A trial stops
    counting once it has as many singular patterns as the best trial so
    far. Returns the first clean code's descriptor, or raises
    AssignmentNotFoundError with the first candidate of fewest singular
    patterns (PM's lambdas, IA's code). Params no code has, and a seed that
    is not an int, bools included, raise ValueError before any trial.
    """
    if family not in ("pm", "ia"):
        raise ValueError("search supports the pm and ia families")
    field = Field(params.get("m"), params.get("modulus"))
    k = params.get("k")
    n = params.get("n", 2 * k if family == "ia" and type(k) is int else None)
    e_max = params.get("e_max", n - k if type(n) is int and type(k) is int else None)
    if any(type(x) is not int for x in (n, k, e_max, budget, seed)):
        raise ValueError("n, k, e_max, budget and seed must be ints, not %r" % ((n, k, e_max, budget, seed),))
    if family == "pm" and (k < 2 or n < 2 * k - 1):
        raise ValueError("no PM code has n = %d, k = %d: need k >= 2 and n >= 2k-1" % (n, k))
    if family == "pm" and n > field.size:
        raise ValueError("GF(2^%d) has %d elements, too few for %d distinct lambdas" % (field.m, field.size, n))
    if family == "ia" and n != 2 * k:
        raise ValueError("IA codes have n = 2k = %d, got n = %d" % (2 * k, n))
    if family == "ia" and (k < 1 or field.size < 3):
        raise ValueError("no IA code has k = %d over GF(2^%d): need k >= 1 and a kappa != 0, 1" % (k, field.m))
    if budget < 1 or e_max < 1:
        raise ValueError("need at least one trial and e_max >= 1")
    rng = random.Random(seed)
    best = best_bad = None
    for trial in range(budget):
        try:
            if family == "pm":
                code = PMCode(field, n, k, rng.sample(field.elements(), n))
            elif trial == 0:
                code = IACode(field, k)
            else:
                p = Matrix(field, [[rng.randrange(1, field.size) for _ in range(k)] for _ in range(k)])
                if not all_square_submatrices_invertible(p):
                    continue
                code = IACode(field, k, P=p, kappa=rng.randrange(2, field.size))
        except ValueError:  # no code on these coefficients
            continue
        bad = 0
        e_cap = min(e_max, code._max_failures())
        for pattern in (f for e in range(2, e_cap + 1) for f in itertools.combinations(code.node_ids(), e)):
            if not code._repairable(pattern):
                bad += 1
                if best_bad is not None and bad >= best_bad:
                    break
        if bad == 0:
            return code.descriptor()
        if best_bad is None or bad < best_bad:
            best, best_bad = (code.lambdas if family == "pm" else code), bad
    raise AssignmentNotFoundError(family, best=best, best_failures=best_bad)


def json_default(value):
    """json.dumps's hook for what JSON cannot hold: a Fraction is written as
    [numerator, denominator], the one JSON encoding of an exact rational."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def open_out(path):
    """A text file open for writing, or stdout, left open on exit, for "-"."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def write_csv(path, rows):
    """Write dict rows as CSV under the first row's columns, in its order,
    the one CSV encoding of a table row: an int column as it is, a Fraction
    column as name_num,name_den, and None as those two left empty."""
    def cells(name, value):
        if isinstance(value, int):
            return [(name, value)]
        return zip((name + "_num", name + "_den"), ("", "") if value is None else (value.numerator, value.denominator))

    rows = [dict(cell for name, value in row.items() for cell in cells(name, value)) for row in rows]
    with open_out(path) as out:
        w = csv.DictWriter(out, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def comparison_rows(report):
    """The comparison table's rows, alpha with the batched, separate and
    batched-fewer (None without d-e+1 >= k) repair bandwidths."""
    return [
        dict(alpha=r.alpha, batched=r.gamma_centralized, separate=r.gamma_separate,
             batched_fewer=r.gamma_centralized_fewer)
        for r in report.rows
    ]


def emit_curve(params, path):
    """Write the storage-bandwidth tradeoff breakpoints as exact rationals."""
    rows = [asdict(p) for p in tradeoff_curve(params)]
    write_csv(path, rows)
    return len(rows)


def emit_comparison(params, path):
    """Write batched-vs-separate repair bandwidths over a shared alpha grid."""
    report = compare_strategies(params)
    write_csv(path, comparison_rows(report))
    return report


# The integer fields of a descriptor, by how deep lists nest around their
# ints; MDS's d_or_range is d or [k, d_max], and a null modulus picks the
# default. The constructors check the values.
_DESCRIPTOR_INTS = {"m": 0, "modulus": 0, "n": 0, "k": 0, "kappa": 0, "d_min": 0, "d_max": 0, "lambdas": 1, "P": 2, "V": 2}


def _holds_ints(value, depth):
    """value is an int at depth 0, else a list of values of depth - 1."""
    if depth == 0:
        return type(value) is int
    return type(value) is list and all(_holds_ints(x, depth - 1) for x in value)


def build_code(descriptor):
    """Rebuild a code object from its descriptor dict.

    Inverse of each family's descriptor() method, so JSON descriptors can be
    stored and later turned back into working encoders. A descriptor that
    is not a dict, or that lacks a field its family reads, holds anything
    but ints in an integer field, names an MDS mode but "fixed" and
    "adaptive" or gives an adaptive MDS code a d_or_range but [k, d_max],
    raises ValueError naming the field or the mode. Each field is checked
    as it is read, before the family's constructor runs.
    """
    if not isinstance(descriptor, dict):
        raise ValueError("a code descriptor is a JSON object, not %s" % type(descriptor).__name__)
    nesting = dict(_DESCRIPTOR_INTS, d_or_range=int(descriptor.get("mode") != "fixed"))

    def get(key):
        if key not in descriptor:
            raise ValueError("descriptor has no %r field" % key)
        value = descriptor[key]
        if key in nesting and not (_holds_ints(value, nesting[key]) or key == "modulus" and value is None):
            raise ValueError("descriptor field %r must hold integers" % key)
        return value

    family = get("family")
    field = Field(get("m"), get("modulus"))
    if family == "pm":
        return PMCode(field, get("n"), get("k"), lambdas=list(get("lambdas")))
    if family == "ia":
        P, V = (Matrix(field, [list(r) for r in get(key)]) for key in "PV")
        return IACode(field, get("k"), P=P, V=V, kappa=get("kappa"))
    if family == "mds":
        mode = get("mode")
        if mode not in ("fixed", "adaptive"):
            raise ValueError("unknown MDS mode %r" % (mode,))
        if mode == "fixed":
            return MDSStripeCode(field, get("n"), get("k"), d=get("d_or_range"))
        d_or_range = get("d_or_range")
        if len(d_or_range) != 2 or d_or_range[0] != get("k"):
            raise ValueError("descriptor field 'd_or_range' of an adaptive MDS code must be [k, d_max]")
        return MDSStripeCode(field, get("n"), get("k"), d_max=d_or_range[1])
    if family == "ambr":
        return AdaptiveMBRCode(field, get("n"), get("k"), get("d_min"), get("d_max"))
    raise ValueError("unknown code family %r" % (family,))
