"""The four benchmark workloads: inputs drawn from the seed, requests, gates.

Every workload is a closed loop with one caller: the next request is sent
only after the previous one returns. Requests come in cycles with a fixed
mix, so the cost of a cycle does not depend on the seed, only on which
patterns, messages and query points the seed picks. A request thunk returns
its own wall time in seconds; the checks that follow it are benchmark work
and are left out of that time.

All codes are over GF(2^8) with modulus 0x11D, so one symbol is one byte.
Library calls go through module attributes (`pm.PMCode`, `tradeoff.x`), so
the wrappers the tracer installs see them.
"""

import itertools
import random
import statistics
import time
from collections import defaultdict
from fractions import Fraction

from regenrepair import ambr, framework, gf, ia, mds, pm, tradeoff, workbench
from tracing import NullTracer

FIELD_M, FIELD_MODULUS = 8, 0x11D
SplitRandom = workbench.SplitRandom
# Request timers by the reference kernel they follow (see reference.py).
# The end-to-end run puts reference timers here; the wall clock stands in
# for them otherwise.
CLOCKS = {"gf": time.perf_counter, "cut": time.perf_counter}


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def compositions(k, e):
    """Number of compositions of k with parts 1..e: the scenarios the
    exhaustive min-cut oracle enumerates for one query."""
    ways = [1] + [0] * k
    for total in range(1, k + 1):
        ways[total] = sum(ways[total - part] for part in range(1, min(e, total) + 1))
    return ways[k]


class Workload:
    """Base class: a ledger of checks plus named timing samples."""

    name = ""
    kernels = ("gf",)  # reference kernels the workload's timers follow
    setup_kernel = "gf"
    setup_repeats = 1
    trace_cycles_per_s = 1.0  # traced cycles per --seconds, fixed so counts repeat

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = defaultdict(list)  # name -> seconds per call, this cycle
        self.cycles = defaultdict(list)  # name -> (calls, seconds, p50 s, p90 s) per cycle
        self.requests = []  # seconds of every request of the run
        self.amounts = defaultdict(int)  # name -> bytes, trials, ...
        self.tracer = NullTracer()
        self.request_id = 0

    def check(self, ok, what):
        """Count one verified operation; a failure is recorded, never raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def close_cycle(self):
        """Reduce the cycle's samples to one summary each, so memory does not
        grow with the number of requests a run gets through."""
        for name, values in self.samples.items():
            self.cycles[name].append((len(values), sum(values), percentile(values, 50), percentile(values, 90)))
        self.samples.clear()

    def rate(self, amount, name):
        """Units of `amount` per second spent in calls of `name`."""
        return self.amounts[amount] / sum(c[1] for c in self.cycles[name])

    def per_s(self, name):
        return sum(c[0] for c in self.cycles[name]) / sum(c[1] for c in self.cycles[name])

    def median_ms(self, name, column):
        """Median over cycles of a per-cycle statistic (2: p50, 3: p90), in ms."""
        return statistics.median(c[column] for c in self.cycles[name]) * 1e3

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """Derive the inputs that need the built codes (outside set-up time)."""

    def cycle(self, c):
        """[(request kind, thunk)] for cycle c; thunks return seconds."""
        raise NotImplementedError

    def finish(self):
        """Gates that compare against a second path once the loop is done."""

    def report(self):
        """[(name, value, unit, note)] for the human-readable table."""
        raise NotImplementedError


# -- sweeps ------------------------------------------------------------


class Sweep(Workload):
    """Verified repairs of seeded failure patterns, a fixed count per e.

    Cycle c draws its patterns and messages exactly as run_sweep(code, e,
    seed=cycle_seed, sample=count) does, so the two can be compared.
    """

    mix = {}  # e -> requests per cycle
    agree_cycles = 2  # cycles re-checked against run_sweep after the loop

    def __init__(self, seed):
        super().__init__(seed)
        self.outcomes = {}  # (cycle, e) -> [(pattern, success, bandwidth, singular)]
        self.singular = 0

    def build(self, field):
        raise NotImplementedError

    def setup(self):
        self.code = self.build(gf.Field(FIELD_M, FIELD_MODULUS))

    def expected_bandwidth(self, e):
        raise NotImplementedError

    def expect_singular(self, pattern, shards):
        raise NotImplementedError

    def cycle_seed(self, c):
        return SplitRandom(self.seed).split("cycle-%d" % c).randrange(2**62)

    def patterns(self, seed, e, count):
        everything = list(itertools.combinations(self.code.node_ids(), e))
        if count >= len(everything):
            return everything
        chosen = sorted(SplitRandom(seed).split("patterns").sample(range(len(everything)), count))
        return [everything[t] for t in chosen]

    def cycle(self, c):
        seed = self.cycle_seed(c)
        per_e = {e: self.patterns(seed, e, count) for e, count in self.mix.items()}
        requests = []
        # e interleaved, so no stretch of the cycle holds only one cost
        for slot in range(max(self.mix.values())):
            for e in self.mix:
                if slot < len(per_e[e]):
                    pattern = per_e[e][slot]
                    rng = SplitRandom(seed).split("msg-%s" % ",".join(map(str, pattern)))
                    requests.append(("repair-e%d" % e, self._request(c, e, pattern, rng)))
        return requests

    def _request(self, c, e, pattern, rng):
        code = self.code

        def run():
            perf = CLOCKS["gf"]
            t0 = perf()
            msg = code.random_message(rng)
            shards = code.encode(msg)
            golden = {i: list(shards[i]) for i in pattern}
            survivors = {i: v for i, v in shards.items() if i not in pattern}
            t1 = perf()
            try:
                contents, transcript = code.repair_multi(survivors, pattern, None)
                singular = False
            except framework.SingularCouplingError:
                singular = True
            t2 = perf()
            exact = not singular and all(list(contents[i]) == golden[i] for i in pattern)
            t3 = perf()
            self.samples["repair"].append(t2 - t1)
            with self.tracer.paused():
                self._gate(c, e, pattern, shards, singular, exact, transcript if exact else None)
            return t3 - t0

        return run

    def _gate(self, c, e, pattern, shards, singular, exact, transcript):
        label = "%s pattern %s" % (self.name, pattern)
        if singular:
            self.singular += 1
            self.check(self.expect_singular(pattern, shards), label + ": singular but not expected to be")
        else:
            self.check(exact, label + ": repaired contents differ from the encoded shards")
            self.check(
                exact and transcript.total == self.expected_bandwidth(e),
                label + ": bandwidth differs from the closed form",
            )
        entry = (tuple(pattern), exact, transcript.total if exact else 0, singular)
        if c < self.agree_cycles:
            self.outcomes.setdefault((c, e), []).append(entry)

    def finish(self):
        for (c, e), entries in sorted(self.outcomes.items()):
            report = workbench.run_sweep(self.code, e, seed=self.cycle_seed(c), sample=self.mix[e])
            theirs = [(tuple(x.pattern), x.success, x.bandwidth, x.singular) for x in report.entries]
            ours = entries[: len(theirs)]
            self.check(ours == theirs, "%s cycle %d e=%d: outcomes differ from run_sweep" % (self.name, c, e))

    def report(self):
        note = "median over %d cycles of %d" % (len(self.cycles["repair"]), self.cycles["repair"][0][0])
        return [
            ("patterns_per_s", statistics.median(c[0] / c[1] for c in self.cycles["request"]), "1/s", note),
            ("repair_ms_p50", self.median_ms("repair", 2), "ms", note),
            ("repair_ms_p90", self.median_ms("repair", 3), "ms", note),
            ("singular_patterns", self.singular, "count", "expected outcomes"),
        ]


class PMSweep(Sweep):
    name = "pm-sweep"
    setup_repeats = 15
    trace_cycles_per_s = 2.0
    mix = {1: 4, 2: 4, 3: 4, 4: 4, 5: 4}

    def build(self, field):
        return pm.PMCode(field, 11, 6)

    def expected_bandwidth(self, e):
        return e * (self.code.d - e + 1)

    def expect_singular(self, pattern, shards):
        code = self.code
        helpers = code.default_helpers(shards, pattern, code.d - len(pattern) + 1)
        system, _ = code.assemble_multi(shards, pattern, helpers)
        return system.determinant() == 0


class IASweep(Sweep):
    name = "ia-sweep"
    setup_repeats = 15
    trace_cycles_per_s = 5.0
    # as many requests below e=4 as above it, so the median lands
    # inside the e=4 group and the 90th percentile inside the e=6 group
    mix = {1: 3, 2: 3, 3: 3, 4: 4, 5: 4, 6: 5}

    def build(self, field):
        return ia.IACode(field, 6)

    def expected_bandwidth(self, e):
        return e * (self.code.n - e)

    def expect_singular(self, pattern, shards):
        try:
            return not self.code.condition_check(pattern)
        except ia.UnsupportedPatternError:
            system, _ = self.code.coupling_system(pattern)
            return system.determinant() == 0

    def _gate(self, c, e, pattern, shards, singular, exact, transcript):
        super()._gate(c, e, pattern, shards, singular, exact, transcript)
        if not singular:
            try:
                covered = self.code.condition_check(pattern)
            except ia.UnsupportedPatternError:
                return
            self.check(covered, "ia-sweep pattern %s: repaired but condition_check says singular" % (pattern,))


# -- stripe file -----------------------------------------------------------


class StripeFile(Workload):
    """A seeded file cut into stripes, one message per stripe per family.

    Every stripe is written (encoded) by all four families, an e=3 pattern
    is erased and repaired, and a data collector reads the stripe back from
    k nodes. Each family has a fixed, seeded list of `plans` (e=3 pattern,
    reader set) pairs that the stripes take in turn, so the same linear maps
    come back every `plans` stripes. Repair and read cost depend a lot on
    which nodes are involved (MDS ranges over 10x), so one pattern per family
    would make a run's cost a matter of the seed; 35 pairs, every one of them
    for MDS(7, 3), keep it nearly the same from seed to seed.
    """

    name = "stripe-file"
    setup_repeats = 9
    trace_cycles_per_s = 0.12
    file_bytes = 64 * 180  # 180 = lcm of the four message lengths
    plans = 35  # C(7, 3): every e=3 pattern and every reader set of MDS(7, 3)
    stripes_per_cycle = 2 * plans  # each pair once at each repair degree of MDS and AMBR

    def setup(self):
        field = gf.Field(FIELD_M, FIELD_MODULUS)
        self.codes = {
            "pm": pm.PMCode(field, 11, 6),
            "ia": ia.IACode(field, 6),
            "mds": mds.MDSStripeCode(field, 7, 3, d_max=4),
            "ambr": ambr.AdaptiveMBRCode(field, 8, 3, 4, 5),
        }

    def prepare(self):
        data = random.Random(self.seed).randbytes(self.file_bytes)
        base = SplitRandom(self.seed)
        self.stripes, self.patterns, self.readers = {}, {}, {}
        for fam, code in self.codes.items():
            size = code.message_length
            self.stripes[fam] = [list(data[i : i + size]) for i in range(0, len(data), size)]
            patterns = list(itertools.combinations(code.node_ids(), 3))
            if fam == "ia":  # a singular IA pattern cannot be repaired on any stripe
                patterns = [pattern for pattern in patterns if code.condition_check(pattern)]
            readers = list(itertools.combinations(code.node_ids(), code.k))
            # sorted, so that for MDS, which uses every pattern and every
            # reader set, the pairs and so the stripes' costs are the same
            # at every seed
            self.patterns[fam] = sorted(base.split("patterns-" + fam).sample(patterns, self.plans))
            self.readers[fam] = sorted(base.split("readers-" + fam).sample(readers, self.plans))

    def degree(self, fam, stripe):
        second = stripe // self.plans % 2
        if fam == "mds":
            return {"d": 3 + second}
        if fam == "ambr":
            return {"d": 4 + second}
        return {}

    def expected_bandwidth(self, fam, code, e):
        if fam == "pm":
            return e * (code.d - e + 1)
        if fam == "ia":
            return e * (code.n - e)
        if fam == "mds":
            return code.k * code.delta
        return code.mbr_bandwidth_bound(e)

    def cycle(self, c):
        first = c * self.stripes_per_cycle
        return [("stripe", self._request(s)) for s in range(first, first + self.stripes_per_cycle)]

    def _request(self, stripe):
        def run():
            perf = CLOCKS["gf"]
            t_start = perf()
            results = []
            for fam, code in self.codes.items():
                stripes = self.stripes[fam]
                msg = stripes[stripe % len(stripes)]
                pattern = self.patterns[fam][stripe % self.plans]
                t0 = perf()
                shards = code.encode(msg)
                t1 = perf()
                survivors = {i: v for i, v in shards.items() if i not in pattern}
                t2 = perf()
                contents, transcript = code.repair_multi(survivors, pattern, None, **self.degree(fam, stripe))
                t3 = perf()
                readers = self.readers[fam][stripe % self.plans]
                node = {i: contents[i] if i in pattern else shards[i] for i in readers}
                t4 = perf()
                recovered = code.reconstruct(node)
                t5 = perf()
                self.samples["encode"].append(t1 - t0)
                self.samples["repair"].append(t3 - t2)
                self.samples["reconstruct"].append(t5 - t4)
                self.amounts["encode"] += len(msg)
                self.amounts["repair"] += sum(len(contents[i]) for i in pattern)
                self.amounts["reconstruct"] += len(msg)
                results.append((fam, code, msg, shards, pattern, contents, transcript, recovered))
            elapsed = perf() - t_start
            for fam, code, msg, shards, pattern, contents, transcript, recovered in results:
                label = "stripe-file %s stripe %d" % (fam, stripe)
                self.check(
                    all(list(contents[i]) == list(shards[i]) for i in pattern),
                    label + ": repaired shards differ",
                )
                self.check(
                    transcript.total == self.expected_bandwidth(fam, code, len(pattern)),
                    label + ": bandwidth differs from the closed form",
                )
                self.check(list(recovered) == msg, label + ": reconstructed message differs")
            return elapsed

        return run

    def report(self):
        note = "median over %d cycles of %d, all families" % (len(self.cycles["repair"]), self.cycles["repair"][0][0])
        return [
            ("encode_mb_per_s", self.rate("encode", "encode") / 1e6, "MB/s", "message bytes"),
            ("repair_mb_per_s", self.rate("repair", "repair") / 1e6, "MB/s", "lost shard bytes"),
            ("reconstruct_mb_per_s", self.rate("reconstruct", "reconstruct") / 1e6, "MB/s", "message bytes"),
            ("repair_ms_p50", self.median_ms("repair", 2), "ms", note),
            ("repair_ms_p90", self.median_ms("repair", 3), "ms", note),
        ]


# -- design --------------------------------------------------------------


class Design(Workload):
    """The rational side plus coefficient search.

    Every cycle builds a SystemParams grid (k in 6/12/18, e in 2/3/4, d = k+2,
    seeded M), sends min_cut_oracle queries at seeded (alpha, beta) and one
    full analysis per point, and ends with two search budgets that cannot
    succeed. Set-up pays the first, cold query per (k, e).
    """

    name = "design"
    kernels = ("gf", "cut")
    setup_kernel = "cut"
    setup_repeats = 5
    trace_cycles_per_s = 0.1
    ks = (6, 12, 18)
    es = (2, 3, 4)
    # alpha:beta of the queries at every point. These ratios cost about the
    # same per (k, e), and five per point put the median inside the
    # k=12, e=4 queries and the 90th percentile inside the k=18, e=4 ones,
    # not on an edge between two groups of very different cost.
    ratios = ((1, 1), (2, 1), (3, 1), (2, 3), (3, 2))
    # (family, params, budget); both budgets are exhausted at every seed
    searches = (
        ("pm", {"m": 5, "n": 11, "k": 6, "e_max": 3}, 2),
        ("ia", {"m": 5, "k": 5}, 10),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.search_seed = random.Random(seed).randrange(2**31)
        self.best_failures = {}  # family -> (best_failures, best) of the first search

    def setup(self):
        # the first query per (k, e) pays for the scenario enumeration
        for k in self.ks:
            for e in self.es:
                tradeoff.min_cut_oracle(tradeoff.SystemParams(1, k + e, k, k, e), 1, 1)

    def cycle(self, c):
        # The oracle's pruning, and so its cost, depends on alpha/beta and d;
        # the seed draws M and a common scale for fixed alpha:beta ratios, so
        # every cycle costs the same and a run's cost is not set by one draw.
        rng = random.Random("%d/%d" % (self.seed, c))
        points = []
        for k in self.ks:
            for e in self.es:
                d = k + 2
                params = tradeoff.SystemParams(rng.randrange(60, 600), d + e + 1, k, d, e)
                points.append((params, Fraction(rng.randrange(1, 64), rng.randrange(1, 8))))
        # One round of queries per ratio, with the analyses and the searches
        # between rounds, so the requests of one kind are spread over the
        # cycle and do not all meet the same short slow-down of the host.
        rounds = [
            [("oracle", self._oracle(params, alpha * scale, beta * scale)) for params, scale in points]
            for alpha, beta in self.ratios
        ]
        between = [[("analysis", self._analysis(params)) for params, _ in points]]
        between += [[("search-" + family, self._search(family, params, budget))] for family, params, budget in self.searches]
        requests = []
        for i, queries in enumerate(rounds):
            requests += queries + (between[i] if i < len(between) else [])
        return requests

    def _oracle(self, params, alpha, beta):
        def run():
            perf = CLOCKS["cut"]
            t0 = perf()
            value, _ = tradeoff.min_cut_oracle(params, alpha, beta)
            elapsed = perf() - t0
            self.samples["oracle"].append(elapsed)
            with self.tracer.paused():
                closed = tradeoff.cut_value(tradeoff.optimal_scenario(params, alpha, beta), alpha, beta, params.d)
            self.check(value == closed, "design oracle %s at (%s, %s): %s != %s" % (params, alpha, beta, value, closed))
            return elapsed

        return run

    def _analysis(self, params):
        def run():
            perf = CLOCKS["cut"]  # the analyses run the oracle's kind of scan
            t0 = perf()
            curve = tradeoff.tradeoff_curve(params)
            msmr = tradeoff.msmr_point(params)
            mbmr = tradeoff.mbmr_point(params)
            _, on_curve = tradeoff.mbcr_check(params)
            comparison = tradeoff.compare_strategies(params)
            elapsed = perf() - t0
            self.samples["analysis"].append(elapsed)
            k, d, e = params.k, params.d, params.e
            ratio = Fraction(d - e + 1, d) if d - e + 1 >= k else None
            self.check(
                (curve[0].gamma, curve[0].alpha) == (mbmr.gamma, mbmr.alpha)
                and (curve[-1].gamma, curve[-1].alpha) == (msmr.gamma, msmr.alpha)
                and on_curve == (k % e == 1)
                and comparison.msmr_ratio == ratio,
                "design analysis %s: curve ends, MBCR membership or ratio wrong" % (params,),
            )
            return elapsed

        return run

    def _search(self, family, params, budget):
        def run():
            perf = CLOCKS["gf"]
            t0 = perf()
            try:
                workbench.search_assignment(family, params, budget=budget, seed=self.search_seed)
                error = None
            except workbench.AssignmentNotFoundError as exc:
                error = exc
            elapsed = perf() - t0
            self.samples["search"].append(elapsed)
            self.amounts["trials"] += budget
            label = "design %s search" % family
            self.check(error is not None, label + ": budget %d was not exhausted" % budget)
            if error is not None:
                first = self.best_failures.setdefault(family, (error.best_failures, error.best))
                self.check(first[0] == error.best_failures, label + ": best_failures changed between cycles")
            return elapsed

        return run

    def finish(self):
        """Recount the best candidates' singular patterns by attempting the
        repairs, a path the searches (determinants only) never take."""
        for family, params, _ in self.searches:
            if family not in self.best_failures:
                continue
            recorded, best = self.best_failures[family]
            if family == "pm":
                code = pm.PMCode(gf.Field(params["m"]), params["n"], params["k"], best)
                e_cap = min(params["e_max"], code.n - code.k, code.k - 1)
            else:
                code, e_cap = best, params["k"]
            singular = 0
            for e in range(2, e_cap + 1):
                for pattern in itertools.combinations(code.node_ids(), e):
                    _, _, was_singular = workbench.verify_exact_repair(code, pattern)
                    singular += was_singular
            self.check(
                singular == recorded,
                "design %s search: best candidate leaves %d singular patterns, reported %s"
                % (family, singular, recorded),
            )

    def report(self):
        return [
            ("oracle_queries_per_s", self.per_s("oracle"), "1/s", ""),
            ("tradeoff_params_per_s", self.per_s("analysis"), "1/s", "full analyses"),
            ("search_trials_per_s", self.rate("trials", "search"), "1/s", "pm budget 2 + ia budget 10"),
        ]


WORKLOADS = {cls.name: cls for cls in (PMSweep, IASweep, StripeFile, Design)}
