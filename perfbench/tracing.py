"""In-memory span tracer that wraps the library's public functions from outside.

Nothing under src/ is edited. Each traced name is patched where callers look
it up: pm, ia, mds, ambr and framework bind mat_solve, dot and the rest
through `from .gf import`, so every module attribute that holds the original
function is swapped, not only the one in gf. Methods are patched on their
class. Field.mul is counted, not spanned: it runs millions of times and a
span per call would dwarf the work it measures.

A span is (id, parent id, request id, name, start, end, self seconds). Self
time is the span's duration minus the time its direct children cover.
"""

import contextlib
import json
import sys
import time
from collections import defaultdict

from regenrepair import ambr, framework, gf, ia, mds, pm, tradeoff, workbench

# (span name, owner, attribute): an owner that is a module has its function
# replaced in every library module that imported it; a class has its method
# replaced in place.
TRACED = [
    ("gf.mat_solve", gf, "mat_solve"),
    ("gf.mat_det", gf, "mat_det"),
    ("gf.mat_inv", gf, "mat_inv"),
    ("gf.mat_mul", gf, "mat_mul"),
    ("gf.mat_vec", gf, "mat_vec"),
    ("gf.dot", gf, "dot"),
    ("framework.coupling_solve", framework.CouplingSystem, "solve"),
    ("framework.determinant", framework.CouplingSystem, "determinant"),
    ("pm.coupling_coefficient", pm.PMCode, "coupling_coefficient"),
    ("pm.assemble_multi", pm.PMCode, "assemble_multi"),
    ("pm.repair_transfer", pm.PMCode, "repair_transfer"),
    ("ia.coupling_system", ia.IACode, "coupling_system"),
    ("ia.assemble_multi", ia.IACode, "assemble_multi"),
    ("tradeoff.min_cut_oracle", tradeoff, "min_cut_oracle"),
    ("tradeoff.compare_strategies", tradeoff, "compare_strategies"),
    ("tradeoff.tradeoff_curve", tradeoff, "tradeoff_curve"),
    ("workbench.search_assignment", workbench, "search_assignment"),
]
FAMILIES = {
    "pm": pm.PMCode,
    "ia": ia.IACode,
    "mds": mds.MDSStripeCode,
    "ambr": ambr.AdaptiveMBRCode,
}
for _fam, _cls in FAMILIES.items():
    TRACED += [("%s.%s" % (_fam, m), _cls, m) for m in ("encode", "reconstruct", "repair_multi")]
    # every family draws its message from a workbench.SplitRandom stream
    TRACED.append(("workbench.random_message", _cls, "random_message"))


def _library_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "regenrepair"]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.mul_calls = 0
        self.solve_sizes = []
        self.singular_solves = 0
        self.oracle_shapes = []
        self._stack = []
        self._request = 0
        self._enabled = True
        self._restore = []

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def request(self, kind, request_id):
        """Root span of one benchmark request; library spans nest under it."""
        self._request = request_id
        with self._span("request." + kind):
            yield

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        was, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = was

    @contextlib.contextmanager
    def _span(self, name):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]  # id, seconds covered by direct children
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
            self.spans[sid] = (sid, parent, self._request, name, t0, t1, t1 - t0 - frame[1])

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            with tracer._span(name):
                return fn(*args, **kwargs)

        if name == "framework.coupling_solve":

            def traced_solve(system):
                if not tracer._enabled:
                    return fn(system)
                tracer.solve_sizes.append(system.size)
                try:
                    return traced(system)
                except framework.SingularCouplingError:
                    tracer.singular_solves += 1
                    raise

            return traced_solve
        if name == "tradeoff.min_cut_oracle":

            def traced_oracle(params, alpha, beta):
                if tracer._enabled:
                    tracer.oracle_shapes.append((params.k, params.e))
                return traced(params, alpha, beta)

            return traced_oracle
        return traced

    def _wrap_mul(self, fn):
        tracer = self

        def mul(field, a, b):
            if tracer._enabled:
                tracer.mul_calls += 1
            return fn(field, a, b)

        return mul

    # -- installing -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = _library_modules()
        for name, owner, attr in TRACED:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._patch(gf.Field, "mul", self._wrap_mul(gf.Field.mul))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    # -- reporting ------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        out = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = out[span[3]]
            entry[0] += 1
            entry[1] += span[6]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Write the spans as JSON lines: a header, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["id", "parent", "request", "name", "start_s", "end_s", "self_s"]}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


class NullTracer:
    """Stand-in for untraced runs: the same context managers, recording nothing."""

    def request(self, kind, request_id):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()
