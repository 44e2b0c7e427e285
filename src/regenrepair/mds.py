"""Striped systematic MDS code: the simple strategy for many failures.

The file of k*delta symbols becomes an (n*delta, k*delta) Reed-Solomon
codeword and node j stores codeword positions (j-1)*delta .. j*delta-1.
Repair downloads k*delta/d symbols from each of d helpers (any k*delta
positions determine the file), rebuilds the file, and re-encodes the lost
shards, so the total bandwidth is always exactly M = k*delta. Fixed mode
stores delta = d symbols per node for one repair degree; adaptive mode
stores delta = lcm(k..d_max) so every degree k <= d <= d_max divides M.
"""

import math
import random

from .framework import (
    InvalidHelperCountError,
    RepairableCode,
    RepairProblem,
    RepairTranscript,
    check_input,
    check_message,
)
from .gf import Matrix, mat_inv, mat_mul, mat_solve, mat_vec, vandermonde


class MDSStripeCode(RepairableCode):
    def __init__(self, field, n, k, d=None, d_max=None):
        if k < 1 or n < k:
            raise ValueError("need n >= k >= 1")
        if (d is None) == (d_max is None):
            raise ValueError("give exactly one of d (fixed) or d_max (adaptive)")
        if d is not None:
            if not k <= d <= n - 1:
                raise ValueError("fixed repair degree needs k <= d <= n-1")
            self.mode = "fixed"
            self.delta = d
            self.d_max = d
        else:
            if not k <= d_max <= n - 1:
                raise ValueError("adaptive range needs k <= d_max <= n-1")
            self.mode = "adaptive"
            self.delta = math.lcm(*range(k, d_max + 1))
            self.d_max = d_max
        self.field = field
        self.n = n
        self.k = k
        if n * self.delta > field.size:
            raise ValueError("field too small: need %d evaluation points" % (n * self.delta))
        self.message_length = k * self.delta  # M
        v_all = vandermonde(field, list(range(n * self.delta)), self.message_length)
        v_sys = Matrix(field, v_all.data[: self.message_length])
        self.generator = mat_mul(v_all, mat_inv(v_sys))

    def random_message(self, rng):
        return [rng.randrange(self.field.size) for _ in range(self.message_length)]

    def _shard(self, node, data):
        """The node's codeword positions: its generator rows times the file."""
        lo = (node - 1) * self.delta
        return mat_vec(Matrix(self.field, self.generator.data[lo : lo + self.delta]), data)

    def encode(self, data):
        check_message(self, data)
        return {j: self._shard(j, data) for j in self.node_ids()}

    def _solve_positions(self, positions, symbols):
        rows = [self.generator.data[pos] for pos in positions]
        return mat_solve(Matrix(self.field, rows), symbols)

    def reconstruct(self, shards):
        nodes = sorted(shards)[: self.k]
        if len(nodes) < self.k:
            raise ValueError("need at least k shards")
        check_input(self, shards, self.delta, nodes)
        positions, symbols = [], []
        for node in nodes:
            positions.extend(range((node - 1) * self.delta, node * self.delta))
            symbols.extend(shards[node])
        return self._solve_positions(positions, symbols)

    def repair_multi(self, shards, failed, helpers=None, d=None):
        failed = tuple(sorted(set(failed)))
        e = len(failed)
        if not failed or set(failed) & set(shards):
            raise ValueError("failed nodes must be erased and nonempty")
        survivors = [h for h in sorted(shards) if h not in failed]
        if d is None:
            d = self.delta if self.mode == "fixed" else min(self.d_max, self.n - e)
        if self.mode == "fixed" and d != self.delta:
            raise InvalidHelperCountError("fixed mode repairs with d = %d helpers" % self.delta)
        if not self.k <= d <= self.d_max or d > self.n - e:
            raise InvalidHelperCountError("repair degree %d out of range" % d)
        if self.message_length % d:
            raise InvalidHelperCountError("%d does not divide k*delta" % d)
        if helpers is None:
            helpers = survivors[:d]
        helpers = tuple(sorted(helpers))
        if len(helpers) != d or any(h not in shards for h in helpers):
            raise InvalidHelperCountError("need shards from exactly d = %d helpers" % d)
        check_input(self, shards, self.delta, helpers, failed)
        problem = RepairProblem(failed=failed, helpers=helpers)
        beta = self.message_length // d
        positions, symbols = [], []
        for h in helpers:
            positions.extend(range((h - 1) * self.delta, (h - 1) * self.delta + beta))
            symbols.extend(shards[h][:beta])
        data = self._solve_positions(positions, symbols)
        contents = {f: self._shard(f, data) for f in failed}
        transcript = RepairTranscript(per_helper={h: beta for h in helpers})
        return contents, transcript

    def descriptor(self):
        return {
            "family": "mds",
            "n": self.n,
            "k": self.k,
            "mode": self.mode,
            "d_or_range": self.delta if self.mode == "fixed" else [self.k, self.d_max],
            "m": self.field.m,
            "modulus": self.field.modulus,
        }
