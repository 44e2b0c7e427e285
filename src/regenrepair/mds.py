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
)
from .gf import LinearMap, Matrix, _gauss_jordan, mat_inv, mat_mul, vandermonde


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
            self.delta = self.shard_length = d
            self.d_max = d
        else:
            if not k <= d_max <= n - 1:
                raise ValueError("adaptive range needs k <= d_max <= n-1")
            self.mode = "adaptive"
            self.delta = self.shard_length = math.lcm(*range(k, d_max + 1))
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

    def generator_matrix(self):
        return self.generator

    encode = RepairableCode.encode
    reconstruct = RepairableCode.reconstruct

    def _repair_map(self, failed, helpers, beta):
        """D = G_failed G_pos^-1: the helpers' first beta symbols -> the lost
        shards, from one Gauss-Jordan on [G_pos^T | G_failed^T]."""
        g = self.generator.data
        pos = [g[(h - 1) * self.delta + t] for h in helpers for t in range(beta)]
        lost = [g[(f - 1) * self.delta + t] for f in failed for t in range(self.delta)]
        aug = [list(a) + list(b) for a, b in zip(zip(*pos), zip(*lost))]
        size = self.message_length
        _gauss_jordan(self.field, aug, size)
        return LinearMap(Matrix(self.field, [list(col) for col in zip(*(row[size:] for row in aug))]))

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
        RepairProblem(failed=failed, helpers=helpers)
        beta = self.message_length // d
        key = ("repair", failed, helpers, beta)
        plan = self._compiled(key, lambda: self._repair_map(failed, helpers, beta))
        word = plan.apply([x for h in helpers for x in shards[h][:beta]])
        contents = {f: word[i * self.delta : (i + 1) * self.delta] for i, f in enumerate(failed)}
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
