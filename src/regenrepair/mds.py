"""Striped systematic MDS code: the simple strategy for many failures.

The file of k*delta symbols becomes an (n*delta, k*delta) Reed-Solomon
codeword and node j stores codeword positions (j-1)*delta .. j*delta-1.
Repair downloads k*delta/d symbols from each of d helpers (any k*delta
positions determine the file), rebuilds the file, and re-encodes the lost
shards, so the total bandwidth is always exactly M = k*delta. Fixed mode
stores delta = d symbols per node for one repair degree; adaptive mode
stores delta = lcm(k..d_max) so every degree k <= d <= d_max divides M.

Position x of the codeword is the file's polynomial (degree < M, its
values at 0..M-1 the file itself) evaluated at x, so the generator and
every repair decode map are tables of Lagrange basis values
(gf.lagrange_rows): G on nodes 0..M-1 at every position, a decode map on
the helpers' sent positions at the lost ones. Neither eliminates.
"""

import math

from .framework import InvalidHelperCountError, RepairableCode, RepairPlan, failure_count
from .gf import LinearMap, Matrix, lagrange_rows


class MDSStripeCode(RepairableCode):
    def __init__(self, field, n, k, d=None, d_max=None):
        if (d is None) == (d_max is None):
            raise ValueError("give exactly one of d (fixed) or d_max (adaptive)")
        self.mode = "adaptive" if d is None else "fixed"
        self.d_max = d_max = d_max if d is None else d
        if {type(n), type(k), type(d_max)} != {int} or not 1 <= k <= d_max <= n - 1:
            raise ValueError("need ints n, k and d (or d_max) with 1 <= k <= d <= n-1")
        self.delta = self.shard_length = d_max if d is not None else math.lcm(*range(k, d_max + 1))
        self.field = field
        self.n = n
        self.k = k
        if n * self.delta > field.size:
            raise ValueError("field too small: need %d evaluation points" % (n * self.delta))
        self.message_length = k * self.delta  # M
        self.generator = lagrange_rows(field, range(self.message_length), range(n * self.delta))

    random_message = RepairableCode.random_message

    def generator_matrix(self):
        return self.generator

    encode = RepairableCode.encode
    reconstruct = RepairableCode.reconstruct

    repair_multi = RepairableCode.repair_multi

    def _plan_key(self, shards, failed, helpers=None, d=None):
        if d is None:
            d = self.delta if self.mode == "fixed" else min(self.d_max, self.n - failure_count(self, failed))
            if d < self.k:  # fewer than k survivors, so more than n-k failed
                raise InvalidHelperCountError("can repair 1..%d nodes at once" % (self.n - self.k))
        if self.mode == "fixed" and d != self.delta:
            raise InvalidHelperCountError("fixed mode repairs with d = %d helpers" % self.delta)
        if type(d) is not int or not self.k <= d <= self.d_max:
            raise InvalidHelperCountError("repair degree %r is not an int in %d..%d" % (d, self.k, self.d_max))
        if self.message_length % d:
            raise InvalidHelperCountError("%d does not divide k*delta" % d)
        failed, helpers = self._repair_nodes(shards, failed, helpers, d)
        return ("repair", failed, helpers, self.message_length // d)

    def _compile_plan(self, failed, helpers, beta):
        """Each helper sends its first beta symbols; the decode map is
        D = G_failed G_pos^-1 = V_failed V_pos^-1, the Lagrange basis on the
        sent positions evaluated at the lost ones."""
        f, delta = self.field, self.delta
        send = self._compiled(("send", beta), lambda: LinearMap(Matrix(f, Matrix.identity(f, delta).data[:beta])))
        sent = [(h - 1) * delta + t for h in helpers for t in range(beta)]
        lost = [(node - 1) * delta + t for node in failed for t in range(delta)]
        decode = LinearMap(lagrange_rows(f, sent, lost))
        return RepairPlan(failed, helpers, (send,) * len(helpers), decode)

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
