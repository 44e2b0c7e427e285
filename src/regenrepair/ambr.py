"""Adaptive minimum-bandwidth code: one code, many repair degrees.

Each node stores alpha = prod(d_min..d_max) symbols arranged as z =
alpha/d_min blocks; block i is psi_{(l-1)z+i}^t M_i for a symmetric
d_min x d_min matrix M_i = [[N_i, L_i], [L_i^t, 0]]. A helper serving a
repair of degree d compresses its z per-block inner products through the
first alpha/d rows of Omega, so the download is alpha/d per helper and
d * alpha/d = alpha in total for every d in range.

Multiple failures are repaired sequentially: the first with d helpers,
each next one with d_min sources that mix the already-regenerated nodes
(free, they sit at the central node) with fresh helpers at z symbols each,
for a grand total of e*alpha - C(e,2)*alpha/d_min. The chain is linear in
the helpers' shards, so it compiles into one repair plan per pattern,
degree and helper set: the helpers' send maps, and a decode map the
framework solves from those sends and the generator.

The sends read one table of theta blocks, built once per code: node l's
block has z rows, row r being Omega's row r times l's per-block psi rows,
and its first alpha/d rows are what a helper sends toward l in a repair of
degree d. A degree-d theta is the blocks of d sources stacked. The
constructor proves every d-subset's theta invertible, for every d in
d_min+1..d_max, before it returns, so d helpers' sends always determine a
lost node and no repair meets a singular decode map. It decides each
subset S on Q_S, of order z(d - d_min): Q_S is invertible exactly when
theta_S is, at every degree, as docs/ambr-decode-maps.md proves. Below
d = 2 d_min Q_S is smaller than theta's alpha = z d_min; at d = 2 d_min it
is alpha-square, and only at d_min = 1, d = 3 is it 2 alpha. The rows of
Q_S are one scaled, shifted segment per (node, block), the scalars sums of
logs of point differences.
"""

import random
from itertools import combinations
from math import prod
from operator import itemgetter

from .framework import InvalidHelperCountError, RepairableCode, RepairPlan, check_input, failure_count
from .gf import LinearMap, Matrix, _lane_bits, _pack, _reduce_packed, _scale_packed, vandermonde


class AdaptiveMBRCode(RepairableCode):
    def __init__(self, field, n, k, d_min, d_max):
        if {type(n), type(k), type(d_min), type(d_max)} != {int} or not 1 <= k <= d_min <= d_max <= n - 1:
            raise ValueError("need ints with 1 <= k <= d_min <= d_max <= n-1")
        if d_max > 6 or d_max - d_min > 2:
            raise ValueError("desk-scale caps: d_max <= 6 and d_max - d_min <= 2")
        self.field = field
        self.n = n
        self.k = k
        self.d_min = d_min
        self.d_max = d_max
        self.alpha = self.shard_length = prod(range(d_min, d_max + 1))
        self.z = self.alpha // d_min
        self.block_symbols = k * d_min - k * (k - 1) // 2
        self.message_length = self.z * self.block_symbols  # M
        if self.z * n > field.size - 1:
            raise ValueError("field too small: need %d distinct nonzero points" % (self.z * n))
        g = field.generator
        omega_points = [field.pow(g, j) for j in range(self.z)]
        self.Omega = vandermonde(field, omega_points, self.z).transpose()
        # Two traps make the degree-d decode map singular for every helper
        # set once d > d_min. A power-0 column gives all blocks a common
        # column space vector (all ones), and ker(Omega_d) then produces a
        # kernel, so rows run over powers 1..d_min instead. Consecutive
        # generator powers factor as (per-node) x (per-block) and collapse
        # the block column spaces onto each other, so the points are drawn
        # pseudo-randomly (deterministic in the parameters) and the eager
        # check below proves each instance. d = d_min needs no check: the
        # full Omega is invertible and each block reduces to a square
        # scaled Vandermonde on distinct nonzero points.
        rng = random.Random(66423 + 1009 * n + 101 * d_min + d_max)
        pool = [x for x in field.elements() if x != 0]
        for _ in range(25):
            self._place(sorted(rng.sample(pool, self.z * n)))
            if self._decode_maps_invertible():
                break
        else:
            raise ValueError("no point assignment found with invertible decode maps")

    # --- structure helpers ---

    def _place(self, points):
        """Put node l's psi point for block i at points[(l-1)z + i-1]: Psi's
        rows are [x, x^2, ..., x^d_min], the Vandermonde rows without their
        leading 1, and the theta blocks are built from them."""
        vander = vandermonde(self.field, points, self.d_min + 1)
        self.Psi = Matrix(self.field, [row[1:] for row in vander.data])
        self._blocks = [self._block(src) for src in self.node_ids()]

    def _psi_row(self, node, block):
        return self.Psi.data[(node - 1) * self.z + (block - 1)]

    def _block(self, src):
        """Row r of src's block is Omega's row r times src's per-block
        psi rows: entry (i, c) is Omega[r][i] psi_{src,i}[c]. The first
        alpha/d rows, applied to a helper's shard, are what it sends
        toward src in a repair of degree d."""
        mul, z = self.field.mul, self.z
        psis = [self._psi_row(src, i) for i in range(1, z + 1)]
        return [[mul(w, p) for w, psi in zip(self.Omega.data[r], psis) for p in psi] for r in range(z)]

    def _decode_maps_invertible(self):
        """Every d-subset of the nodes stacks to an invertible theta, for
        every d in d_min+1..d_max: _singular_helper_sets yields nothing. The
        check stops at the first singular set, and decides each set on the
        z(d - d_min)-square Q_S rather than theta_S."""
        return next(self._singular_helper_sets(), None) is None

    def _singular_helper_sets(self):
        """(d, S) for each degree d in d_min+1..d_max and each d-subset S of
        the node ids, in combinations order, whose theta_S is singular: S is
        decided on Q_S (_q_stacks), of order z(d - d_min), which is
        invertible exactly when the alpha-square theta_S is
        (docs/ambr-decode-maps.md).
        """
        f, dm = self.field, self.d_min
        for d in range(dm + 1, self.d_max + 1):
            size = self.z * (d - dm)
            for subset, rows in self._q_stacks(d):
                if not _reduce_packed(f, rows, size, size, False)[1]:
                    yield d, subset

    def _q_stacks(self, d):
        """(S, Q_S packed) for every d-subset S, d_min < d <= d_max.

        Row (i, s) of Q_S, for block i and s < u = d - d_min, holds w_{l,i}
        x_{l,i}^(s-1) omega_i^q in column (l, q), for l in S and q < t =
        z - alpha/d: x_{l,i} is node l's psi point in block i, omega_i is
        Omega's point and w_{l,i} = 1/prod_{l' in S, l' != l} (x_{l,i} +
        x_{l',i}). Each (l, i) has one packed segment, its entries x^s
        omega_i^q for every s; a subset scales each segment by w_{l,i}
        x_{l,i}^-1, summed from logs of the points and their differences,
        and shifts it into l's columns. When the segment is the one symbol
        1 (d = d_min + 1 = z), the scalars are Q's entries.
        """
        f, z, n, lane = self.field, self.z, self.n, _lane_bits(self.field)
        exp, log, order = f._exp, f._log, f.order
        u, t = d - self.d_min, z - self.alpha // d
        width = z * u
        span = (u - 1) * width + t
        points = [[self._psi_row(l, i)[0] for i in range(1, z + 1)] for l in self.node_ids()]
        # logs[i][l][l'] = log(x_{l,i} + x_{l',i}) and logs[i][l][l] = log x_{l,i}
        # (0-based ids), so minus their sum over S is log(w_{l,i} x_{l,i}^-1)
        logs = [[[log[x[i] ^ y[i] if x is not y else x[i]] for y in points] for x in points] for i in range(z)]
        if span > 1:
            # segments[i][l]: x_{l,i}^s omega_i^q in lane s*width + q
            segments = []
            for i in range(z):
                omegas = [row[i] for row in self.Omega.data[:t]]
                segments.append([])
                for l in self.node_ids():
                    entries = [0] * span
                    for s, x in enumerate([1] + self._psi_row(l, i + 1)[: u - 1]):
                        entries[s * width : s * width + t] = [f.mul(x, w) for w in omegas]
                    segments[-1].append(_pack(f, entries))
            shifts = [lane * t * pos for pos in range(d)]
            mask = (1 << lane * width) - 1
        for subset in combinations(range(n), d):
            get = itemgetter(*subset)
            scalars = [exp[-sum(get(row)) % order] for rows in logs for row in get(rows)]
            if span == 1:
                yield tuple(l + 1 for l in subset), [_pack(f, scalars[j : j + d]) for j in range(0, z * d, d)]
                continue
            scaled = iter(_scale_packed(f, scalars, [seg for segs in segments for seg in get(segs)], span))
            rows = []
            for _ in range(z):
                block = 0
                for shift in shifts:
                    block |= next(scaled) << shift
                rows += [block >> lane * width * s & mask for s in range(u)]
            yield tuple(l + 1 for l in subset), rows

    def _block_index(self, r, c):
        """Position within the block's free symbols of entry (r, c) of M_i,
        None in the zero lower-right (d_min - k)^2 corner."""
        k, dm = self.k, self.d_min
        if r > c:
            r, c = c, r
        if r >= k:
            return None
        if c < k:
            return r * k - r * (r - 1) // 2 + (c - r)
        return k * (k + 1) // 2 + r * (dm - k) + (c - k)

    def descriptor(self):
        return {
            "family": "ambr",
            "n": self.n,
            "k": self.k,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "m": self.field.m,
            "modulus": self.field.modulus,
        }

    # --- encode / reconstruct ---

    random_message = RepairableCode.random_message

    def _generator(self):
        """Block i of node l is psi_{l,i}^t M_i: row (l, i, c) adds psi[r] at
        the free symbol of M_i[r][c], for all r."""
        dm, bs = self.d_min, self.block_symbols
        index = [[self._block_index(r, c) for r in range(dm)] for c in range(dm)]
        rows = []
        for l in self.node_ids():
            for i in range(1, self.z + 1):
                psi = self._psi_row(l, i)
                for c in range(dm):
                    row = [0] * self.message_length
                    for r, p in enumerate(index[c]):
                        if p is not None:
                            row[(i - 1) * bs + p] ^= psi[r]
                    rows.append(row)
        return Matrix(self.field, rows)

    encode = RepairableCode.encode
    reconstruct = RepairableCode.reconstruct

    # --- repair ---

    repair_multi = RepairableCode.repair_multi

    def _plan_key(self, shards, failed, helpers=None, d=None):
        if failure_count(self, failed) > self.k:
            raise ValueError("can repair 1..%d nodes at once" % self.k)
        if d is None:
            d = self.d_min
        if type(d) is not int or not self.d_min <= d <= self.d_max:
            raise InvalidHelperCountError("repair degree %r is not an int in %d..%d" % (d, self.d_min, self.d_max))
        failed, helpers = self._repair_nodes(shards, failed, helpers, d)
        return ("repair", failed, d, helpers)

    def _compile_plan(self, failed, d, helpers):
        """The sequential repair folded into one plan.

        The first failed node hears d helpers; each next one d_min sources,
        the nodes already regenerated plus fresh helpers. A fresh helper
        sends the first alpha/degree rows of the target's theta block times
        its shard; the decode map is solved from those sends.
        """
        sends = {h: [] for h in helpers}
        for idx, target in enumerate(failed):
            degree = self.d_min if idx else d
            for h in helpers[: degree - idx]:
                sends[h] += self._blocks[target - 1][: self.alpha // degree]
        f, a, g = self.field, self.alpha, self._generator_rows()
        lost = [g[(node - 1) * a + t] for node in failed for t in range(a)]
        decode = self._derive(self._received([(h, sends[h]) for h in helpers]), lost)[0]
        send = tuple(LinearMap(Matrix(f, sends[h])) for h in helpers)
        return RepairPlan(failed, helpers, send, LinearMap.from_columns(f, decode, len(lost)))

    def mbr_bandwidth_bound(self, e):
        if type(e) is not int or not 1 <= e <= self.k:
            raise ValueError("need an int e in 1..k = %d, got %r" % (self.k, e))
        return e * self.alpha - e * (e - 1) // 2 * self.z

    def coefficient_matrix(self, nodes):
        """Linear map message -> stacked contents of the given nodes."""
        check_input(self, (), 0, (), nodes)
        g, a = self.generator_matrix().data, self.alpha
        return Matrix(self.field, [g[(node - 1) * a + t] for node in nodes for t in range(a)])
