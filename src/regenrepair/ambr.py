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
for a grand total of e*alpha - C(e,2)*alpha/d_min.
"""

import random
from itertools import combinations
from math import prod

from .framework import (
    InvalidHelperCountError,
    RepairableCode,
    RepairProblem,
    RepairTranscript,
    check_input,
    check_message,
)
from .gf import Matrix, dot, mat_det, mat_solve, vandermonde, vec_mat


class AdaptiveMBRCode(RepairableCode):
    def __init__(self, field, n, k, d_min, d_max):
        if not 1 <= k <= d_min <= d_max <= n - 1:
            raise ValueError("need 1 <= k <= d_min <= d_max <= n-1")
        if d_max > 6 or d_max - d_min > 2:
            raise ValueError("desk-scale caps: d_max <= 6 and d_max - d_min <= 2")
        self.field = field
        self.n = n
        self.k = k
        self.d_min = d_min
        self.d_max = d_max
        self.alpha = prod(range(d_min, d_max + 1))
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
            points = sorted(rng.sample(pool, self.z * n))
            # rows [x, x^2, ..., x^d_min]: the Vandermonde rows without their leading 1
            self.Psi = Matrix(field, [row[1:] for row in vandermonde(field, points, d_min + 1).data])
            if all(
                mat_det(self._theta(subset, d)) != 0
                for d in range(d_min + 1, d_max + 1)
                for subset in combinations(range(1, n + 1), d)
            ):
                break
        else:
            raise ValueError("no point assignment found with invertible decode maps")

    # --- structure helpers ---

    def _psi_row(self, node, block):
        return self.Psi.data[(node - 1) * self.z + (block - 1)]

    def _theta(self, sources, d):
        """Stacked compressed evaluation map: alpha x alpha when |sources| = d."""
        rows_per = self.alpha // d
        data = []
        for src in sources:
            for r in range(rows_per):
                row = [0] * (self.z * self.d_min)
                for i in range(1, self.z + 1):
                    w = self.Omega.data[r][i - 1]
                    psi = self._psi_row(src, i)
                    base = (i - 1) * self.d_min
                    for c in range(self.d_min):
                        row[base + c] = self.field.mul(w, psi[c])
                data.append(row)
        return Matrix(self.field, data)

    def _block_entry(self, block_values, r, c):
        """Entry (r, c) of M_i given the block's free symbols."""
        k, dm = self.k, self.d_min
        if r > c:
            r, c = c, r
        if r >= k:
            return 0  # lower-right (d_min - k)^2 corner
        if c < k:
            return block_values[r * k - r * (r - 1) // 2 + (c - r)]
        return block_values[k * (k + 1) // 2 + r * (dm - k) + (c - k)]

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

    def random_message(self, rng):
        return [rng.randrange(self.field.size) for _ in range(self.message_length)]

    def _blocks(self, data):
        bs = self.block_symbols
        out = []
        for i in range(self.z):
            vals = data[i * bs : (i + 1) * bs]
            entries = [[self._block_entry(vals, r, c) for c in range(self.d_min)] for r in range(self.d_min)]
            out.append(Matrix(self.field, entries))
        return out

    def encode(self, data):
        check_message(self, data)
        blocks = self._blocks(data)
        shards = {}
        for l in self.node_ids():
            content = []
            for i in range(1, self.z + 1):
                content.extend(vec_mat(self._psi_row(l, i), blocks[i - 1]))
            shards[l] = content
        return shards

    def reconstruct(self, shards):
        """Message from any k shards, block by block: the trailing columns
        pin L_i through the leading k x k evaluations, then N_i follows."""
        nodes = sorted(shards)[: self.k]
        if len(nodes) < self.k:
            raise ValueError("need at least k shards")
        check_input(self, shards, self.alpha, nodes)
        f, k, dm = self.field, self.k, self.d_min
        out = []
        for i in range(1, self.z + 1):
            rows = [shards[node][(i - 1) * dm : i * dm] for node in nodes]
            phi = Matrix(f, [[self._psi_row(node, i)[c] for c in range(k)] for node in nodes])
            delta = [[self._psi_row(node, i)[c] for c in range(k, dm)] for node in nodes]
            lmat = []  # L_i, one solved column at a time
            for c in range(dm - k):
                col = mat_solve(phi, [rows[r][k + c] for r in range(k)])
                lmat.append(col)
            nmat = []
            for c in range(k):
                rhs = []
                for r in range(k):
                    acc = rows[r][c]
                    for j in range(dm - k):
                        acc = f.add(acc, f.mul(delta[r][j], lmat[j][c]))
                    rhs.append(acc)
                nmat.append(mat_solve(phi, rhs))
            for r in range(k):
                for c in range(r, k):
                    out.append(nmat[c][r])
            for r in range(k):
                for c in range(dm - k):
                    out.append(lmat[c][r])
        return out

    # --- repair ---

    def _transfer(self, shard, target, d):
        """alpha/d symbols a source sends toward a failed node."""
        f = self.field
        dm = self.d_min
        s = [dot(f, shard[(i - 1) * dm : i * dm], self._psi_row(target, i)) for i in range(1, self.z + 1)]
        rows_per = self.alpha // d
        return [dot(f, self.Omega.data[r], s) for r in range(rows_per)]

    def _regenerate(self, sources, transfers, d):
        theta = self._theta(sources, d)
        t = []
        for src in sources:
            t.extend(transfers[src])
        return mat_solve(theta, t)

    def repair_multi(self, shards, failed, helpers=None, d=None):
        failed = tuple(sorted(set(failed)))
        e = len(failed)
        if not 1 <= e <= self.k:
            raise ValueError("can repair 1..k nodes at once")
        if set(failed) & set(shards):
            raise ValueError("failed nodes must be erased")
        if d is None:
            d = self.d_min
        if not self.d_min <= d <= self.d_max:
            raise InvalidHelperCountError("repair degree %d out of range" % d)
        if e + d > self.n:
            raise InvalidHelperCountError("need e + d <= n")
        survivors = [h for h in sorted(shards) if h not in failed]
        if helpers is None:
            helpers = survivors[:d]
        helpers = tuple(sorted(helpers))
        if len(helpers) != d or any(h not in shards for h in helpers):
            raise InvalidHelperCountError("need shards from exactly d = %d helpers" % d)
        check_input(self, shards, self.alpha, helpers, failed)
        RepairProblem(failed=failed, helpers=helpers)
        per_helper = {h: 0 for h in helpers}
        contents = {}
        first = failed[0]
        transfers = {h: self._transfer(shards[h], first, d) for h in helpers}
        contents[first] = self._regenerate(helpers, transfers, d)
        for h in helpers:
            per_helper[h] += self.alpha // d
        for idx in range(1, e):
            target = failed[idx]
            local = list(failed[:idx])
            fresh = list(helpers[: self.d_min - idx])
            sources = sorted(local + fresh)
            transfers = {}
            for src in local:
                transfers[src] = self._transfer(contents[src], target, self.d_min)
            for src in fresh:
                transfers[src] = self._transfer(shards[src], target, self.d_min)
                per_helper[src] += self.z
            contents[target] = self._regenerate(sources, transfers, self.d_min)
        transcript = RepairTranscript(per_helper=per_helper)
        return contents, transcript

    def mbr_bandwidth_bound(self, e):
        if not 1 <= e <= self.k:
            raise ValueError("need 1 <= e <= k")
        return e * self.alpha - e * (e - 1) // 2 * self.z

    def coefficient_matrix(self, nodes):
        """Linear map message -> stacked contents of the given nodes."""
        cols = []
        for j in range(self.message_length):
            basis = [0] * self.message_length
            basis[j] = 1
            shards = self.encode(basis)
            col = []
            for node in nodes:
                col.extend(shards[node])
            cols.append(col)
        rows = len(nodes) * self.alpha
        return Matrix(self.field, [[cols[c][r] for c in range(self.message_length)] for r in range(rows)])
