"""Product-matrix minimum-storage code: d = 2k-2, alpha = k-1, beta = 1.

Node i (ids are 1-based) stores psi_i^t M where psi_i = [1, lam_i, ...,
lam_i^{d-1}] and M stacks two symmetric (alpha x alpha) matrices S1, S2.
Single repair sends one inner product per helper; repairing e nodes at
once routes the missing cross-failure transfers through the coupling
system of the framework module.

A live node sends w^t phi_j toward node j, phi_j being row j of Phi (the
first alpha columns of Psi); that is the family's projection. Node i's
decoder over the rest of a pool of d+1 nodes (failed + helpers) comes from
the framework's table (RepairableCode._pool_decoder): its column c_{i,l}
weighs the transfer from l, so node i's content is sum_l t_{l->i} c_{i,l}.
The coupling coefficient of (i, j, l) is c_{i,l} . phi_j, and the
right-hand side of row (i, j) is the helpers' part of node i's decode
projected on phi_j.
"""

import random

from .framework import CouplingSystem, RepairableCode, RepairTranscript, _is_word, check_input, check_message
from .gf import Matrix, dot, vandermonde


def _axpy(field, acc, coef, row):
    """acc += coef * row, in place."""
    if coef:
        mul = field.mul
        for c, x in enumerate(row):
            if x:
                acc[c] ^= mul(coef, x)


class PMCode(RepairableCode):
    def __init__(self, field, n, k, lambdas=None):
        if k < 2:
            raise ValueError("need k >= 2 so that alpha = k-1 >= 1")
        d = 2 * k - 2
        if n < d + 1:
            raise ValueError("need n >= d+1 = %d to run repairs" % (d + 1))
        if lambdas is None:
            if n > field.order:
                raise ValueError("field too small for %d default points" % n)
            g = field.generator
            lambdas = [field.pow(g, t) for t in range(n)]
        if not _is_word(field, lambdas, n):
            raise ValueError("need one lambda per node, each an int in 0..%d" % field.order)
        if len(set(lambdas)) != n:
            raise ValueError("lambdas must be distinct")
        alpha = k - 1
        if len({field.pow(x, alpha) for x in lambdas}) != n:
            raise ValueError("alpha-th powers of lambdas must be distinct")
        self.field = field
        self.n = n
        self.k = k
        self.d = d
        self.alpha = self.shard_length = alpha
        self.lambdas = list(lambdas)
        self.Psi = vandermonde(field, lambdas, d)
        self.Phi = self.Psi.submatrix(range(n), range(alpha))

    # --- message handling ---

    @property
    def message_length(self):
        return self.k * (self.k - 1)

    random_message = RepairableCode.random_message

    def _positions(self):
        """d x alpha table of the message position that fills each entry of
        M: S1 and S2 upper triangles row-major, mirrored below."""
        a = self.alpha
        table = [[0] * a for _ in range(self.d)]
        pos = 0
        for block in range(2):
            for r in range(a):
                for c in range(r, a):
                    table[block * a + r][c] = table[block * a + c][r] = pos
                    pos += 1
        return table

    def message_matrix(self, msg):
        """Fill S1 and S2 upper triangles row-major and stack them (d x alpha)."""
        check_message(self, msg)
        return Matrix(self.field, [[msg[p] for p in row] for row in self._positions()])

    def _generator(self):
        """Row (i, c) adds psi_i[a] at the position feeding M[a][c], for all a."""
        positions = self._positions()
        rows = []
        for psi in self.Psi.data:
            for c in range(self.alpha):
                row = [0] * self.message_length
                for a, x in enumerate(psi):
                    row[positions[a][c]] ^= x
                rows.append(row)
        return Matrix(self.field, rows)

    encode = RepairableCode.encode
    reconstruct = RepairableCode.reconstruct

    # --- repair ---

    def _projection(self, target):
        """phi_target: what a live node projects its content on toward target."""
        return self.Phi.data[target - 1]

    repair_transfer = RepairableCode.repair_transfer
    coupling_coefficient = RepairableCode.coupling_coefficient

    def coupling_matrix(self, failed, helpers):
        """The coupling system of a pattern with b left at zero.

        A depends on the lambdas alone, so no shard is needed to vet it.
        Row (i, j) gets the weight of each other failed node l in the slot
        of the transfer l -> i. Ids that are not nodes raise
        InvalidRepairInputError.
        """
        check_input(self, (), 0, (), [*failed, *helpers])
        system = CouplingSystem(self.field, failed)
        pool = frozenset(system.failed) | frozenset(helpers)
        slot = system.slot
        for row, (i, j) in zip(system.A.data, system.pairs):
            for l in system.failed:
                if l != i:
                    row[slot[(l, i)]] ^= self.coupling_coefficient(i, j, l, pool)
        return system

    def _assemble(self, shards, failed, helpers):
        """Coupling system, helper transfers, and each failed node's partial
        decode p_i = sum_h r_{h->i} c_{i,h} from the helpers alone."""
        f = self.field
        failed = tuple(sorted(failed))
        decoders = {i: self._pool_decoder(i, failed + tuple(helpers)) for i in failed}
        received = {}
        for h in helpers:
            for j in failed:
                received[(h, j)] = self.repair_transfer(shards[h], j)
        parts = {}
        for i in failed:
            acc = [0] * self.alpha
            for h in helpers:
                _axpy(f, acc, received[(h, i)], decoders[i][h][0])
            parts[i] = acc
        system = self.coupling_matrix(failed, helpers)
        for (i, j), t in system.slot.items():
            system.b[t] = dot(f, parts[i], self.Phi.data[j - 1])
        return system, received, parts

    def assemble_multi(self, shards, failed, helpers):
        """Build the coupling system plus the transfers received from helpers."""
        system, received, _ = self._assemble(shards, failed, helpers)
        return system, received

    def repair_multi(self, shards, failed, helpers=None):
        """Solve the coupling system of the pattern, then finish each failed
        node's decode with the transfers of the other failed nodes. The
        transcript counts the transfers computed for each helper."""
        e = len(set(failed))
        if e > min(self.n - self.k, self.k - 1):
            raise ValueError("can repair 1..min(n-k, k-1) nodes at once")
        failed, helpers = self._repair_nodes(shards, failed, helpers, self.d - e + 1)
        system, received, contents = self._assemble(shards, failed, helpers)
        solved = system.solve() if e > 1 else {}
        for i in failed:
            columns = self._pool_decoder(i, failed + helpers)
            for l in failed:
                if l != i:
                    _axpy(self.field, contents[i], solved[(l, i)], columns[l][0])
        per_helper = dict.fromkeys(helpers, 0)
        for h, _ in received:
            per_helper[h] += 1
        return contents, RepairTranscript(per_helper)

    def descriptor(self):
        return {
            "family": "pm",
            "n": self.n,
            "k": self.k,
            "m": self.field.m,
            "modulus": self.field.modulus,
            "lambdas": list(self.lambdas),
        }


def field_search(field, n, k, e_max, trials=200, seed=0):
    """Randomized search for a lambda assignment with no singular patterns.

    Multi-repair of e nodes needs d-e+1 >= k helpers, so e is capped at
    min(e_max, n-k, k-1). Singularity only depends on the lambdas, never
    on the message, so candidates are vetted by the determinant of the
    coupling matrix alone; no message is encoded. A trial stops counting
    once it has as many singular patterns as the best trial so far, which
    it then cannot beat. Returns the first clean lambdas, or raises
    AssignmentNotFoundError with the first lambdas of fewest singular
    patterns. k < 2, n < 2k-1, a field with fewer than n elements, no
    trials or e_max < 1 raise ValueError before any trial.
    """
    from itertools import combinations

    from .workbench import AssignmentNotFoundError

    if k < 2 or n < 2 * k - 1:
        raise ValueError("no PM code has n = %d, k = %d: need k >= 2 and n >= 2k-1" % (n, k))
    if n > field.size:
        raise ValueError("GF(2^%d) has %d elements, too few for %d distinct lambdas" % (field.m, field.size, n))
    if trials < 1 or e_max < 1:
        raise ValueError("need at least one trial and e_max >= 1")
    e_cap = min(e_max, n - k, k - 1)
    rng = random.Random(seed)
    elements = list(field.elements())
    best = None
    best_bad = None
    for _ in range(trials):
        lambdas = rng.sample(elements, n)
        try:
            code = PMCode(field, n, k, lambdas)
        except ValueError:
            continue
        bad = 0
        for pattern in (p for e in range(2, e_cap + 1) for p in combinations(code.node_ids(), e)):
            helpers = [i for i in code.node_ids() if i not in pattern][: code.d - len(pattern) + 1]
            if code.coupling_matrix(pattern, helpers).determinant() == 0:
                bad += 1
                if best_bad is not None and bad >= best_bad:
                    break
        if bad == 0:
            return lambdas
        if best_bad is None or bad < best_bad:
            best, best_bad = lambdas, bad
    raise AssignmentNotFoundError("pm", best=best, best_failures=best_bad)
