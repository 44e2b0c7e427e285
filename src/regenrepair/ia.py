"""Interference-alignment minimum-storage code: n = 2k, d = 2k-1, alpha = k.

Systematic nodes 1..k store the raw data vectors w_1..w_k; parity node k+i
stores w-bar_i with w-bar_i^t = sum_j w_j^t (u_i v_j^t + P_{j,i} I). Repair
of a failed node downloads one inner product from each of the other 2k-1
nodes, its content projected on v'_l toward systematic l or on u_m toward
parity k+m; every node's decoder over all the others comes from the
framework's table, derived from these projections and the generator.
With e failures the 2k-e survivors all act as helpers and the
cross-failure transfers are recovered from the coupling system. Its rows
are derived from the single-failure repair: the missing transfer x -> y
is the projection toward y of x's decode from its transfers. The whole
repair of a pattern compiles into one repair plan: the coupling solve
over the received transfers, folded into each failed node's decoder.

condition_check decides repairability. With S the failed systematic
nodes and J the failed parity indices, a pattern is repairable when
det(I + P[S,J] P'[S,J]^t) != 0 on the (|S|, |J|) shapes (1, 1), (2, 1),
(1, 2), (3, 1), (1, 3) and (2, 2); until that closed form is proven, the
coupling determinant decides the other shapes with failures on both sides.
All arithmetic is over GF(2^m), where addition and subtraction coincide,
so minus is evaluated as plus and kappa^2 != 1 reduces to kappa != 1.
"""

import random

from .framework import CouplingSystem, RepairableCode, RepairPlan, _is_word, check_input
from .gf import (
    LinearMap,
    Matrix,
    _reduce,
    all_square_submatrices_invertible,
    cauchy,
    mat_inv,
    mat_mul,
)


class UnsupportedPatternError(ValueError):
    """Not raised: condition_check answers every pattern. Kept for callers that catch it."""


def default_p_matrix(field, k):
    """Power table g^{(i-1)(j-1)}, falling back to a Cauchy matrix when some
    square submatrix degenerates."""
    g = field.generator
    data = [[field.pow(g, (r - 1) * (c - 1)) for c in range(1, k + 1)] for r in range(1, k + 1)]
    p = Matrix(field, data)
    if all_square_submatrices_invertible(p):
        return p
    if 2 * k > field.size:
        raise ValueError("field too small for a Cauchy fallback")
    elems = list(field.elements())
    return cauchy(field, elems[:k], elems[k : 2 * k])


def default_kappa(field):
    for x in field.elements():
        if x != 0 and field.mul(x, x) != 1:
            return x
    raise ValueError("field has no kappa with kappa^2 != 1")


class IACode(RepairableCode):
    def __init__(self, field, k, P=None, V=None, kappa=None):
        if k < 1:
            raise ValueError("need k >= 1")
        self.field = field
        self.k = k
        self.n = 2 * k
        self.d = 2 * k - 1
        self.alpha = self.shard_length = k
        for name, given in (("P", P), ("V", V)):
            if given is not None and not (given.rows == k and all(_is_word(field, r, k) for r in given.data)):
                raise ValueError("%s must be k x k ints in 0..%d" % (name, field.order))
        if V is None:
            V = Matrix.identity(field, k)
        if P is None:
            P = default_p_matrix(field, k)
        elif not all_square_submatrices_invertible(P):
            raise ValueError("every square submatrix of P must be invertible")
        if kappa is None:
            kappa = default_kappa(field)
        if not _is_word(field, [kappa], 1) or kappa == 0 or field.mul(kappa, kappa) == 1:
            raise ValueError("kappa must be an int in 0..%d with kappa != 0 and kappa^2 != 1" % field.order)
        self.V = V
        self.P = P
        self.kappa = kappa
        self.Vd = mat_inv(V).transpose()  # V'
        self.Pd = mat_inv(P).transpose()  # P'
        # U = kappa^{-1} V' P
        inv_kappa = field.inv(kappa)
        self.U = Matrix(
            field,
            [[field.mul(inv_kappa, x) for x in row] for row in mat_mul(self.Vd, P).data],
        )

    # --- structure helpers ---

    def is_systematic(self, node):
        return 1 <= node <= self.k

    def _col(self, m, j):
        return [m.data[r][j - 1] for r in range(self.k)]

    def descriptor(self):
        return {
            "family": "ia",
            "k": self.k,
            "m": self.field.m,
            "modulus": self.field.modulus,
            "kappa": self.kappa,
            "P": [list(r) for r in self.P.data],
            "V": [list(r) for r in self.V.data],
        }

    # --- encode / reconstruct ---

    @property
    def message_length(self):
        return self.k * self.alpha

    random_message = RepairableCode.random_message

    def _generator(self):
        """Systematic node j stores w_j; parity node k+i stores, at t,
        sum_j (w_j . u_i) V[t][j] + P[j][i] w_j[t]."""
        f = self.field
        rows = []
        for node in self.node_ids():
            for t in range(self.alpha):
                row = [0] * self.message_length
                if self.is_systematic(node):
                    row[(node - 1) * self.alpha + t] = 1
                else:
                    i = node - self.k
                    u_i = self._col(self.U, i)
                    for j in range(1, self.k + 1):
                        base = (j - 1) * self.alpha
                        vj_t = self.V.data[t][j - 1]
                        for s, u in enumerate(u_i):
                            row[base + s] ^= f.mul(u, vj_t)
                        row[base + t] ^= self.P.data[j - 1][i - 1]
                rows.append(row)
        return Matrix(f, rows)

    encode = RepairableCode.encode
    reconstruct = RepairableCode.reconstruct

    # --- single-node repair ---

    def _projection(self, target):
        """What a live node projects its content on toward failed node
        target: v'_l for a systematic target l, u_m for a parity target k+m."""
        if self.is_systematic(target):
            return self._col(self.Vd, target)
        return self._col(self.U, target - self.k)

    # --- multi-node repair ---

    def coupling_system(self, failed):
        """Coupling matrix for a pattern plus the known-term recipe for b.

        x sends s_{x->y} = projection_y . content_x, and x's content is its
        single-failure decode, so row (x, y) weighs the transfer from each
        source l toward x by entry y-1 of its weights in x's decoder table
        over every node. The weight from a failed source lands in its slot
        of the row; a nonzero one from a helper goes to known[(x, y)] as
        (source, weight), to be weighted by the received transfer.
        """
        check_input(self, (), 0, (), failed)
        system = CouplingSystem(self.field, failed)
        failed, pool = system.failed, frozenset(self.node_ids())  # _pool_decoder keeps a frozenset as is
        split = {}
        for x in failed:
            columns = self._pool_decoder(x, pool)
            coupled = [(system.slot[(l, x)], columns[l][1]) for l in failed if l != x]
            split[x] = coupled, [(l, weights) for l, (_, weights) in columns.items() if l not in failed]
        known = {}
        for row, (x, y) in zip(system.A.data, system.pairs):
            coupled, helpers = split[x]
            t = y - 1
            for col, weights in coupled:
                row[col] ^= weights[t]
            known[(x, y)] = [(l, w) for l, weights in helpers if (w := weights[t])]
        return system, known

    def assemble_multi(self, shards, failed):
        f = self.field
        failed = tuple(sorted(failed))
        system, known = self.coupling_system(failed)
        failed_set = set(failed)
        helpers = [h for h in sorted(shards) if h not in failed_set]
        received = {}
        for h in helpers:
            for j in failed:
                received[(h, j)] = self.repair_transfer(shards[h], j)
        for (x, y), terms in known.items():
            acc = 0
            for src, weight in terms:
                acc = f.add(acc, f.mul(weight, received[(src, x)]))
            system.b[system.slot[(x, y)]] = acc
        return system, received

    repair_multi = RepairableCode.repair_multi

    def _plan_key(self, shards, failed, helpers=None):
        """All n-e survivors help: d-e+1 = n-e here."""
        e = len(set(failed))
        if e > self.k:
            raise ValueError("can repair 1..k nodes at once")
        return ("repair", self._repair_nodes(shards, failed, helpers, self.n - e)[0])

    def _compile_plan(self, failed):
        """Every survivor sends one symbol toward each failed node.

        The unknown transfers solve A s = K r, with r the received symbols
        and K the known-term coefficients of b, so one Gauss-Jordan on
        [A | K] gives s = A^-1 K r; folding that into each target's decoder
        gives the decode map. A singular A compiles to a singular plan
        naming the dependent transfers.
        """
        f, e = self.field, len(failed)
        pool = self.node_ids()
        helpers = tuple(h for h in pool if h not in failed)
        # received symbol a*e + b is helper a's transfer toward failed[b]
        at = {(h, j): a * e + b for a, h in enumerate(helpers) for b, j in enumerate(failed)}
        width = len(at)
        system, known = self.coupling_system(failed)
        size = system.size
        aug = [row + [0] * width for row in system.A.data]
        for row, (x, y) in zip(aug, system.pairs):
            for src, weight in known[(x, y)]:
                row[size + at[(src, x)]] ^= weight
        pivots, _ = _reduce(f, aug, size, True)
        if len(pivots) < size:
            return RepairPlan(failed, (), (), None, system.dependent(pivots))
        decode = []
        for b, i in enumerate(failed):
            # node i's decode reads the transfers of the other failed nodes
            # through A^-1 K and each helper's transfer as received
            columns = self._pool_decoder(i, pool)
            others = [r for r, (src, dst) in enumerate(system.pairs) if dst == i]
            part = Matrix.zero(f, self.alpha, width)
            if others:
                part = mat_mul(
                    Matrix(f, [list(row) for row in zip(*(columns[system.pairs[r][0]][0] for r in others))]),
                    Matrix(f, [aug[r][size:] for r in others]),
                )
            for a, h in enumerate(helpers):
                for out, x in zip(part.data, columns[h][0]):
                    out[a * e + b] ^= x
            decode += part.data
        send = LinearMap(Matrix(f, [self._projection(j) for j in failed]))
        return RepairPlan(failed, helpers, (send,) * len(helpers), LinearMap(Matrix(f, decode)))

    # --- repairability ---

    def condition_check(self, failed):
        """Whether the coupling system of a failure pattern is solvable.

        Always when every failure is on one side. With failed systematic
        nodes S and parity indices J on both: det(I + G) != 0 for
        G = P[S,J] P'[S,J]^t, formed on the smaller side by Sylvester's
        identity, on the (|S|, |J|) shapes (1, 1), (2, 1), (1, 2), (3, 1),
        (1, 3) and (2, 2); the coupling determinant on the other shapes.
        Ids that are not nodes raise InvalidRepairInputError.
        """
        check_input(self, (), 0, (), failed)
        k, failed = self.k, tuple(sorted(set(failed)))
        rows = [x - 1 for x in failed if x <= k]
        cols = [x - k - 1 for x in failed if x > k]
        if not rows or not cols:
            return True
        if (len(rows), len(cols)) not in {(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)}:
            return self.coupling_system(failed)[0].determinant() != 0
        P, Pd, mul = self.P.data, self.Pd.data, self.field.mul
        if len(rows) > len(cols):
            P, Pd, rows, cols = list(zip(*P)), list(zip(*Pd)), cols, rows
        g = []  # I + G, row by row
        for a in rows:
            g.append([])
            for b in rows:
                acc = int(a == b)
                for c in cols:
                    acc ^= mul(P[a][c], Pd[b][c])
                g[-1].append(acc)
        return _reduce(self.field, g, len(g), False)[1] != 0


def field_search(field, k, e_max, trials=200, seed=0):
    """Search for IA coefficients whose sweeps are clean for all e <= e_max.

    Trial zero uses the default construction; later trials draw random P
    matrices (filtered by the all-submatrix condition) and random kappa.
    Every pattern is vetted by condition_check. A trial stops counting
    once it has as many singular patterns as the best trial so far, which
    it then cannot beat. Returns the first clean code, or raises
    AssignmentNotFoundError with the first code of fewest singular
    patterns. k < 1, a field with no kappa (GF(2)), no trials or e_max < 1
    raise ValueError before any trial.
    """
    from itertools import combinations

    from .workbench import AssignmentNotFoundError

    kappas = [x for x in field.elements() if x not in (0, 1)]
    if k < 1 or not kappas:
        raise ValueError("no IA code has k = %d over GF(2^%d): need k >= 1 and a kappa != 0, 1" % (k, field.m))
    if trials < 1 or e_max < 1:
        raise ValueError("need at least one trial and e_max >= 1")
    rng = random.Random(seed)
    e_cap = min(e_max, k)
    best = None
    best_bad = None
    for trial in range(trials):
        try:
            if trial == 0:
                code = IACode(field, k)
            else:
                data = [[rng.randrange(1, field.size) for _ in range(k)] for _ in range(k)]
                p = Matrix(field, data)
                if not all_square_submatrices_invertible(p):
                    continue
                code = IACode(field, k, P=p, kappa=kappas[rng.randrange(len(kappas))])
        except ValueError:
            continue
        bad = 0
        patterns = (pattern for e in range(2, e_cap + 1) for pattern in combinations(code.node_ids(), e))
        for pattern in patterns:
            if not code.condition_check(pattern):
                bad += 1
                if best_bad is not None and bad >= best_bad:
                    break
        if bad == 0:
            return code
        if best_bad is None or bad < best_bad:
            best, best_bad = code, bad
    raise AssignmentNotFoundError("ia", best=best, best_failures=best_bad)
