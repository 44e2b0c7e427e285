"""Interference-alignment minimum-storage code: n = 2k, d = 2k-1, alpha = k.

Systematic nodes 1..k store the raw data vectors w_1..w_k; parity node k+i
stores w-bar_i with w-bar_i^t = sum_j w_j^t (u_i v_j^t + P_{j,i} I). Repair
of a failed node downloads one inner product from each of the other 2k-1
nodes, its content projected on v'_l toward systematic l or on u_m toward
parity k+m; every node's decoder over all the others comes from the
framework's table, derived from these projections and the generator.
With e failures the 2k-e survivors all act as helpers and the
cross-failure transfers are recovered from the coupling system, whose
rows are derived from the single-failure repair: the missing transfer
x -> y is the projection toward y of x's decode from its transfers, and
the framework builds those rows and their views, coupling_system and
assemble_multi, for IA as for PM (_coupling_rows). The
whole repair of a pattern compiles into one repair plan, on packed rows
(gf._pack) from the coupling rows to the decode map: the coupling solve
over the received transfers, folded into each failed node's decoder. A
singular pattern's dependent transfers come from that same reduction.

condition_check decides repairability. With s failed systematic nodes S
and p failed parity indices J, the coupling determinant is
kappa^(2sp) (1 + kappa^2)^(C(s,2) + C(p,2)) det(I + G)^(s+p) for
G = P[S,J] P'[S,J]^t, so det(I + G) != 0 decides every pattern; the proof
is in docs/ia-repairability.md. All arithmetic is over GF(2^m), where
addition and subtraction coincide, so minus is evaluated as plus and
kappa^2 != 1 reduces to kappa != 1. condition_check and the failure
limit, k, are CouplingCode's, the framework base IA shares with PM; IA
gives this test as _repairable, which workbench.search_assignment calls
alone to vet IA coefficients on the patterns it generates. Each entry of
G is a sum of products P[a][c] P'[b][c]; a code tabulates them once, on
its first pattern with failures on both sides, so a pattern costs XORs
and a determinant of the smaller side.
"""

from .framework import CouplingCode, RepairableCode, RepairPlan, _is_word, dependent_pairs
from .gf import LinearMap, Matrix, _mul_packed, _pack, _reduce, _reduce_packed, mat_inv, mat_mul
from .gf import all_square_submatrices_invertible, cauchy


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


class IACode(CouplingCode):
    def __init__(self, field, k, P=None, V=None, kappa=None):
        if type(k) is not int or k < 1:
            raise ValueError("need an int k >= 1")
        self.field = field
        self.k = k
        self.n = 2 * k
        self.d = 2 * k - 1
        self.alpha = self.shard_length = k
        for name, given in (("P", P), ("V", V)):
            if given is not None and not (
                isinstance(given, Matrix) and given.rows == k and all(_is_word(field, r, k) for r in given.data)
            ):
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

    coupling_system = CouplingCode.coupling_system
    assemble_multi = CouplingCode.assemble_multi
    repair_multi = RepairableCode.repair_multi

    def _plan_key(self, shards, failed, helpers=None):
        """All n-e survivors help: d-e+1 = n-e here."""
        e = self._failures(failed)
        return ("repair", self._repair_nodes(shards, failed, helpers, self.n - e)[0])

    def _compile_plan(self, failed):
        """Every survivor sends one symbol toward each failed node.

        The unknown transfers solve A s = K r, with r the received symbols.
        A's packed rows come from _coupling_rows in unknown_pairs order, and
        K's lanes are ORed in, r failed-major so the helpers' weights toward
        x are one slice. One Gauss-Jordan gives s = A^-1 K r; node i's
        decode is the solved rows of the transfers toward i times i's
        decoder columns, plus its helper columns, read helper-major as
        received. A singular A compiles to a singular plan naming its
        dependent transfers, the pivotless columns of that same reduction.
        """
        f, e = self.field, len(failed)
        helpers = tuple(h for h in self.node_ids() if h not in failed)
        pool = frozenset(self.node_ids())  # _pool_decoder keeps a frozenset as is
        pairs, rows = self._coupling_rows(failed, pool)
        span, size = len(helpers), len(pairs)
        width = size + e * span
        start = {x: size + b * span for b, x in enumerate(failed)}  # K's columns for the transfers toward x
        # the helpers' weights in x's decoder table, in node order
        weights = {x: [w for h, (_, w) in self._pool_decoder(x, pool).items() if h not in failed] for x in failed}
        for t, (x, y) in enumerate(pairs):
            rows[t] |= _pack(f, [w[y - 1] for w in weights[x]], start[x])
        pivots, _ = _reduce_packed(f, rows, width, size, True)
        if len(pivots) < size:
            return RepairPlan(failed, (), (), None, dependent_pairs(pairs, pivots))
        solved = dict(zip(pairs, rows))
        decode = []
        for i in failed:
            columns = self._pool_decoder(i, pool)
            others = [l for l in failed if l != i]
            coefs = list(zip(*(columns[l][0] for l in others))) or [()] * self.alpha
            part = _mul_packed(f, coefs, [solved[(l, i)] for l in others], width)
            decode += [row ^ _pack(f, own, start[i]) for row, own in zip(part, zip(*(columns[h][0] for h in helpers)))]
        received = [start[x] + a for a in range(span) for x in failed]
        send = LinearMap(Matrix(f, [self._projection(j) for j in failed]))
        return RepairPlan(failed, helpers, (send,) * span, LinearMap.from_packed(f, decode, width, received))

    # --- repairability ---

    def _repairable(self, failed):
        """condition_check's verdict on failed, a sorted tuple of distinct
        node ids within _failures' limit, unchecked: the search vets its
        patterns here.

        Always when every failure is on one side. With failed systematic
        nodes S and parity indices J on both: det(I + G) != 0 for
        G = P[S,J] P'[S,J]^t, formed on the smaller side by Sylvester's
        identity: the coupling determinant is a nonzero multiple of
        det(I + G)^e (docs/ia-repairability.md), so A is never built. Each
        entry of G is a sum of products read from _products, so forming
        I + G takes XORs alone. I + G of one or two rows is decided by its
        determinant written out, g00 or g00 g11 + g01 g10; larger ones are
        reduced."""
        k = self.k
        rows = [x - 1 for x in failed if x <= k]
        cols = [x - k - 1 for x in failed if x > k]
        if not rows or not cols:
            return True
        products, twin = self._products()
        if len(rows) > len(cols):
            products, rows, cols = twin, cols, rows
        g = []  # I + G, row by row
        for a in rows:
            g.append([])
            for b in rows:
                terms, acc = products[a][b], int(a == b)
                for c in cols:
                    acc ^= terms[c]
                g[-1].append(acc)
        if len(g) == 1:
            return g[0][0] != 0
        mul = self.field.mul
        if len(g) == 2:
            return mul(g[0][0], g[1][1]) != mul(g[0][1], g[1][0])
        return _reduce(self.field, g, len(g), False)[1] != 0

    def _products(self):
        """(products, twin) with products[a][b][c] = P[a][c] P'[b][c], the
        terms of G's entries on the systematic side, and twin[a][b][c] =
        P[c][a] P'[c][b], those of its transpose on the parity side. Built
        on the first pattern with failures on both sides and kept with the
        code, as the sent-row table is, so construction never pays for it."""
        table = self.__dict__.get("_product_table")
        if table is None:
            P, Pd, mul, span = self.P.data, self.Pd.data, self.field.mul, range(self.k)
            products = [[[mul(P[a][c], Pd[b][c]) for c in span] for b in span] for a in span]
            twin = [[[mul(P[c][a], Pd[c][b]) for c in span] for b in span] for a in span]
            table = self._product_table = (products, twin)
        return table
