"""Product-matrix minimum-storage code: d = 2k-2, alpha = k-1, beta = 1.

Node i (ids are 1-based) stores psi_i^t M where psi_i = [1, lam_i, ...,
lam_i^{d-1}] and M stacks two symmetric (alpha x alpha) matrices S1, S2.
Single repair sends one inner product per helper; repairing e nodes at
once routes the missing cross-failure transfers through the coupling
system of the framework module.

A live node sends w^t phi_j toward node j, phi_j being row j of Phi (the
first alpha columns of Psi); that is the family's projection. Node i's
decoder over the rest of a pool of d+1 nodes (failed + helpers) comes from
the framework's table (CouplingCode._pool_decoder): its column c_{i,l}
weighs the transfer from l, so node i's content is sum_l t_{l->i} c_{i,l}.
The coupling coefficient of (i, j, l) is c_{i,l} . phi_j, and the
right-hand side of row (i, j) is the helpers' part of node i's decode
projected on phi_j. The framework writes these rows, packed (gf._pack),
for repairs, condition_check and its views coupling_system and
assemble_multi (_coupling_rows); PM binds assemble_multi.

condition_check and the failure limit, min(n-k, k-1), are CouplingCode's;
PM gives _repairable, the unchecked core of condition_check that
workbench.search_assignment calls directly. Patterns of two and three
failures need no rows: their coupling determinants are written out in the
coefficients c(i,j,l) = coupling_coefficient(i, j, l, pool), the weight of
the transfer l -> i in row (i, j), which _repairable reads straight from
node i's decoder columns. A pattern {a, b} has the matrix
[[1, c(a,b,b)], [c(b,a,a), 1]], singular exactly when c(a,b,b) c(b,a,a) = 1
over GF(2^m). A pattern
{a, b, c} has a 6 x 6 matrix with three nonzeros per row, whose
determinant over GF(2^m) has 20 terms. With
  p_ab = c(a,b,b) c(b,a,a), p_ac = c(a,c,c) c(c,a,a), p_bc = c(b,c,c) c(c,b,b),
  x_a = c(a,b,c) c(a,c,b), x_b = c(b,a,c) c(b,c,a), x_c = c(c,a,b) c(c,b,a),
it is
  (1+p_ab)(1+p_ac)(1+p_bc)
  + c(a,c,c) c(b,c,c) x_c (1+p_ab) + c(a,b,b) c(c,b,b) x_b (1+p_ac)
  + c(b,a,a) c(c,a,a) x_a (1+p_bc)
  + c(a,b,b) c(a,c,c) x_b x_c + c(b,a,a) c(b,c,c) x_a x_c
  + c(c,a,a) c(c,b,b) x_a x_b + x_a x_b x_c
  + c(a,b,c) c(b,c,a) c(c,a,b) + c(a,c,b) c(b,a,c) c(c,b,a),
the Leibniz expansion of the sparse matrix (at e = 2 the same expansion is
1 + p_ab), so table reads and a few dozen products decide it. Larger
patterns reduce their rows. At n = d+1 every pattern's pool is every node,
kept as one frozenset per code, so every decoder fetch hits the table by
identity.
"""

from .framework import CouplingCode, RepairableCode, RepairTranscript, SingularCouplingError, _is_word, _read_ids
from .framework import check_message, dependent_pairs
from .gf import Matrix, _lane_bits, _mul_packed, _reduce_packed, _unpack, dot, vandermonde


class PMCode(CouplingCode):
    def __init__(self, field, n, k, lambdas=None):
        if type(n) is not int or type(k) is not int or k < 2:
            raise ValueError("need ints n and k >= 2 so that alpha = k-1 >= 1")
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
        # at n = d+1 every pattern's pool is every node: one object, so that
        # _repairable's reads hit the decoder table by identity
        self._whole_pool = frozenset(self.node_ids()) if n == d + 1 else None

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

    repair_transfer = CouplingCode.repair_transfer
    coupling_coefficient = CouplingCode.coupling_coefficient
    assemble_multi = CouplingCode.assemble_multi

    def _repairable(self, failed):
        """condition_check's verdict on failed, a sorted tuple of distinct
        node ids within _failures' limit, unchecked: the search vets its
        patterns here. Patterns of two and three failures are decided in
        closed form, with no rows built: {a, b} by c(a,b,b) c(b,a,a) != 1,
        {a, b, c} by the module docstring's 20-term determinant, grouped by
        the pair products p and the cross products x, being nonzero. Their
        coefficients are read from each failed node's decoder columns,
        fetched once per node: c(i,j,l) = _pool_decoder(i, pool)[l][1][j-1],
        the number coupling_coefficient returns. Larger patterns reduce
        their rows (_coupling_rows). The pool is the pattern with its
        default_helpers."""
        e, pool = len(failed), self._whole_pool
        if pool is None:
            pool = frozenset(failed + self.default_helpers(self.node_ids(), failed, self.d - e + 1))
        mul = self.field.mul
        if e == 2:
            a, b = failed
            return mul(self._pool_decoder(a, pool)[b][1][b - 1], self._pool_decoder(b, pool)[a][1][a - 1]) != 1
        if e == 3:
            a, b, c = failed
            A, B, C = (self._pool_decoder(x, pool) for x in failed)
            # wab holds source b's weights in a's decoder, c(a,j,b) = wab[j-1];
            # ab = c(a,b,b), the weight of b -> a in row (a, b), abc = c(a,b,c)
            # and qab = 1 + p_ab, in the module docstring's names
            wab, wac, wba, wbc, wca, wcb = A[b][1], A[c][1], B[a][1], B[c][1], C[a][1], C[b][1]
            ab, ba, ac = wab[b - 1], wba[a - 1], wac[c - 1]
            ca, bc, cb = wca[a - 1], wbc[c - 1], wcb[b - 1]
            abc, acb, bac = wac[b - 1], wab[c - 1], wbc[a - 1]
            bca, cab, cba = wba[c - 1], wcb[a - 1], wca[b - 1]
            qab, qac, qbc = 1 ^ mul(ab, ba), 1 ^ mul(ac, ca), 1 ^ mul(bc, cb)
            xa, xb, xc = mul(abc, acb), mul(bac, bca), mul(cab, cba)
            xab = mul(xa, xb)
            det = (
                mul(mul(qab, qac), qbc)
                ^ mul(mul(ac, bc), mul(xc, qab))
                ^ mul(mul(ab, cb), mul(xb, qac))
                ^ mul(mul(ba, ca), mul(xa, qbc))
                ^ mul(mul(ab, ac), mul(xb, xc))
                ^ mul(mul(ba, bc), mul(xa, xc))
                ^ mul(mul(ca, cb), xab)
                ^ mul(xab, xc)
                ^ mul(mul(abc, bca), cab)
                ^ mul(mul(acb, bac), cba)
            )
            return det != 0
        rows = self._coupling_rows(failed, pool)[1]
        return len(_reduce_packed(self.field, rows, len(rows) + 1, len(rows), False)[0]) == len(rows)

    def repair_multi(self, shards, failed, helpers=None):
        """Solve the coupling system of the pattern, [A | b] on packed rows
        by one Gauss-Jordan, then finish each failed node's decode as one
        packed product of its d transfers, received and solved, with its
        decoder columns. The received transfers are the checked helpers'
        shards projected by dot, with no repair_transfer check per
        transfer. The transcript counts the transfers computed for each
        helper. failed and helpers are read once."""
        failed, helpers = _read_ids(failed, helpers)
        e = self._failures(failed)
        failed, helpers = self._repair_nodes(shards, failed, helpers, self.d - e + 1)
        f, pool = self.field, frozenset(failed + helpers)
        toward = {j: {h: dot(f, shards[h], self._projection(j)) for h in helpers} for j in failed}
        if e > 1:
            pairs, rows = self._coupling_rows(failed, pool, toward)
            pivots, _ = _reduce_packed(f, rows, len(rows) + 1, len(rows), True)
            if len(pivots) < len(rows):
                raise SingularCouplingError(failed, dependent_pairs(pairs, pivots))
            shift = _lane_bits(f) * len(rows)
            for (l, i), row in zip(pairs, rows):
                toward[i][l] = row >> shift
        contents = {}
        for i in failed:
            sources, columns, _ = self._pool_rows(i, pool)
            part = _mul_packed(f, [[toward[i][l] for l in sources]], columns, self.alpha)
            contents[i] = _unpack(f, part[0], self.alpha)
        return contents, RepairTranscript(dict.fromkeys(helpers, e))

    def descriptor(self):
        return {
            "family": "pm",
            "n": self.n,
            "k": self.k,
            "m": self.field.m,
            "modulus": self.field.modulus,
            "lambdas": list(self.lambdas),
        }
