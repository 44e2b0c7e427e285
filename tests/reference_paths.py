"""The paths that faster ones replaced, kept as test references.

Before encode, read-back and the IA, MDS and AMBR repairs ran as cached
gf.LinearMap products and repair plans, each family encoded by its own
formula, read back by solving a freshly built system per call, repaired IA
symbolically (the helpers' transfers, the coupling solve, then each failed
node's single-failure decode), repaired MDS by solving for the file and
re-encoding the lost shards, and repaired AMBR node by node with mat_solve
on theta. Those paths live on here, unchanged in arithmetic, as the
references tests/test_compiled_maps.py and tests/test_repair_plans.py hold
the maps and plans to. Input checks are left to the library calls they are
compared with.

So do the eliminations that MDS and AMBR construction and plan compiles
ran before they read Lagrange tables and per-node theta blocks: MDS's
generator V_all V_sys^-1 by mat_inv and mat_mul and its decode maps by a
Gauss-Jordan on [G_pos^T | G_failed^T]; AMBR's theta built entry by entry
through Field.mul for every subset and the constructor's mat_det of every
subset's theta. So does the check that then reduced every subset's theta
stacked from the packed blocks, before the constructor decided each subset
below d = 2 d_min on the smaller Q_S. So does the AMBR plan compile that
chained theta^-1 step by step through the regenerated nodes, before AMBR's
decode maps were solved from the sends and the generator.

So does IA's hand expansion of each coupling row, in four flavors by the
sides of the code the two failed nodes live on, which the rows derived
from the decoders replaced. So do the single-failure decoders written out
by hand before they were derived from the generator: IA's two-case formula
through U' = kappa V P', 1 - kappa^2 and 1 + kappa, and PM's Lagrange row
c_{i,l} of each pool.

So does IA's plan compile as it ran on list rows: [A | K] with the
received symbols helper-major, reduced by _reduce, which packs and unpacks
the rows around the packed kernel, and each failed node's decoder folded
with A^-1 K by a Matrix and a mat_mul per node, before the rows stayed
packed from the first build to the decode map.

So do IA's repairability conditions as they were written out before
condition_check took det(I + P[S,J] P'[S,J]^t) on every covered shape:
1 + sum of P_{l,m} P'_{l,m} for one node on a side, and the sixteen-term
expansion for two on each.

So do the vetting paths of the coefficient searches and the tradeoff
queries: one elimination per square submatrix for superregularity, IA and
PM coupling matrices built entry by entry (PM's weights by one dot per
(i, j, l)), both searches vetting every pattern of every trial by its
determinant, and gamma_min rescanning every linear piece.

So does PM's repair as it ran on lists before it solved [A | b] on packed
rows: the helpers' part of each failed node's decode by one axpy per
helper, the coupling system built entry by entry and solved by
CouplingSystem.solve, and each decode finished by one axpy per solved
transfer.

So does the row reduction with every product through Field.mul, which
gf kept as the reference for its table kernels.

So does SplitRandom's draw as it ran before each stream hashed its
"seed|path|" prefix once: the whole key formatted and hashed per draw.

So does gf.lagrange_columns, the Vandermonde inverse by one product
polynomial and a synthetic division per node, which PM's single-failure
decoders folded node by node (pm_lagrange_decoder) before each pool's
entries were written from one partial-fraction table.

So does the generator-space derivation on list rows, before the generator
was packed once per code: what a send carries as one product of the send
rows, spread over every node's generator columns, with the generator; D
from a Gauss-Jordan on the list columns of [rows | target], through
_reduce; and the single-failure decoders, read maps and AMBR plan compiles
built on them, each decoder's weights by a mat_mul with the projections.
"""

import hashlib
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import prod
from types import SimpleNamespace

from regenrepair.framework import CouplingSystem, RepairPlan, RepairTranscript, dependent_pairs
from regenrepair.gf import (
    DuplicatePointError,
    LinearMap,
    Matrix,
    SingularMatrixError,
    _gauss_jordan,
    _pack,
    _reduce,
    _reduce_packed,
    dot,
    mat_det,
    mat_inv,
    mat_mul,
    mat_solve,
    mat_vec,
    vandermonde,
)
from regenrepair.ia import IACode, UnsupportedPatternError
from regenrepair.pm import PMCode
from regenrepair.tradeoff import SystemParams, _f, _g, gamma_mbmr


# --- gf: the row reduction one Field.mul at a time ---


def reduce_direct(field, rows, ncols, full):
    """gf._reduce with every product and inverse through Field.mul and
    Field.inv, one at a time: the reference the tests hold the list and
    packed kernels to."""
    mul, inv = field.mul, field.inv
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    pivots = []
    det = 1
    for col in range(ncols):
        rank = len(pivots)
        for r in range(rank, nrows):
            if rows[r][col]:
                break
        else:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        row = rows[rank]
        pv = row[col]
        det = mul(det, pv)
        pinv = inv(pv)
        tail = []  # (column, scaled entry) of the pivot row
        for j in range(col + 1, width):
            if row[j]:
                row[j] = mul(row[j], pinv)
                tail.append((j, row[j]))
        pivots.append(col)
        for r in range(0 if full else rank + 1, nrows):
            fct = rows[r][col]
            if fct and r != rank:
                rr = rows[r]
                for j, x in tail:
                    rr[j] ^= mul(fct, x)
    return pivots, det if len(pivots) == ncols else 0


def vec_mat(v, a):
    """Row vector times matrix, the helper AMBR encoded with."""
    mul = a.field.mul
    out = [0] * a.cols
    for x, row in zip(v, a.data):
        if x == 0:
            continue
        for j in range(a.cols):
            if row[j]:
                out[j] ^= mul(x, row[j])
    return out


def map_columns(linear_map):
    """A LinearMap's matrix, column by column, read through apply."""
    return [linear_map.apply([int(i == j) for i in range(linear_map.cols)]) for j in range(linear_map.cols)]


# --- gf: the Vandermonde inverse by synthetic division, one node set at a time ---


def lagrange_columns(field, nodes):
    """Column j is the coefficient vector, constant term first, of the
    Lagrange basis polynomial L_j on nodes: the columns of V_nodes^-1 for
    the Vandermonde matrix with len(nodes) columns, with no elimination.

    L_j = w_j q_j with l(x) = prod_i (x - n_i), q_j = l(x)/(x - n_j) by
    synthetic division and the barycentric weight w_j of lagrange_rows.
    The products run as sums of logs.
    """
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise DuplicatePointError("repeated interpolation node")
    exp, log, order = field._exp, field._log, field.order
    top = [1]  # l(x), highest coefficient first
    for a in nodes:
        la = log[a]
        top = [c ^ (exp[la + log[p]] if a and p else 0) for c, p in zip(top + [0], [0] + top)]
    columns = []
    for a in nodes:
        la, w = log[a], -sum(log[a ^ b] for b in nodes if b != a) % order
        q, acc = [], 0
        for c in top[:-1]:  # q's coefficients, highest first: acc <- c + a acc
            acc = c ^ (exp[la + log[acc]] if a and acc else 0)
            q.append(exp[w + log[acc]] if acc else 0)
        columns.append(q[::-1])
    return columns


# --- PM: Psi times the message matrix; a generic solve on the readers' rows ---


def pm_encode(code, msg):
    product = mat_mul(code.Psi, code.message_matrix(msg))
    return {i + 1: list(row) for i, row in enumerate(product.data)}


def _pm_msg_index(code, row, col):
    a = code.alpha
    block, r = divmod(row, a)
    lo, hi = min(r, col), max(r, col)
    return block * (a * (a + 1) // 2) + lo * a - lo * (lo - 1) // 2 + (hi - lo)


def pm_reconstruct(code, shards):
    f = code.field
    rows, rhs = [], []
    for i in sorted(shards)[: code.k]:
        for c in range(code.alpha):
            row = [0] * code.message_length
            for a in range(code.d):
                pos = _pm_msg_index(code, a, c)
                row[pos] = f.add(row[pos], code.Psi.data[i - 1][a])
            rows.append(row)
            rhs.append(shards[i][c])
    return mat_solve(Matrix(f, rows), rhs)


# --- IA: systematic w_j, parity sum_j (w_j . u_i) v_j + P_{j,i} w_j ---


def ia_encode(code, data):
    f = code.field
    shards = {}
    systematic = []
    for j in range(1, code.k + 1):
        w = list(data[(j - 1) * code.alpha : j * code.alpha])
        systematic.append(w)
        shards[j] = w
    for i in range(1, code.k + 1):
        u_i = code._col(code.U, i)
        acc = [0] * code.alpha
        for j in range(1, code.k + 1):
            w = systematic[j - 1]
            scale = dot(f, w, u_i)
            p = code.P.data[j - 1][i - 1]
            v_j = code._col(code.V, j)
            for t in range(code.alpha):
                acc[t] = f.add(acc[t], f.add(f.mul(scale, v_j[t]), f.mul(p, w[t])))
        shards[code.k + i] = acc
    return shards


def ia_reconstruct(code, shards):
    f = code.field
    rows, rhs = [], []
    for node in sorted(shards)[: code.k]:
        for t in range(code.alpha):
            row = [0] * code.message_length
            if code.is_systematic(node):
                row[(node - 1) * code.alpha + t] = 1
            else:
                i = node - code.k
                u_i = code._col(code.U, i)
                for j in range(1, code.k + 1):
                    p = code.P.data[j - 1][i - 1]
                    base = (j - 1) * code.alpha
                    vj_t = code.V.data[t][j - 1]
                    for s in range(code.alpha):
                        row[base + s] = f.add(row[base + s], f.mul(u_i[s], vj_t))
                    row[base + t] = f.add(row[base + t], p)
            rows.append(row)
            rhs.append(shards[node][t])
    return mat_solve(Matrix(f, rows), rhs)


_IA_CONSTANTS = weakref.WeakKeyDictionary()


def ia_constants(code):
    """(U', 1 - kappa^2, 1 + kappa) of an IA code: U' = kappa V P' is the
    inverse transpose of U, and minus is plus in characteristic 2. Computed
    once per code and kept while the code lives; callers only read them."""
    constants = _IA_CONSTANTS.get(code)
    if constants is None:
        f, kappa = code.field, code.kappa
        ud = Matrix(f, [[f.mul(kappa, x) for x in row] for row in mat_mul(code.V, code.Pd).data])
        constants = _IA_CONSTANTS[code] = ud, f.add(1, f.mul(kappa, kappa)), f.add(1, kappa)
    return constants


def ia_decoder(code, target):
    """Target's single-failure decoder as an alpha x n matrix, by formula.

    Systematic l: w_l = (U' + kappa^2/(1+kappa) v_l P'_l^t) y with
    y_i = sbar_{i,l} + sum_{j != l} P_{j,i} r_{j,l}.
    Parity k+m: wbar_m = ((1-kappa^2) V + (1+kappa) u'_m P_m^t) z with
    z_i = s_{i,m} + kappa^2/(1-kappa^2) sum_{j != m} P'_{i,j} rbar_{j,m}.
    """
    f, k, kap2 = code.field, code.k, code.field.mul(code.kappa, code.kappa)
    ud, one_minus_k2, one_plus_k = ia_constants(code)
    mix = [[0] * code.n for _ in range(k)]  # y (or z) from the transfers
    if code.is_systematic(target):
        l = target - 1
        c = f.div(kap2, one_plus_k)
        core = [
            [ud.data[r][i] ^ f.mul(c, f.mul(code.V.data[r][l], code.Pd.data[l][i])) for i in range(k)]
            for r in range(k)
        ]
        for i in range(k):
            mix[i][k + i] = 1
            for j in range(k):
                if j != l:
                    mix[i][j] = code.P.data[j][i]
    else:
        m = target - k - 1
        ratio = f.div(kap2, one_minus_k2)
        core = [
            [
                f.mul(one_minus_k2, code.V.data[r][i]) ^ f.mul(one_plus_k, f.mul(ud.data[r][m], code.P.data[i][m]))
                for i in range(k)
            ]
            for r in range(k)
        ]
        for i in range(k):
            mix[i][i] = 1
            for j in range(k):
                if j != m:
                    mix[i][k + j] = f.mul(ratio, code.Pd.data[i][j])
    return mat_mul(Matrix(f, core), Matrix(f, mix))


def _ia_decode_systematic(code, l, transfers):
    """w_l = (U' - kappa^2/(1+kappa) V e_l e_l^t P') y with
    y_i = sbar_{i,l} - sum_{j != l} P_{j,i} r_{j,l}."""
    f = code.field
    y = []
    for i in range(1, code.k + 1):
        acc = transfers[code.k + i]
        for j in range(1, code.k + 1):
            if j != l:
                acc = f.add(acc, f.mul(code.P.data[j - 1][i - 1], transfers[j]))
        y.append(acc)
    ud, _, one_plus_k = ia_constants(code)
    out = mat_vec(ud, y)
    scale = f.mul(
        f.div(f.mul(code.kappa, code.kappa), one_plus_k),
        dot(f, code.Pd.data[l - 1], y),
    )
    v_l = code._col(code.V, l)
    return [f.add(out[t], f.mul(scale, v_l[t])) for t in range(code.alpha)]


def _ia_decode_parity(code, m, transfers):
    """wbar_m = ((1-kappa^2) V + (1+kappa) U' e_m e_m^t P^t) z with
    z_i = s_{i,m} + kappa^2/(1-kappa^2) sum_{j != m} P'_{i,j} rbar_{j,m}."""
    f = code.field
    ud, one_minus_k2, one_plus_k = ia_constants(code)
    ratio = f.div(f.mul(code.kappa, code.kappa), one_minus_k2)
    z = []
    for i in range(1, code.k + 1):
        acc = transfers[i]
        for j in range(1, code.k + 1):
            if j != m:
                acc = f.add(acc, f.mul(ratio, f.mul(code.Pd.data[i - 1][j - 1], transfers[code.k + j])))
        z.append(acc)
    vz = mat_vec(code.V, z)
    scale = f.mul(one_plus_k, dot(f, [code.P.data[j][m - 1] for j in range(code.k)], z))
    ud_m = code._col(ud, m)
    return [f.add(f.mul(one_minus_k2, vz[t]), f.mul(scale, ud_m[t])) for t in range(code.alpha)]


def ia_decode(code, target, transfers):
    """Single-failure decode of target from {source: transfer toward target}."""
    if code.is_systematic(target):
        return _ia_decode_systematic(code, target, transfers)
    return _ia_decode_parity(code, target - code.k, transfers)


def ia_repair(code, shards, failed):
    """Every survivor sends one transfer toward each failed node; the
    coupling system is assembled with b from those transfers and solved
    (SingularCouplingError when A is singular), then each failed node runs
    its single-failure decode."""
    failed = tuple(sorted(failed))
    helpers = [h for h in sorted(shards) if h not in failed]
    if len(failed) == 1:
        target = failed[0]
        transfers = {h: code.repair_transfer(shards[h], target) for h in helpers}
        solved = {}
    else:
        system, transfers = code.assemble_multi(shards, failed)
        solved = system.solve()
    contents = {}
    for node in failed:
        seen = {}
        for src in code.node_ids():
            if src != node:
                if src in shards:
                    seen[src] = transfers[src] if len(failed) == 1 else transfers[(src, node)]
                else:
                    seen[src] = solved[(src, node)]
        contents[node] = ia_decode(code, node, seen)
    return contents, RepairTranscript({h: len(failed) for h in helpers})


# --- MDS: a node's generator rows times the file; solve, then re-encode ---


def mds_shard(code, node, data):
    lo = (node - 1) * code.delta
    return mat_vec(Matrix(code.field, code.generator.data[lo : lo + code.delta]), data)


def mds_encode(code, data):
    return {j: mds_shard(code, j, data) for j in code.node_ids()}


def _mds_solve_positions(code, positions, symbols):
    return mat_solve(Matrix(code.field, [code.generator.data[pos] for pos in positions]), symbols)


def mds_reconstruct(code, shards):
    positions, symbols = [], []
    for node in sorted(shards)[: code.k]:
        positions.extend(range((node - 1) * code.delta, node * code.delta))
        symbols.extend(shards[node])
    return _mds_solve_positions(code, positions, symbols)


def mds_repair(code, shards, failed, helpers, d):
    beta = code.message_length // d
    positions, symbols = [], []
    for h in helpers:
        positions.extend(range((h - 1) * code.delta, (h - 1) * code.delta + beta))
        symbols.extend(shards[h][:beta])
    data = _mds_solve_positions(code, positions, symbols)
    return {f: mds_shard(code, f, data) for f in failed}, RepairTranscript({h: beta for h in helpers})


def mds_generator(code):
    """G = V_all V_sys^-1: the Vandermonde rows of every position times the
    inverse of the first M."""
    f = code.field
    v_all = vandermonde(f, list(range(code.n * code.delta)), code.message_length)
    return mat_mul(v_all, mat_inv(Matrix(f, v_all.data[: code.message_length])))


def mds_decode_map(code, failed, helpers, beta):
    """D = G_failed G_pos^-1, from one Gauss-Jordan on [G_pos^T | G_failed^T]."""
    f, g = code.field, code.generator.data
    pos = [g[(h - 1) * code.delta + t] for h in helpers for t in range(beta)]
    lost = [g[(node - 1) * code.delta + t] for node in failed for t in range(code.delta)]
    aug = [list(a) + list(b) for a, b in zip(zip(*pos), zip(*lost))]
    size = code.message_length
    _gauss_jordan(f, aug, size)
    return Matrix(f, [list(col) for col in zip(*(row[size:] for row in aug))])


# --- AMBR: psi_{l,i}^t M_i block by block; block-wise read; sequential theta solves ---


def _ambr_block_entry(code, block_values, r, c):
    """Entry (r, c) of M_i given the block's free symbols."""
    k, dm = code.k, code.d_min
    if r > c:
        r, c = c, r
    if r >= k:
        return 0  # lower-right (d_min - k)^2 corner
    if c < k:
        return block_values[r * k - r * (r - 1) // 2 + (c - r)]
    return block_values[k * (k + 1) // 2 + r * (dm - k) + (c - k)]


def ambr_encode(code, data):
    bs, dm = code.block_symbols, code.d_min
    blocks = []
    for i in range(code.z):
        vals = data[i * bs : (i + 1) * bs]
        blocks.append(Matrix(code.field, [[_ambr_block_entry(code, vals, r, c) for c in range(dm)] for r in range(dm)]))
    shards = {}
    for l in code.node_ids():
        content = []
        for i in range(1, code.z + 1):
            content.extend(vec_mat(code._psi_row(l, i), blocks[i - 1]))
        shards[l] = content
    return shards


def ambr_reconstruct(code, shards):
    """Block by block: the trailing columns pin L_i through the leading
    k x k evaluations, then N_i follows."""
    nodes = sorted(shards)[: code.k]
    f, k, dm = code.field, code.k, code.d_min
    out = []
    for i in range(1, code.z + 1):
        rows = [shards[node][(i - 1) * dm : i * dm] for node in nodes]
        phi = Matrix(f, [[code._psi_row(node, i)[c] for c in range(k)] for node in nodes])
        delta = [[code._psi_row(node, i)[c] for c in range(k, dm)] for node in nodes]
        lmat = [mat_solve(phi, [rows[r][k + c] for r in range(k)]) for c in range(dm - k)]
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


def ambr_transfer(code, shard, target, d):
    f, dm = code.field, code.d_min
    s = [dot(f, shard[(i - 1) * dm : i * dm], code._psi_row(target, i)) for i in range(1, code.z + 1)]
    return [dot(f, code.Omega.data[r], s) for r in range(code.alpha // d)]


def ambr_theta(code, sources, d):
    """Stacked compressed evaluation map: alpha x alpha when |sources| = d.
    Reads field, alpha, z, d_min, Omega and Psi from code."""
    rows_per = code.alpha // d
    data = []
    for src in sources:
        for r in range(rows_per):
            row = [0] * (code.z * code.d_min)
            for i in range(1, code.z + 1):
                w = code.Omega.data[r][i - 1]
                psi = code.Psi.data[(src - 1) * code.z + (i - 1)]
                base = (i - 1) * code.d_min
                for c in range(code.d_min):
                    row[base + c] = code.field.mul(w, psi[c])
            data.append(row)
    return Matrix(code.field, data)


def ambr_points(field, n, k, d_min, d_max):
    """The Psi the AMBR constructor picks: up to 25 seeded point draws, each
    kept once mat_det of every d-subset's theta, d_min < d <= d_max, is
    nonzero, and the constructor's ValueError when no draw is."""
    alpha = prod(range(d_min, d_max + 1))
    z = alpha // d_min
    omega_points = [field.pow(field.generator, j) for j in range(z)]
    shape = SimpleNamespace(field=field, alpha=alpha, z=z, d_min=d_min)
    shape.Omega = vandermonde(field, omega_points, z).transpose()
    rng = random.Random(66423 + 1009 * n + 101 * d_min + d_max)
    pool = [x for x in field.elements() if x != 0]
    for _ in range(25):
        points = sorted(rng.sample(pool, z * n))
        shape.Psi = Matrix(field, [row[1:] for row in vandermonde(field, points, d_min + 1).data])
        if all(
            mat_det(ambr_theta(shape, subset, d)) != 0
            for d in range(d_min + 1, d_max + 1)
            for subset in combinations(range(1, n + 1), d)
        ):
            return shape.Psi
    raise ValueError("no point assignment found with invertible decode maps")


def ambr_theta_nullities(code):
    """{(d, S): dim ker theta_S} for each degree d in d_min+1..d_max and each
    d-subset S of the node ids, in combinations order: theta_S is the first
    alpha/d rows of the code's block of each node of S, packed and stacked,
    reduced alpha-square on packed rows."""
    f, alpha = code.field, code.alpha
    blocks = [[_pack(f, row) for row in block] for block in code._blocks]
    nullities = {}
    for d in range(code.d_min + 1, code.d_max + 1):
        for subset in combinations(code.node_ids(), d):
            theta = [row for l in subset for row in blocks[l - 1][: alpha // d]]
            nullities[d, subset] = alpha - len(_reduce_packed(f, theta, alpha, alpha, False)[0])
    return nullities


def ambr_singular_sets(code):
    """The (d, S) whose theta_S is singular, in ambr_theta_nullities' order."""
    return [key for key, nullity in ambr_theta_nullities(code).items() if nullity]


def ambr_compile_plan(code, failed, d, helpers):
    """The AMBR plan compile as a chain: each step's theta, built by
    ambr_theta, inverted, and the nodes regenerated before it entering
    later steps as their send rows times their own maps."""
    f, alpha = code.field, code.alpha
    steps, sends = [], {h: [] for h in helpers}
    for idx, target in enumerate(failed):
        degree = code.d_min if idx else d
        fresh = helpers[: degree - idx]
        rows = ambr_theta(code, (target,), degree)
        steps.append((target, degree, tuple(sorted(failed[:idx] + fresh)), rows))
        for h in fresh:
            sends[h].append((target, rows))
    at, total = {}, 0
    for h in helpers:
        for target, rows in sends[h]:
            at[(h, target)] = total
            total += rows.rows
    decoded = {}
    for target, degree, sources, rows in steps:
        theta = mat_inv(ambr_theta(code, sources, degree))
        per = rows.rows
        blocks = {src: range(t * per, (t + 1) * per) for t, src in enumerate(sources)}
        local = [src for src in sources if src in decoded]
        content = Matrix.zero(f, alpha, total)
        if local:
            content = mat_mul(
                Matrix(f, [[row[c] for src in local for c in blocks[src]] for row in theta.data]),
                Matrix(f, [r for src in local for r in mat_mul(rows, decoded[src]).data]),
            )
        for src in sources:
            if src not in decoded:
                first, block = at[(src, target)], blocks[src]
                for out, row in zip(content.data, theta.data):
                    out[first : first + per] = row[block.start : block.stop]
        decoded[target] = content
    send = tuple(LinearMap(Matrix(f, [r for _, rows in sends[h] for r in rows.data])) for h in helpers)
    decode = LinearMap(Matrix(f, [r for target in failed for r in decoded[target].data]))
    return RepairPlan(failed, helpers, send, decode)


def _ambr_regenerate(code, sources, transfers, d):
    t = []
    for src in sources:
        t.extend(transfers[src])
    return mat_solve(ambr_theta(code, sources, d), t)


def ambr_repair(code, shards, failed, helpers, d):
    per_helper = {h: 0 for h in helpers}
    contents = {}
    first = failed[0]
    transfers = {h: ambr_transfer(code, shards[h], first, d) for h in helpers}
    contents[first] = _ambr_regenerate(code, helpers, transfers, d)
    for h in helpers:
        per_helper[h] += code.alpha // d
    for idx in range(1, len(failed)):
        target = failed[idx]
        local = list(failed[:idx])
        fresh = list(helpers[: code.d_min - idx])
        sources = sorted(local + fresh)
        transfers = {}
        for src in local:
            transfers[src] = ambr_transfer(code, contents[src], target, code.d_min)
        for src in fresh:
            transfers[src] = ambr_transfer(code, shards[src], target, code.d_min)
            per_helper[src] += code.z
        contents[target] = _ambr_regenerate(code, sources, transfers, code.d_min)
    return contents, RepairTranscript(per_helper)


# --- coefficient searches: full determinant counts, no early stop ---


def all_square_submatrices_invertible(a):
    """One elimination per square submatrix."""
    for s in range(1, min(a.rows, a.cols) + 1):
        for rs in combinations(range(a.rows), s):
            for cs in combinations(range(a.cols), s):
                if mat_det(a.submatrix(rs, cs)) == 0:
                    return False
    return True


def ia_expand_terms(code, x, y):
    """IA's hand expansion of the unknown transfer x -> y over transfers
    toward x, as [(source, destination, coefficient)] with destination x,
    in four flavors by the sides of the code x and y live on."""
    f = code.field
    k = code.k
    kap = code.kappa
    _, one_minus_k2, one_plus_k = ia_constants(code)
    terms = []
    if code.is_systematic(x) and not code.is_systematic(y):
        l, m = x, y - k
        # s_{l,m}: couples the transfers that repair systematic l
        ratio = f.div(kap, one_plus_k)
        plm = code.P.data[l - 1][m - 1]
        for j in range(1, k + 1):
            c = f.mul(ratio, f.mul(plm, code.Pd.data[l - 1][j - 1]))
            if j == m:
                c = f.add(1, c)  # (1 - kappa/(1+kappa) P_lm P'_lm)
            terms.append((k + j, l, c))
        for j in range(1, k + 1):
            if j != l:
                terms.append((j, l, code.P.data[j - 1][m - 1]))  # -P_{j,m} r_{j,l}
    elif code.is_systematic(x) and code.is_systematic(y):
        l1, l2 = x, y
        # r_{l1,l2} = sum_j kappa P'_{l2,j} sbar_{j,l1} - kappa r_{l2,l1}
        for j in range(1, k + 1):
            terms.append((k + j, l1, f.mul(kap, code.Pd.data[l2 - 1][j - 1])))
        terms.append((l2, l1, kap))
    elif not code.is_systematic(x) and code.is_systematic(y):
        m, l = x - k, y
        # sbar_{m,l}: couples the transfers that repair parity m
        pdlm = code.Pd.data[l - 1][m - 1]
        kk1 = f.mul(kap, one_plus_k)
        for j in range(1, k + 1):
            c = f.mul(kk1, f.mul(pdlm, code.P.data[j - 1][m - 1]))
            if j == l:
                c = f.add(one_minus_k2, c)
            terms.append((j, x, c))
        k2 = f.mul(kap, kap)
        for j in range(1, k + 1):
            if j != m:
                terms.append((k + j, x, f.mul(k2, code.Pd.data[l - 1][j - 1])))
    else:
        m1, m2 = x - k, y - k
        # rbar_{m1,m2} = sum_j (1-kappa^2)/kappa P_{j,m2} s_{j,m1} + kappa rbar_{m2,m1}
        ratio = f.div(one_minus_k2, kap)
        for j in range(1, k + 1):
            terms.append((j, x, f.mul(ratio, code.P.data[j - 1][m2 - 1])))
        terms.append((y, x, kap))
    return terms


def ia_coupling_system(code, failed):
    """IA's coupling matrix and known terms from the hand expansion, entry
    by entry; known[pair] maps each helper source to its summed weight,
    zeros dropped."""
    failed = tuple(sorted(failed))
    system = CouplingSystem(code.field, failed)
    known = {}
    for pair, row in zip(system.pairs, system.A.data):
        weights = {}
        for src, dst, coeff in ia_expand_terms(code, *pair):
            if src in failed:
                row[system.slot[(src, dst)]] ^= coeff
            else:
                weights[src] = weights.get(src, 0) ^ coeff
        known[pair] = {src: w for src, w in weights.items() if w}
    return system, known


def ia_compile_plan(code, failed):
    """The IA plan compile on list rows: [A | K] with the received symbols
    helper-major, one Gauss-Jordan through _reduce, and each failed node's
    decoder folded with A^-1 K by one Matrix and mat_mul per node."""
    f, e = code.field, len(failed)
    pool = code.node_ids()
    helpers = tuple(h for h in pool if h not in failed)
    # received symbol a*e + b is helper a's transfer toward failed[b]
    at = {(h, j): a * e + b for a, h in enumerate(helpers) for b, j in enumerate(failed)}
    width = len(at)
    system, known = code.coupling_system(failed)
    size = system.size
    aug = [row + [0] * width for row in system.A.data]
    for row, (x, y) in zip(aug, system.pairs):
        for src, weight in known[(x, y)]:
            row[size + at[(src, x)]] ^= weight
    pivots, _ = _reduce(f, aug, size, True)
    if len(pivots) < size:
        return RepairPlan(failed, (), (), None, dependent_pairs(system.pairs, pivots))
    decode = []
    for b, i in enumerate(failed):
        # node i's decode reads the transfers of the other failed nodes
        # through A^-1 K and each helper's transfer as received
        columns = code._pool_decoder(i, pool)
        others = [r for r, (src, dst) in enumerate(system.pairs) if dst == i]
        part = Matrix.zero(f, code.alpha, width)
        if others:
            part = mat_mul(
                Matrix(f, [list(row) for row in zip(*(columns[system.pairs[r][0]][0] for r in others))]),
                Matrix(f, [aug[r][size:] for r in others]),
            )
        for a, h in enumerate(helpers):
            for out, x in zip(part.data, columns[h][0]):
                out[a * e + b] ^= x
        decode += part.data
    send = LinearMap(Matrix(f, [code._projection(j) for j in failed]))
    return RepairPlan(failed, helpers, (send,) * len(helpers), LinearMap(Matrix(f, decode)))


def ia_pi(code, l, m):
    """P_{l,m} (P^{-1})_{m,l} for systematic l, parity index m."""
    return code.field.mul(code.P.data[l - 1][m - 1], code.Pd.data[l - 1][m - 1])


def ia_condition_table(code, failed):
    """IA's closed-form repairability, one hand formula per covered shape;
    other mixed shapes raise UnsupportedPatternError."""
    f = code.field
    failed = tuple(sorted(set(failed)))
    sys_nodes = [x for x in failed if code.is_systematic(x)]
    par_nodes = [x - code.k for x in failed if not code.is_systematic(x)]
    s, p = len(sys_nodes), len(par_nodes)
    if s == 0 or p == 0:
        return True
    if (s, p) in [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]:
        acc = 1
        for l in sys_nodes:
            for m in par_nodes:
                acc = f.add(acc, ia_pi(code, l, m))  # 1 - sum pi, minus = plus
        return acc != 0
    if (s, p) == (2, 2):
        l1, l2 = sys_nodes
        m1, m2 = par_nodes
        q = lambda a, b: code.P.data[a - 1][b - 1]
        w = lambda a, b: code.Pd.data[a - 1][b - 1]
        acc = 1
        for l in (l1, l2):
            for m in (m1, m2):
                acc = f.add(acc, ia_pi(code, l, m))
        acc = f.add(acc, f.mul(f.mul(q(l1, m1), w(l1, m1)), f.mul(q(l2, m2), w(l2, m2))))
        acc = f.add(acc, f.mul(f.mul(q(l1, m2), w(l1, m2)), f.mul(q(l2, m1), w(l2, m1))))
        acc = f.add(acc, f.mul(f.mul(q(l1, m1), w(l2, m1)), f.mul(q(l2, m2), w(l1, m2))))
        acc = f.add(acc, f.mul(f.mul(q(l1, m2), w(l2, m2)), f.mul(q(l2, m1), w(l1, m1))))
        return acc != 0
    raise UnsupportedPatternError("no closed form for %d systematic + %d parity" % (s, p))


def ia_field_search(field, k, e_max, trials=200, seed=0):
    """search_assignment's IA search counting every singular pattern of
    every trial by its determinant; returns (code, None) or (None, (best,
    best_failures))."""
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
                kappas = [x for x in field.elements() if x not in (0, 1)]
                code = IACode(field, k, P=p, kappa=kappas[rng.randrange(len(kappas))])
        except ValueError:
            continue
        bad = 0
        for e in range(2, e_cap + 1):
            for pattern in combinations(code.node_ids(), e):
                if ia_coupling_system(code, pattern)[0].determinant() == 0:
                    bad += 1
        if bad == 0:
            return code, None
        if best_bad is None or bad < best_bad:
            best, best_bad = code, bad
    return None, (best, best_bad)


def _pm_gammas(code, others):
    """prod_{m in others} (x + lam_m), rebuilt from scratch, ascending powers."""
    f = code.field
    poly = [1]
    for m in others:
        lam = code.lambdas[m - 1]
        nxt = [0] * (len(poly) + 1)
        for t, c in enumerate(poly):
            nxt[t + 1] = f.add(nxt[t + 1], c)
            nxt[t] = f.add(nxt[t], f.mul(c, lam))
        poly = nxt
    return poly


def pm_decoder_row(code, i, l, pool):
    """PM's decoder row c_{i,l} over pool by Lagrange interpolation:
    G = prod_{m in pool, m != i, l} (x + lam_m) and c_{i,l}[h] =
    (G[h] + lam_i^alpha G[h+alpha]) / G(lam_l), from a product rebuilt for
    this (i, l) alone."""
    f = code.field
    gam = _pm_gammas(code, sorted(m for m in pool if m not in (i, l)))
    den, pw = 0, 1
    for h in range(code.d):
        den = f.add(den, f.mul(gam[h], pw))
        pw = f.mul(pw, code.lambdas[l - 1])
    lam_i = f.pow(code.lambdas[i - 1], code.alpha)
    return [f.div(f.add(gam[h], f.mul(lam_i, gam[h + code.alpha])), den) for h in range(code.alpha)]


def pm_lagrange_decoder(code, node, sources):
    """PM's decoder over d distinct sources as it was written node by node
    before its pool tables: column t of the sources' Vandermonde inverse
    (lagrange_columns) folded by [I | lam_node^alpha I]."""
    f, a = code.field, code.alpha
    scale = f.pow(code.lambdas[node - 1], a)
    columns = lagrange_columns(f, [code.lambdas[s - 1] for s in sources])
    return [[x ^ f.mul(scale, y) for x, y in zip(column[:a], column[a:])] for column in columns]


def pm_coupling_matrix(code, failed, helpers):
    """PM's coupling matrix, one dot of a decoder row with phi_j per entry."""
    failed = tuple(sorted(failed))
    pool = set(failed) | set(helpers)
    rows = {(i, l): pm_decoder_row(code, i, l, pool) for i in failed for l in failed if l != i}
    system = CouplingSystem(code.field, failed)
    for (i, j), t in system.slot.items():
        for l in failed:
            if l != i:
                system.A.data[t][system.slot[(l, i)]] ^= dot(code.field, rows[(i, l)], code.Phi.data[j - 1])
    return system


def _axpy(field, acc, coef, row):
    """acc += coef * row, in place."""
    if coef:
        mul = field.mul
        for c, x in enumerate(row):
            if x:
                acc[c] ^= mul(coef, x)


def pm_symbolic_repair(code, shards, failed, helpers=None):
    """PM's repair on lists: each helper's transfer toward each failed node,
    each failed node's partial decode p_i = sum_h r_{h->i} c_{i,h}, the
    coupling system with A entry by entry through coupling_coefficient and
    b[(i, j)] = p_i . phi_j, CouplingSystem.solve (SingularCouplingError
    with its dependent pairs), then each p_i finished with the solved
    transfers toward i. The helpers default to the first d-e+1 live nodes."""
    f = code.field
    failed = tuple(sorted(set(failed)))
    if helpers is None:
        helpers = code.default_helpers(shards, failed, code.d - len(failed) + 1)
    helpers = tuple(sorted(helpers))
    pool = frozenset(failed + helpers)
    decoders = {i: code._pool_decoder(i, pool) for i in failed}
    received = {(h, j): code.repair_transfer(shards[h], j) for h in helpers for j in failed}
    contents = {}
    for i in failed:
        contents[i] = [0] * code.alpha
        for h in helpers:
            _axpy(f, contents[i], received[(h, i)], decoders[i][h][0])
    system = CouplingSystem(f, failed)
    for row, (i, j) in zip(system.A.data, system.pairs):
        for l in failed:
            if l != i:
                row[system.slot[(l, i)]] ^= code.coupling_coefficient(i, j, l, pool)
        system.b[system.slot[(i, j)]] = dot(f, contents[i], code.Phi.data[j - 1])
    solved = system.solve()
    for i in failed:
        for l in failed:
            if l != i:
                _axpy(f, contents[i], solved[(l, i)], decoders[i][l][0])
    per_helper = dict.fromkeys(helpers, 0)
    for h, _ in received:
        per_helper[h] += 1
    return contents, RepairTranscript(per_helper)


def pm_field_search(field, n, k, e_max, trials=200, seed=0):
    """search_assignment's PM search counting every singular pattern of
    every trial; returns (lambdas, None) or (None, (best, best_failures))."""
    e_cap = min(e_max, n - k, k - 1)
    rng = random.Random(seed)
    best = None
    best_bad = None
    for _ in range(trials):
        if n > field.size:
            break
        lambdas = rng.sample(list(field.elements()), n)
        try:
            code = PMCode(field, n, k, lambdas)
        except ValueError:
            continue
        bad = 0
        for e in range(2, e_cap + 1):
            for pattern in combinations(code.node_ids(), e):
                helpers = [i for i in code.node_ids() if i not in pattern][: code.d - e + 1]
                if mat_det(pm_coupling_matrix(code, pattern, helpers).A) == 0:
                    bad += 1
        if bad == 0:
            return lambdas, None
        if best_bad is None or bad < best_bad:
            best, best_bad = lambdas, bad
    return None, (best, best_bad)


# --- tradeoff: every query rescans the linear pieces ---


def segments(params):
    """The pieces (gamma_lo, gamma_hi, g_coef, den) of alpha*(gamma)."""
    k, e = params.k, params.e
    if k <= e:
        return []
    eta, r = params.eta, params.r
    segs = []
    if r == 0:
        for i in range(1, eta):
            segs.append((_f(params, i - 1), _f(params, i), _g(params, i), i * e))
    else:
        segs.append((gamma_mbmr(params), _f(params, 0), _g(params, 0), r))
        for i in range(1, eta):
            segs.append((_f(params, i - 1), _f(params, i), _g(params, i), r + i * e))
    return segs


def curve_alphas(params, segs):
    """alpha* at every breakpoint of the curve, gamma ascending."""
    M = params.M
    if not segs:
        return [M / Fraction(params.k)]
    lo0, _, g0, den0 = segs[0]
    return [(M - lo0 * g0) / den0] + [(M - hi * g) / den for lo, hi, g, den in segs]


def gamma_min(params, segs, alpha):
    M, k = params.M, params.k
    if alpha < M / Fraction(k):
        raise ValueError("alpha below M/k")
    if not segs:
        return Fraction(M)
    lo0, _, g0, den0 = segs[0]
    if alpha >= (M - lo0 * g0) / den0:
        return lo0
    for lo, hi, g, den in segs:
        a_hi = (M - hi * g) / den
        if alpha >= a_hi:
            return (M - den * alpha) / g
    return segs[-1][1]


def gamma_min_for_alpha(params, alpha):
    return gamma_min(params, segments(params), Fraction(alpha))


def compare_strategies(params):
    """compare_strategies' (rows as tuples, msmr_ratio) by linear scans."""
    M, n, k, d, e = params.M, params.n, params.k, params.d, params.e
    single = SystemParams(M, n, k, d, 1)
    fewer = SystemParams(M, max(n, d + 1), k, d - e + 1, e) if d - e + 1 >= k else None
    grid = sorted(
        set(curve_alphas(params, segments(params)))
        | set(curve_alphas(single, segments(single)))
        | (set(curve_alphas(fewer, segments(fewer))) if fewer else set())
    )
    alphas = sorted(set(grid) | {(a + b) / 2 for a, b in zip(grid, grid[1:])})
    rows = [
        (
            alpha,
            gamma_min_for_alpha(params, alpha),
            e * gamma_min_for_alpha(single, alpha),
            gamma_min_for_alpha(fewer, alpha) if fewer else None,
        )
        for alpha in alphas
    ]
    ratio = None
    if fewer:
        a0 = M / Fraction(k)
        ratio = gamma_min_for_alpha(fewer, a0) / (e * gamma_min_for_alpha(single, a0))
    return rows, ratio


# --- workbench: SplitRandom formats and hashes the whole key per draw ---


def split_random_draws(seed, path, count):
    """The first count 64-bit draws of SplitRandom(seed, path)."""
    draws = []
    for counter in range(count):
        key = "%d|%s|%d" % (int(seed), "/".join(str(p) for p in path), counter)
        draws.append(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))
    return draws


# --- generator space: spread products and Gauss-Jordan on list rows ---


def received(code, sends):
    """What each (node, row) of sends carries, as a list row of generator
    space: one product of the rows, spread to their nodes' columns, with
    the generator."""
    size, generator = code.shard_length, code.generator_matrix()
    total = generator.rows
    spread = [[0] * ((s - 1) * size) + list(row) + [0] * (total - s * size) for s, row in sends]
    return mat_mul(Matrix(code.field, spread), generator).data


def derive(code, rows, target):
    """(D, picks) with D rows = target, on list rows: one Gauss-Jordan on
    [rows^t | target^t] through _reduce; column picks[s] of D is the right
    part of reduced row s, and SingularMatrixError for a target outside the
    span of rows."""
    width = len(rows)
    aug = [list(col) for col in zip(*rows, *target)]
    picks, _ = _reduce(code.field, aug, width, True)
    if any(any(row[width:]) for row in aug[len(picks) :]):
        raise SingularMatrixError("target outside the span of %d rows of rank %d" % (width, len(picks)))
    columns = dict(zip(picks, (row[width:] for row in aug)))
    zero = [0] * len(target)
    return Matrix(code.field, [list(row) for row in zip(*(columns.get(c, zero) for c in range(width)))]), picks


def single_decoder(code, node, sources):
    """Node's single-failure decoder over sources, as a Matrix: the D with
    D T = G_node, T the transfers toward node; SingularMatrixError unless
    the transfers are independent and determine node."""
    size = code.shard_length
    projection = code._projection(node)
    transfers = received(code, [(s, projection) for s in sources])
    try:
        decoder, picks = derive(code, transfers, code.generator_matrix().data[(node - 1) * size : node * size])
    except SingularMatrixError:
        picks = ()
    if len(picks) < len(sources):
        raise SingularMatrixError("transfers from %s do not determine node %d" % (list(sources), node))
    return decoder


def pool_decoder(code, i, pool):
    """Node i's decoder table entry over the rest of pool, {l: (c_{i,l},
    weights)}, with the weights from one mat_mul of every node's projection
    with the decoder."""
    sources = sorted(set(pool) - {i})
    decoder = single_decoder(code, i, sources)
    projections = Matrix(code.field, [code._projection(y) for y in code.node_ids()])
    weights = mat_mul(projections, decoder).data
    return {l: ([r[t] for r in decoder.data], [r[t] for r in weights]) for t, l in enumerate(sources)}


def read_map(code, nodes):
    """The left inverse of the readers' generator rows, derived on list rows."""
    size, g = code.shard_length, code.generator_matrix().data
    rows = [g[(node - 1) * size + t] for node in nodes for t in range(size)]
    return LinearMap(derive(code, rows, Matrix.identity(code.field, code.message_length).data)[0])


def ambr_derived_plan(code, failed, d, helpers):
    """AMBR's plan with its decode map derived on list rows from the sends
    and the lost nodes' generator rows."""
    sends = {h: [] for h in helpers}
    for idx, target in enumerate(failed):
        degree = code.d_min if idx else d
        for h in helpers[: degree - idx]:
            sends[h] += code._blocks[target - 1][: code.alpha // degree]
    rows = received(code, [(h, row) for h in helpers for row in sends[h]])
    decode = derive(code, rows, code.coefficient_matrix(failed).data)[0]
    send = tuple(LinearMap(Matrix(code.field, sends[h])) for h in helpers)
    return RepairPlan(failed, helpers, send, LinearMap(decode))
