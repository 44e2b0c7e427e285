"""Shared machinery for centralized repair of several failed nodes at once.

The repair center runs the single-failure decoder of every lost node. Each
decoder wants one transfer from every other node it would normally hear
from, including the nodes that failed alongside it. PM and IA give only
what a live node sends toward node y, their _projection(y). Every such
missing transfer x -> y is the projection toward y of x's own
single-failure decode, so it is a linear combination of the transfers
toward x: the transfer from l weighs projection_y . decoder_x[:, l].
CouplingCode._pool_decoder is the one table of these decoders: for a
pool of d+1 nodes (failed + helpers; IA's pool is every node) it holds
each node's decoder column for every source with its product with every
projection, packed too (_pool_rows). The family writes each node's entry,
columns and products together (_pool_entry), from what it made once when
the pool's table started (_pool_table). IA's entry is CouplingCode's:
_single_decoder solves the decoder from the generator, reading its
transfers from the code's one sent-row table (_sent_rows), what every node
sends toward every node as rows of generator space, built once per code,
and the products are one packed product with the projections. PM writes
its entries in closed form from one Lagrange table per pool (see the pm
module), and the tests hold them to that derivation.

Moving the terms from failed sources to one side yields a square linear
system A s = b in the e(e-1) unknown cross-failure transfers. When A is
invertible the unknowns are recovered and the ordinary decoders finish
the job; a singular A means the pattern is not repairable with the
chosen code coefficients, which is a reportable outcome rather than a
bug.

The system is built once, here, in CouplingCode, for PM and IA alone:
_coupling_rows writes [A | b] as packed rows (gf._pack), rows and
columns in unknown_pairs order, which it hands back too, and b has no
other writer. Its one pair of views, coupling_system and assemble_multi,
unpacks a CouplingSystem from those rows: b at zero, or b of the
transfers the helpers' shards send, as PM's repair reduces it.
dependent_pairs names the dependent transfers of a singular pattern.
Whether a pattern's system is solvable is condition_check, said once here
for both: the boundary check a repair makes (the failure limit,
_failures, and the ids), then the family's unchecked core, _repairable,
which the coefficient search calls directly on the patterns it
generates. condition_check and the two views read a pattern through one
boundary, _pattern.

Once the code and the failure pattern are fixed, the whole repair, the
coupling solve included, is one linear map from the helpers' shards to the
lost shards. A RepairPlan holds it as one send map per helper (its shard ->
the symbols it sends) and one decode map (the received symbols -> the lost
shards). RepairableCode.repair_multi has the family check its own rules
and name the pattern's plan, fetches the plan from the code's cache or has
the family compile it, and applies it; the transcript counts the rows of
each send map. IA, MDS and adaptive MBR repair this way. IA compiles a
plan on packed rows from the coupling rows to the decode map: one
Gauss-Jordan solves the coupling system for every received symbol at
once, and the solved rows, scaled by each failed node's decoder columns,
are its decode; its pivotless columns name a singular pattern's dependent
transfers. PM solves its coupling rows on every call: [A | b] by one
Gauss-Jordan, then one product per lost shard; its transcript counts the
transfers it computed. PM's repair and assemble_multi project shards
they have already checked by dot; repair_transfer, the public form, checks
its target and shard first.

Every family takes the same request: e failed nodes, none holding a shard,
and a helper set whose size the family fixes (PM d-e+1, IA n-e, MDS and
adaptive MBR d). RepairableCode._repair_nodes checks it once for all four.

Encode and read-back are the same in every family: encode applies the
generator matrix (message -> all shards), reconstruct the inverse of the
readers' generator rows, each compiled once per code (and reader set) into
a gf.LinearMap kept in the same cache as the plans.

Every symbol a node stores or sends is a fixed linear function of the
message, a row of generator space (RepairableCode._received), so every
decode map the generator fixes is the D with D (received rows) = (wanted
rows). RepairableCode._derive solves it by one Gauss-Jordan for the read
maps, IA's single-failure decoders and adaptive MBR's plans. The
derivation runs on packed rows (gf._pack) from start to finish: the
generator is packed once per code and kept with it, each send row is
multiplied by its own node's block of it (for IA's decoders once per code,
in the sent-row table), the rows and the target are
reduced as packed columns, and D's columns are read off the right-hand
lanes. MDS writes its decode maps as Lagrange tables, with no
elimination.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

from .gf import LinearMap, Matrix, SingularMatrixError, _mul_packed, _pack, _reduce, _reduce_packed
from .gf import _lane_bits, _transpose_packed, _unpack, _unpack_rows, dot, mat_det

# Compiled maps and plans kept per code; the least recently used goes
# first. An IA(6)/GF(2^8) plan holds 2.6 KB at e = 2, 3.7 KB at e = 4 and
# 4.4 KB at e = 6 (sys.getsizeof over its objects, key included), so a full
# cache holds about 4 MB. IA(6) has 2,509 patterns. Replaying the IA
# benchmark sweep's pattern stream (22 repairs a cycle, e = 1..6, ~147
# cycles per code), the share of repairs that find their plan cached:
#
#   entries     all   e=4   e=5   e=6
#   512         36%   20%   13%   13%
#   1,024       48%   35%   25%   25%
#   unbounded   53%   42%   30%   31%
#
# Unbounded, a code could keep all 2,509 of its plans, about 10 MB.
MAP_CACHE_LIMIT = 1024

NO_FAILED_NODE = "need at least one failed node, none holding a shard"


class SingularCouplingError(ValueError):
    """Coupling matrix is singular: the failure pattern is unrecoverable.

    dependent names the cross-failure transfers, in unknown_pairs order,
    whose columns of the coupling matrix got no pivot: each is a
    combination of the ones before it, and there are size - rank of them.
    """

    def __init__(self, failed, dependent=()):
        self.failed = tuple(sorted(failed))
        self.dependent = tuple(dependent)
        super().__init__("singular coupling system for failed nodes %s" % (self.failed,))


class InvalidHelperCountError(ValueError):
    """Helper set size is incompatible with the requested repair degree."""


class InvalidRepairInputError(ValueError):
    """A repair or reconstruct was handed unknown node ids or malformed shards."""


def check_input(code, shards, length, readers, ids=()):
    """Refuse unknown node ids and malformed shards before any arithmetic.

    Every id in ids must be an int in 1..code.n (bools, floats and strings
    are refused before anything compares or sorts them), and each reader
    must hold a shard of length symbols of code.field. Readers are node
    ids already checked: keys of shards or ids passed in an earlier call.
    ids that cannot be iterated are refused too.
    """
    n = code.n
    try:
        bad = [m for m in ids if type(m) is not int or not 1 <= m <= n]
    except TypeError:
        raise InvalidRepairInputError("node ids and shards must come in collections") from None
    if bad:
        raise InvalidRepairInputError("node ids not ints in 1..%d: %s" % (n, bad))
    for node in readers:
        if node not in shards:
            raise InvalidRepairInputError("node %d holds no shard" % node)
        if not _is_word(code.field, shards[node], length):
            raise InvalidRepairInputError(
                "shard of node %d is not %d symbols of GF(2^%d)" % (node, length, code.field.m)
            )


def check_message(code, data):
    """Refuse a message that is not code.message_length symbols of code.field."""
    if not _is_word(code.field, data, code.message_length):
        raise InvalidRepairInputError(
            "message is not %d symbols of GF(2^%d)" % (code.message_length, code.field.m)
        )


def _read_ids(*groups):
    """Each group of node ids as a tuple, read once, so that a one-shot
    iterator is checked and then used with the same contents; None stays
    None. A group that cannot be iterated raises InvalidRepairInputError."""
    try:
        return [None if ids is None else tuple(ids) for ids in groups]
    except TypeError:
        raise InvalidRepairInputError("node ids must come in collections") from None


def failure_count(code, failed):
    """How many distinct nodes failed; check_input names an id no set takes."""
    try:
        return len(set(failed))
    except TypeError:
        check_input(code, (), 0, (), failed)
        raise


def _is_word(field, symbols, length):
    """length ints in 0..2^m-1; floats, strings, bools and values with no
    length are refused too."""
    try:
        return (
            len(symbols) == length
            and set(map(type, symbols)) <= {int}
            and 0 <= min(symbols)
            and max(symbols) < field.size
        )
    except TypeError:
        return False


class RepairableCode:
    """What every code family runs.

    A family gives n, k, field, message_length, shard_length and its
    generator, through _generator() or generator_matrix(). A family that
    repairs by plans gives _plan_key and _compile_plan; PM keeps its own
    repair_multi. Either way a repair request goes through
    _repair_nodes, which checks what every family's request shares; the
    family checks only its own rules (how many nodes it repairs at once,
    its degrees) and passes its helper count. Each family binds encode,
    reconstruct, repair_multi and random_message in its own class body, as
    PM and IA do the CouplingCode methods and views they expose, so that
    they can be wrapped per family; keyword arguments such as an
    explicit repair degree d pass through to repair_multi.
    """

    def node_ids(self):
        return list(range(1, self.n + 1))

    def _compiled(self, key, build):
        """The map or plan under key, built on first use and kept with the
        code. A hit moves the entry to the end, so the least recently used
        one goes first."""
        cache = self.__dict__.setdefault("_maps", {})
        value = cache.pop(key, None)
        if value is None:
            value = build()  # may fill the cache with the entries it uses
            while len(cache) >= MAP_CACHE_LIMIT:
                del cache[next(iter(cache))]
        cache[key] = value
        return value

    def repair_multi(self, shards, failed, helpers=None, **degree):
        """Regenerate the failed nodes from the helpers' shards.

        The family's _plan_key checks the request, failed and helpers read
        once (_read_ids), and names its plan, ("repair", ...) with the rest
        of the key the arguments of the family's _compile_plan. The plan is
        compiled on first use and cached with the code.
        """
        key = self._plan_key(shards, *_read_ids(failed, helpers), **degree)
        plan = self._compiled(key, lambda: self._compile_plan(*key[1:]))
        return plan.apply(shards), plan.transcript()

    def _repair_nodes(self, shards, failed, helpers, count):
        """The failed nodes and the count helpers of a repair, both sorted.

        Failed ids, shard keys and explicit helpers must be node ids; at
        least one node failed and none of them holds a shard
        (InvalidRepairInputError). The helpers are count distinct nodes
        that hold shards, the first count in node order by default
        (InvalidHelperCountError), and their shards are checked. Shards
        that are not a map from node ids raise InvalidRepairInputError.
        """
        if not isinstance(shards, Mapping):
            raise InvalidRepairInputError("shards must map node ids to shards, not a %s" % type(shards).__name__)
        check_input(self, shards, self.shard_length, (), chain(failed, shards, helpers or ()))
        failed = tuple(sorted(set(failed)))
        if not failed or not shards.keys().isdisjoint(failed):
            raise InvalidRepairInputError(NO_FAILED_NODE)
        if helpers is None:
            helpers = self.default_helpers(shards, failed, count)
        else:
            helpers = tuple(sorted(helpers))
            if len(set(helpers)) != count or len(helpers) != count or any(h not in shards for h in helpers):
                raise InvalidHelperCountError("need shards from exactly %d distinct helpers" % count)
        check_input(self, shards, self.shard_length, helpers)
        return failed, helpers

    def default_helpers(self, shards, failed, count):
        """The first count nodes in node order that hold a shard and did not
        fail. A count that is not an int >= 0, bools included, raises
        InvalidHelperCountError."""
        if type(count) is not int or count < 0:
            raise InvalidHelperCountError("a helper count is an int >= 0, not %r" % (count,))
        live = [i for i in sorted(shards) if i not in failed]
        if len(live) < count:
            raise InvalidHelperCountError("need %d helpers, %d nodes are live" % (count, len(live)))
        return tuple(live[:count])

    def generator_matrix(self):
        """Message -> every node's shard, node after node (n*shard_length x M).

        Built once per code and kept outside the bounded cache: warm
        encodes run the encode map and never touch it, so newer plans
        would push it out before the next read map or AMBR compile.
        """
        generator = self.__dict__.get("_generator_matrix")
        if generator is None:
            generator = self._generator_matrix = self._generator()
        return generator

    def _generator_rows(self):
        """generator_matrix() as packed rows (gf._pack), packed once per
        code and kept with it."""
        rows = self.__dict__.get("_packed_generator")
        if rows is None:
            f = self.field
            rows = self._packed_generator = [_pack(f, row) for row in self.generator_matrix().data]
        return rows

    def encode(self, data):
        check_message(self, data)
        word = self._compiled("encode", lambda: LinearMap(self.generator_matrix())).apply(data)
        size = self.shard_length
        return {node: word[(node - 1) * size : node * size] for node in self.node_ids()}

    def reconstruct(self, shards):
        """The message from the first k shards in node order."""
        check_input(self, shards, self.shard_length, (), shards)
        nodes = tuple(sorted(shards)[: self.k])
        if len(nodes) < self.k:
            raise InvalidRepairInputError("need at least k = %d shards" % self.k)
        check_input(self, shards, self.shard_length, nodes)
        read = self._compiled(("read", nodes), lambda: self._read_map(nodes))
        return read.apply([x for node in nodes for x in shards[node]])

    def _read_map(self, nodes):
        """Left inverse of the readers' generator rows R (kL x M, kL >= M):
        the D with D R = I, so the message is D times the symbols read."""
        f, size, g = self.field, self.shard_length, self._generator_rows()
        rows = [g[(node - 1) * size + t] for node in nodes for t in range(size)]
        identity = [1 << _lane_bits(f) * c for c in range(self.message_length)]
        return LinearMap.from_columns(f, self._derive(rows, identity)[0], self.message_length)

    def _received(self, sends):
        """What each row of sends carries, as a packed row of generator
        space: sends holds (node, rows) pairs, and a row applied to node's
        shard is the row times node's generator block. One product per
        node, over its own block."""
        f, size, width, g = self.field, self.shard_length, self.message_length, self._generator_rows()
        received = []
        for node, rows in sends:
            received += _mul_packed(f, rows, g[(node - 1) * size : node * size], width)
        return received

    def _derive(self, rows, target):
        """(D, picks) with D rows = target, for packed rows of generator
        space (message_length entries each): what is received and what is
        wanted. D comes as its columns, each packed, one per row of rows.

        One Gauss-Jordan on the packed rows of [rows^t | target^t] picks the
        first independent rows as its pivot columns, picks; column picks[s]
        of D is the right part of reduced row s, read off its lanes, and the
        rows not picked get zero columns. A target outside the span of rows
        leaves a nonzero right part below the pivots and raises
        SingularMatrixError.
        """
        f, width = self.field, len(rows)
        aug = _transpose_packed(f, rows + target, self.message_length)
        picks, _ = _reduce_packed(f, aug, width + len(target), width, True)
        shift = _lane_bits(f) * width
        if any(row >> shift for row in aug[len(picks) :]):
            raise SingularMatrixError("target outside the span of %d rows of rank %d" % (width, len(picks)))
        columns = [0] * width
        for c, row in zip(picks, aug):
            columns[c] = row >> shift
        return columns, picks

    def random_message(self, rng):
        """message_length symbols, each rng.randrange(2^m); an rng with no
        callable randrange, such as None or 5, raises ValueError before
        anything is drawn."""
        draw = getattr(rng, "randrange", None)
        if not callable(draw):
            raise ValueError("need an rng with a randrange method, not %r" % (rng,))
        size = self.field.size
        return [draw(size) for _ in range(self.message_length)]

    def repair_single(self, shards, failed, helpers=None, **degree):
        contents, transcript = self.repair_multi(shards, (failed,), helpers, **degree)
        return contents[failed], transcript


class CouplingCode(RepairableCode):
    """PM's and IA's base, which turns a single-failure repair into a repair
    of several nodes at once. A coupling family gives d, _projection(y) and
    _repairable(failed) too, and reads its decoders from _pool_decoder and
    its coupling rows from _coupling_rows. It supplies no failure limit, no
    condition_check and no view of the system: _failures, condition_check,
    coupling_system and assemble_multi here serve both.
    """

    def _single_decoder(self, node, sources):
        """Node's single-failure decoder over sources: the D with D T = G_node,
        mapping the transfers, in sources order, to node's shard, as its
        columns: column t weighs the transfer from sources[t].

        Row t of T is what sources[t] sends toward node, read from the
        code's sent-row table (_sent_rows). Dependent transfers, or ones
        that do not determine node, raise SingularMatrixError. IA's pool
        entries come from it; PM writes the same D in closed form from its
        pool table, and its tests call this derivation as its reference."""
        size, sent = self.shard_length, self._sent_rows()
        transfers = [sent[s - 1][node - 1] for s in sources]
        try:
            columns, picks = self._derive(transfers, self._generator_rows()[(node - 1) * size : node * size])
        except SingularMatrixError:
            picks = ()
        if len(picks) < len(sources):
            raise SingularMatrixError("transfers from %s do not determine node %d" % (list(sources), node))
        return _unpack_rows(self.field, columns, size)

    def _sent_rows(self):
        """What every node sends toward every node, as packed rows of
        generator space: entry s-1 holds, at y-1, _projection(y) applied to
        node s's shard. One product per source over all projections, built
        once per code and kept with it, outside the bounded cache as the
        packed generator is, so every decoder table a code starts reads it.
        Only CouplingCode._single_decoder reads it: IA's decoders, and PM's
        only where its tests call that derivation, as PM's pool entries
        read none."""
        sent = self.__dict__.get("_sent_table")
        if sent is None:
            projections = [self._projection(y) for y in self.node_ids()]
            sent = self._sent_table = [self._received([(s, projections)]) for s in self.node_ids()]
        return sent

    def _pool_table(self, pool):
        """What the family's _pool_entry reads for every node of pool, made
        once when the decoder table of pool starts: here the rows [I |
        projections], row a holding 1 in lane a and, past the shard's
        lanes, entry a of every node's projection, so that a decoder
        column times them is the column followed by its weights."""
        f, size, lane = self.field, self.shard_length, _lane_bits(self.field)
        projections = zip(*(self._projection(y) for y in self.node_ids()))
        return [1 << lane * a | _pack(f, row, size) for a, row in enumerate(projections)]

    def _pool_entry(self, i, sources, table):
        """Node i's decoder over sources as packed rows [c_{i,l} | weights]
        (shard_length + n lanes), one per source l in sources order, table
        being _pool_table(pool): _single_decoder times the rows [I |
        projections]. PM writes its rows from its own pool table."""
        return _mul_packed(self.field, self._single_decoder(i, sources), table, self.shard_length + self.n)

    def _pool_decoder(self, i, pool):
        """Node i's decoder over the other nodes of pool, as {source l:
        (c_{i,l}, weights)}: i's content is sum_l t_{l->i} c_{i,l}, and
        weights[y-1] = projection_y . c_{i,l} for every node y.

        Kept for one pool of d+1 nodes at a time (IA's pool is every node),
        outside the bounded cache, so compiled plans never push a decoder
        out. Starting a pool's table makes the family's _pool_table once;
        each node's entry is written by the family's _pool_entry on first
        use, columns and weights together. The table keeps the last pool
        object it was given: that object hits with no set comparison, and
        an equal fresh one takes its place. A new pool's ids are checked
        when its table is started (InvalidRepairInputError). An i that is
        not an int, bools included, is refused as an i outside the pool is
        (ValueError), never read as the node it equals.
        """
        table = self.__dict__.get("_decoder_table")
        if table is None or table[0] is not pool:
            pool = frozenset(pool)
            if table is not None and table[0] == pool:
                table = (pool, *table[1:])
            else:
                check_input(self, (), 0, (), pool)
                if len(pool) != self.d + 1:
                    raise ValueError("pool must hold d+1 = %d nodes" % (self.d + 1))
                table = (pool, {}, self._pool_table(pool), {})
            self._decoder_table = table
        columns = table[1].get(i) if type(i) is int else None
        if columns is None:
            if type(i) is not int or i not in table[0]:
                raise ValueError("node %r is not in the pool" % (i,))
            f, size, sources = self.field, self.shard_length, sorted(table[0] - {i})
            rows = self._pool_entry(i, sources, table[2])
            entry = _unpack_rows(f, rows, size + self.n)
            columns = table[1][i] = {l: (e[:size], e[size:]) for l, e in zip(sources, entry)}
            shift = _lane_bits(f) * size
            table[3][i] = (sources, [r & (1 << shift) - 1 for r in rows], [r >> shift for r in rows])
        return columns

    def _pool_rows(self, i, pool):
        """Node i's _pool_decoder entry packed (gf._pack): (sources, columns,
        weights), columns[t] and weights[t] those of sources[t]."""
        self._pool_decoder(i, pool)
        return self._decoder_table[3][i]

    def coupling_coefficient(self, i, j, l, pool):
        """Weight of transfer s_{l,i} inside the expansion of s_{i,j}.

        pool is the full participant set (failed + helpers); the repair of
        node i reads one transfer from every node of pool except i itself.
        The weight is node i's decoder column for source l, projected on
        projection_j. A hit on the table's pool object takes no call. Ids
        that are not ints, bools included, are refused as ids outside the
        pool or past n are, before the table is read.
        """
        table = self.__dict__.get("_decoder_table")
        if type(i) is int and type(j) is int and type(l) is int:
            columns = table[1].get(i) if table is not None and table[0] is pool else None
            column = (columns or self._pool_decoder(i, pool)).get(l)
            if column is not None and 1 <= j <= self.n:
                return column[1][j - 1]
        raise ValueError("need distinct nodes %r and %r from the pool and j in 1..%d" % (i, l, self.n))

    def _coupling_rows(self, failed, pool, toward=None):
        """(pairs, rows): unknown_pairs(failed), built once here for the
        caller too, and [A | b] of the sorted failed nodes as packed rows
        (gf._pack), rows and A's columns in pairs order, b's lane after A's.
        Row (i, j) holds 1 in the slot of (i, j) and coupling_coefficient(i,
        j, l, pool) in the slot of (l, i) for each other failed l. b(i, j) =
        sum_h r_{h->i} weights_{i,h}[j-1], r_{h->i} = toward[i][h], is lane
        j-1 of one product per failed node with its packed weight rows
        (_pool_rows); with no transfers b is zero."""
        f, lane, pairs = self.field, _lane_bits(self.field), unknown_pairs(failed)
        slot = {pair: lane * t for t, pair in enumerate(pairs)}  # where each unknown's lane starts
        right, coefficient = lane * len(pairs), self.coupling_coefficient
        rhs = dict.fromkeys(failed, [0] * self.n)
        if toward:
            for i in failed:
                sources, _, weights = self._pool_rows(i, pool)
                part = _mul_packed(f, [[toward[i].get(l, 0) for l in sources]], weights, self.n)
                rhs[i] = _unpack(f, part[0], self.n)
        rows = []
        for i, j in pairs:
            row = 1 << slot[(i, j)] | rhs[i][j - 1] << right
            for l in failed:
                if l != i:
                    row |= coefficient(i, j, l, pool) << slot[(l, i)]
            rows.append(row)
        return pairs, rows

    def _pattern(self, failed, helpers=None, shards=()):
        """The boundary of condition_check and the coupling views: failed and
        helpers read once (_read_ids), the failure limit (_failures), at
        least one failed node, and every id of failed, helpers and shards'
        keys a node (InvalidRepairInputError), in that order, so a pattern
        repair_multi refuses gets its error. Returns the sorted distinct
        failed nodes and the helpers, given or by default the first d-e+1
        nodes that did not fail (IA's every survivor); condition_check, which
        reads none, gives ()."""
        failed, helpers = _read_ids(failed, helpers)
        e = self._failures(failed)
        if not e:
            raise InvalidRepairInputError(NO_FAILED_NODE)
        check_input(self, (), 0, (), chain(failed, helpers or (), shards))
        if helpers is None:
            helpers = self.default_helpers(self.node_ids(), failed, self.d + 1 - e)
        return tuple(sorted(set(failed))), helpers

    def _system(self, failed, pool, toward=None):
        """The CouplingSystem of the sorted failed nodes, A and b unpacked
        from _coupling_rows(failed, pool, toward): b is zero with no
        transfers."""
        f, system = self.field, CouplingSystem(self.field, failed)
        rows = self._coupling_rows(failed, pool, toward)[1]
        entries = _unpack_rows(f, rows, system.size + 1)
        system.A = Matrix(f, [row[:-1] for row in entries])
        system.b = [row[-1] for row in entries]
        return system

    def coupling_system(self, failed, helpers=None):
        """(system, known): the coupling system of a pattern with b at zero,
        and the recipe for b, known[(x, y)] listing (helper, weight) for each
        nonzero weight of the transfer from the helper toward x. failed and
        helpers pass _pattern first, so helpers default to the set
        condition_check vets."""
        failed, helpers = self._pattern(failed, helpers)
        pool, known = frozenset(failed + helpers), {}
        system = self._system(failed, pool)
        for x, y in system.pairs:
            columns = self._pool_decoder(x, pool).items()
            known[(x, y)] = [(h, c[1][y - 1]) for h, c in columns if c[1][y - 1] and h not in failed]
        return system, known

    def assemble_multi(self, shards, failed, helpers=None):
        """coupling_system with b, the coupling rows' b of the transfers the
        helpers' shards send, as a repair builds it, and those transfers,
        {(helper, failed node): symbol}. failed, helpers and shards' keys
        pass _pattern first; missing or malformed helper shards raise
        InvalidRepairInputError; failed nodes' shards are not read."""
        failed, helpers = self._pattern(failed, helpers, shards)
        check_input(self, shards, self.shard_length, helpers)
        toward = {j: {h: dot(self.field, shards[h], self._projection(j)) for h in helpers} for j in failed}
        transfers = {(h, j): toward[j][h] for h in helpers for j in failed}
        return self._system(failed, frozenset(failed + helpers), toward), transfers

    def _max_failures(self):
        """min(n-k, d-k+1), the most failures PM or IA repairs at once: the
        d-e+1 helpers and the n-e survivors must each number at least k."""
        return min(self.n - self.k, self.d - self.k + 1)

    def _failures(self, failed):
        """How many distinct nodes failed; past _max_failures a ValueError."""
        e, limit = failure_count(self, failed), self._max_failures()
        if e > limit:
            raise ValueError("can repair 1..%d nodes at once" % limit)
        return e

    def condition_check(self, failed):
        """Whether the coupling system of a failure pattern is solvable from
        its default helpers, the first d-e+1 nodes that did not fail: its
        coupling matrix over them has full rank. Once n > d+1 another
        helper set can answer otherwise. failed passes _pattern, so it is
        read once, a repeated id counts once, and a pattern repair_multi
        refuses for its ids or its size gets the same error. Then the
        family's _repairable answers."""
        return self._repairable(self._pattern(failed, ())[0])

    def repair_transfer(self, shard, target):
        """The symbol a live node sends toward failed node target: its shard
        projected on _projection(target). A target that is not an int node
        id, bools included, or a shard that is not shard_length symbols of
        the field raises InvalidRepairInputError."""
        check_input(self, (), 0, (), (target,))
        if not _is_word(self.field, shard, self.shard_length):
            raise InvalidRepairInputError("shard is not %d symbols of GF(2^%d)" % (self.shard_length, self.field.m))
        return dot(self.field, shard, self._projection(target))


def unknown_pairs(failed):
    """Canonical order of the cross-failure transfers (source, destination).

    Pairs are grouped by unordered pair, lower-indexed source first:
    (f1,f2),(f2,f1),(f1,f3),(f3,f1),...,(f_{e-1},f_e),(f_e,f_{e-1}).
    """
    nodes = sorted(failed)
    pairs = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            pairs.append((nodes[a], nodes[b]))
            pairs.append((nodes[b], nodes[a]))
    return pairs


def dependent_pairs(pairs, pivots):
    """The pairs whose column of a coupling matrix, laid out in their order,
    is not among a reduction's pivot columns."""
    pivots = set(pivots)
    return [pair for t, pair in enumerate(pairs) if t not in pivots]


class CouplingSystem:
    """The linear system A s = b in the unavailable cross-failure transfers.

    Rows and columns are indexed by ordered failed-node pairs in the
    unknown_pairs order, slot[pair] being the position of pair. The
    diagonal is pre-filled with -1 (equal to 1 in characteristic 2): row
    (i,j) encodes s_{i,j} = sum of coupled terms, moved to one side. A
    family writes the other entries of A and the right-hand side b
    through slot. A failed id given twice is one node.
    """

    def __init__(self, field, failed):
        self.field = field
        self.failed = tuple(sorted(set(failed)))
        self.pairs = unknown_pairs(self.failed)
        self.slot = {pair: t for t, pair in enumerate(self.pairs)}
        self.size = len(self.pairs)
        self.A = Matrix.zero(field, self.size, self.size)
        self.b = [0] * self.size
        minus_one = field.neg(1)
        for t in range(self.size):
            self.A.data[t][t] = minus_one

    def determinant(self):
        return mat_det(self.A)

    def solve(self):
        """Solve for the unknown transfers, keyed by (source, destination).

        A singular A raises SingularCouplingError with its dependent pairs.
        """
        if self.size == 0:
            return {}
        aug = [row + [bv] for row, bv in zip(self.A.data, self.b)]
        pivots, _ = _reduce(self.field, aug, self.size, True)
        if len(pivots) < self.size:
            raise SingularCouplingError(self.failed, dependent_pairs(self.pairs, pivots))
        return {pair: row[-1] for pair, row in zip(self.pairs, aug)}


class RepairPlan:
    """One compiled repair of a failure pattern.

    send[t] maps the shard of helpers[t] to the symbols it sends; decode
    maps the symbols received, helper after helper, to the lost shards,
    failed node after failed node. A singular pattern compiles to a plan
    with no maps that raises a fresh SingularCouplingError on every apply.

    When every helper sends through one map that does more than pick
    symbols (IA's projections), apply runs all the helpers' shards through
    it in one LinearMap.apply_stripes call, the helpers as the stripes.
    Picking maps (MDS) run per helper, which measured faster.
    """

    __slots__ = ("failed", "helpers", "send", "decode", "dependent", "_shared")

    def __init__(self, failed, helpers, send, decode, dependent=()):
        self.failed = failed
        self.helpers = helpers
        self.send = send
        self.decode = decode
        self.dependent = tuple(dependent)
        shared = send[0] if send and all(s is send[0] for s in send) else None
        self._shared = shared if shared is not None and shared.picks is None else None

    def apply(self, shards):
        if self.decode is None:
            raise SingularCouplingError(self.failed, self.dependent)
        if self._shared is not None:
            sent = self._shared.apply_stripes(list(zip(*(shards[h] for h in self.helpers))))
            received = list(chain.from_iterable(zip(*sent)))
        else:
            received = []
            for helper, send in zip(self.helpers, self.send):
                received += send.apply(shards[helper])
        word = self.decode.apply(received)
        size = len(word) // len(self.failed)
        return {f: word[i * size : (i + 1) * size] for i, f in enumerate(self.failed)}

    def transcript(self):
        """Symbols moved: the row count of each helper's send map."""
        return RepairTranscript({h: send.rows for h, send in zip(self.helpers, self.send)})


@dataclass
class RepairTranscript:
    """Bandwidth accounting for one repair: symbols sent per helper."""

    per_helper: dict

    @property
    def total(self):
        return sum(self.per_helper.values())

