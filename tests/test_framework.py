"""Coupling-system plumbing: unknown ordering, solve, transcripts; the one decode-map solve."""

import functools
import itertools
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_paths as ref
from regenrepair import framework
from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.framework import (
    CouplingCode,
    CouplingSystem,
    InvalidRepairInputError,
    RepairableCode,
    RepairTranscript,
    SingularCouplingError,
    unknown_pairs,
)
from regenrepair.gf import Field, Matrix, SingularMatrixError, _pack, _unpack, _unpack_rows, dot, mat_mul, mat_rank, mat_vec
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode


def test_unknown_order_frozen():
    assert unknown_pairs([4, 9]) == [(4, 9), (9, 4)]
    f = [3, 7, 12]
    assert unknown_pairs(f) == [(3, 7), (7, 3), (3, 12), (12, 3), (7, 12), (12, 7)]
    slot = CouplingSystem(Field(4), f).slot
    assert slot[(3, 7)] == 0
    assert slot[(7, 3)] == 1
    assert slot[(3, 12)] == 2
    assert slot[(12, 7)] == 5


def test_slot_is_bijection_and_matches_pair_list():
    gf = Field(4)
    rng = random.Random(11)
    for e in range(1, 6):
        failed = rng.sample(range(1, 30), e)
        pairs = unknown_pairs(failed)
        assert len(pairs) == e * (e - 1)
        assert len(set(pairs)) == len(pairs)
        slot = CouplingSystem(gf, failed).slot
        assert slot == {pair: pos for pos, pair in enumerate(pairs)}
        assert all((i, i) not in slot for i in failed)  # no self transfer


def test_unknown_order_ignores_input_permutation():
    assert unknown_pairs([12, 3, 7]) == unknown_pairs([3, 7, 12])
    assert CouplingSystem(Field(4), (7, 12, 3)).slot[(12, 7)] == 5


def test_coupling_system_layout():
    gf = Field(4)
    sys_ = CouplingSystem(gf, [2, 5, 8])
    assert sys_.size == 6
    assert len(sys_.b) == 6 and not any(sys_.b)
    # diagonal pre-filled with -1 = 1 in characteristic 2
    assert all(sys_.A.data[r][c] == int(r == c) for r in range(6) for c in range(6))


def test_coupling_solve_round_trip():
    gf = Field(5)
    rng = random.Random(7)
    for _ in range(25):
        failed = [1, 4, 6]
        sys_ = CouplingSystem(gf, failed)
        # random system; regenerate until invertible
        for r in range(6):
            for c in range(6):
                sys_.A.data[r][c] = rng.randrange(32)
        if sys_.determinant() == 0:
            continue
        want = [rng.randrange(32) for _ in range(6)]
        for r in range(6):
            sys_.b[r] = mat_vec(sys_.A, want)[r]
        got = sys_.solve()
        assert [got[p] for p in sys_.pairs] == want


def test_coupling_singular_reports_pattern():
    gf = Field(4)
    sys_ = CouplingSystem(gf, [3, 9])
    sys_.A.data[sys_.slot[(3, 9)]][sys_.slot[(9, 3)]] = 1
    sys_.A.data[sys_.slot[(9, 3)]][sys_.slot[(3, 9)]] = 1  # [[1,1],[1,1]] singular
    assert sys_.determinant() == 0
    with pytest.raises(SingularCouplingError) as info:
        sys_.solve()
    assert info.value.failed == (3, 9)


def test_transcript_totals():
    t = RepairTranscript(per_helper={1: 3, 2: 3})
    assert t.total == 6


def test_a_transcript_total_is_read_from_its_helpers_and_cannot_be_given():
    """total was a field a caller could set against per_helper:
    RepairTranscript({1: 3}, total=5) said both 3 and 5."""
    with pytest.raises(TypeError):
        RepairTranscript({1: 3}, total=5)
    t = RepairTranscript({1: 3})
    with pytest.raises(AttributeError):
        t.total = 5
    assert t.total == 3


def test_single_decoder_refuses_transfers_that_do_not_determine_the_node():
    """d transfers decode a PM node; d-1 leave it undetermined and d+1 are
    dependent, and 2k-2 leave an IA node undetermined: no decoder is made
    up for any of them."""
    pm = PMCode(Field(8, 0x11D), 13, 6)
    others = [s for s in pm.node_ids() if s != 1]
    decoder = pm._single_decoder(1, others[: pm.d])
    assert [len(column) for column in decoder] == [pm.alpha] * pm.d
    for sources in (others[: pm.d - 1], others[: pm.d + 1]):
        with pytest.raises(SingularMatrixError, match="do not determine node 1"):
            pm._single_decoder(1, sources)
    ia = IACode(Field(5), 3)
    assert len(ia._single_decoder(4, [1, 2, 3, 5, 6])) == 5
    with pytest.raises(SingularMatrixError):
        ia._single_decoder(4, [1, 2, 3, 5])


def test_a_repeated_failed_id_is_one_node():
    """(1, 1, 2) builds the coupling system of (1, 2) in both families,
    not one with a self-transfer (1, 1) that no node sends."""
    f = Field(8, 0x11D)
    ia, pm = IACode(f, 6), PMCode(f, 11, 6)
    for build in (lambda failed: ia.coupling_system(failed)[0], lambda failed: pm.coupling_system(failed, range(3, 12))[0]):
        once, twice = build((1, 2)), build((1, 1, 2))
        assert (twice.pairs, twice.A, twice.b) == (once.pairs, once.A, once.b)


# GF(2^4), GF(2^5) and GF(2^8) reduce on byte lanes; GF(2^10), GF(2^13) and
# GF(2^16), past the byte multiply tables, on two-byte lanes that the
# kernel unpacks for the table lists
DERIVE_FIELDS = {m: Field(m) for m in (4, 8, 10, 13)}
PACKED_FIELDS = {m: Field(m) for m in (4, 5, 8, 10, 16)}


@st.composite
def derive_cases(draw, fields=DERIVE_FIELDS):
    """1..8 rows of 1..8 columns, each drawn at random or made a
    combination of the rows before it, and 1..4 target rows, each a
    combination of the rows or drawn at random."""
    field = fields[draw(st.sampled_from(sorted(fields)))]
    symbols = lambda size: st.lists(st.integers(0, field.size - 1), min_size=size, max_size=size)
    cols = draw(st.integers(1, 8))

    def row(basis):
        if basis and draw(st.booleans()):
            return mat_mul(Matrix(field, [draw(symbols(len(basis)))]), Matrix(field, basis)).data[0]
        return draw(symbols(cols))

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        rows.append(row(rows))
    return field, rows, [row(rows) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, deadline=None)
@given(derive_cases())
def test_derive_solves_for_a_target_in_the_span_and_refuses_one_outside(case):
    field, rows, target = case
    code = RepairableCode()
    code.field, code.message_length = field, len(rows[0])
    packed = lambda block: [_pack(field, row) for row in block]
    rank = mat_rank(Matrix(field, rows))
    if mat_rank(Matrix(field, rows + target)) > rank:
        with pytest.raises(SingularMatrixError):
            code._derive(packed(rows), packed(target))
        return
    columns, picks = code._derive(packed(rows), packed(target))
    derived = Matrix(field, [list(row) for row in zip(*(_unpack(field, c, len(target)) for c in columns))])
    assert mat_mul(derived, Matrix(field, rows)).data == target
    assert len(picks) == rank
    assert all(columns[c] == 0 for c in range(len(rows)) if c not in picks)


def packed(field, rows):
    return [_pack(field, row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(derive_cases(PACKED_FIELDS))
def test_packed_derive_matches_the_list_derive(case):
    """The same D, column by column, and the same picks as the Gauss-Jordan
    on list rows, and SingularMatrixError in the same cases: dependent
    rows, and targets in and out of their span."""
    field, rows, target = case
    code = RepairableCode()
    code.field, code.message_length = field, len(rows[0])
    try:
        want, want_picks = ref.derive(code, rows, target)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            code._derive(packed(field, rows), packed(field, target))
        return
    columns, picks = code._derive(packed(field, rows), packed(field, target))
    assert picks == want_picks
    assert [_unpack(field, c, len(target)) for c in columns] == [list(c) for c in zip(*want.data)]


# family -> {m: constructor arguments after the field}: the codes whose
# decoders, read maps and plans are derived from the generator, on byte
# lanes (m <= 8) and on two-byte lanes (m = 10, 16)
DERIVED_CODES = {
    "pm": {4: (9, 5), 5: (11, 6), 8: (13, 6), 10: (7, 3), 16: (7, 4)},
    "ia": {4: (3,), 5: (5,), 8: (4,), 10: (3,), 16: (3,)},
    "mds": {5: (5, 2, 3, None), 8: (7, 3, None, 4), 10: (6, 2, None, 3)},
    "ambr": {5: (5, 2, 2, 3), 8: (8, 3, 4, 5), 10: (7, 2, 3, 4)},
}
FAMILIES = {"pm": PMCode, "ia": IACode, "mds": MDSStripeCode, "ambr": AdaptiveMBRCode}


@functools.lru_cache(maxsize=None)
def derived_code(family, m):
    return FAMILIES[family](Field(m), *DERIVED_CODES[family][m])


def draw_code(draw, families):
    family = draw(st.sampled_from(families))
    return derived_code(family, draw(st.sampled_from(sorted(DERIVED_CODES[family]))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_received_rows_match_the_spread_product(data):
    """Each node's send rows times its own generator block give the rows
    of the product of the spread send rows with the whole generator."""
    code = draw_code(data.draw, sorted(DERIVED_CODES))
    symbols = st.lists(st.integers(0, code.field.size - 1), min_size=code.shard_length, max_size=code.shard_length)
    send = st.tuples(st.sampled_from(code.node_ids()), st.lists(symbols, min_size=1, max_size=3))
    sends = data.draw(st.lists(send, min_size=1, max_size=5))
    got = [_unpack(code.field, row, code.message_length) for row in code._received(sends)]
    assert got == ref.received(code, [(node, row) for node, rows in sends for row in rows])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_single_decoders_match_the_list_derivation(data):
    """A node's decoder over too few, enough or too many sources is the
    reference's, column by column, or refused alike; a pool's table entry
    holds the reference's decoder columns and weights."""
    code = draw_code(data.draw, ["ia", "pm"])
    node = data.draw(st.sampled_from(code.node_ids()))
    others = [s for s in code.node_ids() if s != node]
    count = data.draw(st.sampled_from([c for c in (code.d - 1, code.d, code.d + 1) if c <= len(others)]))
    sources = sorted(data.draw(st.permutations(others))[:count])
    try:
        want = ref.single_decoder(code, node, sources)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            code._single_decoder(node, sources)
    else:
        assert code._single_decoder(node, sources) == [list(c) for c in zip(*want.data)]
    pool = sorted([node] + data.draw(st.permutations(others))[: code.d])
    assert code._pool_decoder(node, pool) == ref.pool_decoder(code, node, pool)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_read_maps_match_the_list_derivation(data):
    code = draw_code(data.draw, sorted(DERIVED_CODES))
    nodes = tuple(sorted(data.draw(st.permutations(code.node_ids()))[: code.k]))
    assert ref.map_columns(code._read_map(nodes)) == ref.map_columns(ref.read_map(code, nodes))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ambr_plans_match_the_list_derivation(data):
    code = draw_code(data.draw, ["ambr"])
    order = data.draw(st.permutations(code.node_ids()))
    failed = tuple(sorted(order[: data.draw(st.integers(1, code.k))]))
    d = data.draw(st.integers(code.d_min, min(code.d_max, code.n - len(failed))))
    helpers = tuple(sorted(order[len(failed) : len(failed) + d]))
    plan, want = code._compile_plan(failed, d, helpers), ref.ambr_derived_plan(code, failed, d, helpers)
    assert [ref.map_columns(s) for s in plan.send] == [ref.map_columns(s) for s in want.send]
    assert ref.map_columns(plan.decode) == ref.map_columns(want.decode)


def counting_decoders(code):
    """code with its _pool_entry, the writer of a node's decoder table
    entry, counted in calls[0]."""
    calls, derive = [0], code._pool_entry

    def counted(*args):
        calls[0] += 1
        return derive(*args)

    code._pool_entry = counted
    return calls


def test_an_equal_pool_reuses_the_decoder_table():
    """The pool's table is reused when an equal pool comes as a fresh
    frozenset, a tuple or a list, with no decoder derived again."""
    code = PMCode(Field(5), 11, 6)
    calls = counting_decoders(code)
    columns = code._pool_decoder(3, frozenset(code.node_ids()))
    for pool in (frozenset(code.node_ids()), tuple(code.node_ids()), list(reversed(code.node_ids()))):
        assert code._pool_decoder(3, pool) is columns
        assert code.coupling_coefficient(3, 5, 7, pool) == columns[7][1][4]
    assert calls == [1]


def test_a_different_pool_starts_a_new_table_and_its_ids_are_checked():
    code = PMCode(Field(8, 0x11D), 13, 6)
    calls = counting_decoders(code)
    first, second = frozenset(range(1, 12)), frozenset(range(2, 13))
    columns = code._pool_decoder(3, first)
    again = code._pool_decoder(3, second)
    assert again is not columns and sorted(again) == sorted(second - {3}) and calls == [2]
    for bad in ([*range(1, 11), 14], [*range(1, 11), "a"], [*range(1, 11), 0]):
        with pytest.raises(InvalidRepairInputError):
            code._pool_decoder(3, bad)
    with pytest.raises(ValueError, match="d\\+1"):
        code._pool_decoder(3, range(1, 11))
    assert code._pool_decoder(3, tuple(second)) is again and calls == [2]


def test_pm_decoders_take_no_generator_product_and_ia_builds_its_sent_rows_once(monkeypatch):
    """PM derives its decoders in closed form: on PM(13, 6), whose pools
    differ since n > d+1, the decoders of two pools make no product with a
    generator block, start no sent-row table and are the reference's. IA
    derives them from the sent-row table: its first decoder builds it, one
    product per source with its generator block, and later decoders, those
    of a fresh decoder table included, read it and make none."""
    products, mul = [], framework._mul_packed
    monkeypatch.setattr(framework, "_mul_packed", lambda f, coefs, rows, width: products.append(rows) or mul(f, coefs, rows, width))

    def block_products(code):
        size, generator = code.shard_length, code._generator_rows()
        blocks = [generator[(s - 1) * size : s * size] for s in code.node_ids()]
        return sum(rows in blocks for rows in products)

    pm = PMCode(Field(8, 0x11D), 13, 6)
    for pool in (frozenset(range(1, 12)), frozenset(range(2, 13))):
        for i in (3, 11):
            assert pm._pool_decoder(i, pool) == ref.pool_decoder(pm, i, pool)
    assert block_products(pm) == 0 and "_sent_table" not in vars(pm)
    ia, pool = IACode(Field(8, 0x11D), 4), frozenset(range(1, 9))
    for i in (1, 6):
        assert ia._pool_decoder(i, pool) == ref.pool_decoder(ia, i, pool)
    assert block_products(ia) == ia.n
    del ia._decoder_table
    assert ia._pool_decoder(2, pool) == ref.pool_decoder(ia, 2, pool)
    assert block_products(ia) == ia.n


def test_pm_repairs_still_read_coupling_coefficients(monkeypatch):
    """PM's repair of two failures weighs its cross-failure transfers
    through coupling_coefficient, and its helpers' transfers multiply
    through Field.mul, cold and when the same pattern is repaired again
    with every decoder warm: the benchmark's traced pass replays cycles it
    has already run and counts both."""
    calls, products = [], []
    weigh, mul = PMCode.coupling_coefficient, Field.mul
    monkeypatch.setattr(PMCode, "coupling_coefficient", lambda self, *args: calls.append(args) or weigh(self, *args))
    monkeypatch.setattr(Field, "mul", lambda self, a, b: products.append(a) or mul(self, a, b))
    code = PMCode(Field(8, 0x11D), 11, 6)
    shards = code.encode(code.random_message(random.Random(3)))
    for _ in range(2):
        del calls[:], products[:]
        contents, _ = code.repair_multi({i: v for i, v in shards.items() if i not in (2, 5)}, (2, 5))
        assert contents == {2: shards[2], 5: shards[5]} and calls and products


# PM codes with n = d+1 and n > d+1, and IA codes, over every lane width
COUPLING_SHAPES = {
    "pm": {4: [(5, 3), (7, 3), (9, 5)], 5: [(11, 6), (9, 4)], 8: [(11, 6), (13, 6)], 10: [(7, 4), (9, 4)], 16: [(9, 5), (11, 5)]},
    "ia": {4: [2, 3, 4], 5: [2, 3, 4], 8: [3, 4], 10: [2, 3], 16: [2, 3]},
}
# tests/test_pm.py's PM(11, 6) over GF(2^8) with singular patterns
SINGULAR_LAMBDAS = [41, 248, 133, 18, 0, 74, 240, 191, 163, 11, 139]


@st.composite
def coupling_cases(draw):
    """(code, failed, helpers, seed): a PM code on default or drawn
    lambdas with default or drawn helpers, or an IA code with a drawn
    kappa and every survivor helping, and e from 2, where there are
    unknowns, up to what a repair takes."""
    family = draw(st.sampled_from(sorted(COUPLING_SHAPES)))
    m = draw(st.sampled_from(sorted(COUPLING_SHAPES[family])))
    field, shape = PACKED_FIELDS[m], draw(st.sampled_from(COUPLING_SHAPES[family][m]))
    if family == "pm":
        n, k = shape
        lambdas = draw(st.one_of(st.none(), st.lists(st.integers(0, field.order), min_size=n, max_size=n, unique=True)))
        assume(lambdas is None or len({field.pow(x, k - 1) for x in lambdas}) == n)
        code, most = PMCode(field, n, k, lambdas), min(n - k, k - 1)
    else:
        code, most = IACode(field, shape, kappa=draw(st.integers(2, field.order))), shape
    order = draw(st.permutations(code.node_ids()))
    e = draw(st.integers(min(2, most), most))
    failed = tuple(sorted(order[:e]))
    live = [h for h in code.node_ids() if h not in failed]
    helpers = tuple(live) if family == "ia" else draw(st.sampled_from([live[: code.d - e + 1], sorted(order[e : code.d + 1])]))
    return code, failed, tuple(helpers), draw(st.integers(0, 2**32))


def reference_system(code, failed, helpers):
    """The reference coupling matrix (a CouplingSystem) and, for each
    unknown, its helpers' weights: what b weighs the transfers toward its
    source with."""
    if isinstance(code, IACode):
        return ref.ia_coupling_system(code, failed)
    system, pool = ref.pm_coupling_matrix(code, failed, helpers), set(failed + helpers)
    rows = {(i, h): ref.pm_decoder_row(code, i, h, pool) for i in failed for h in helpers}
    return system, {(i, j): {h: dot(code.field, rows[(i, h)], code.Phi.data[j - 1]) for h in helpers} for i, j in system.pairs}


@settings(max_examples=80, deadline=None)
@given(coupling_cases())
@example((PMCode(PACKED_FIELDS[8], 11, 6, SINGULAR_LAMBDAS), (7, 11), (1, 2, 3, 4, 5, 6, 8, 9, 10), 0))
@example((PMCode(PACKED_FIELDS[8], 11, 6, SINGULAR_LAMBDAS), (3, 5, 8, 11), (1, 2, 4, 6, 7, 9, 10), 1))
@example((IACode(PACKED_FIELDS[8], 6), (6, 7, 8), (1, 2, 3, 4, 5, 9, 10, 11, 12), 2))
@example((IACode(PACKED_FIELDS[10], 3), (2, 5), (1, 3, 4, 6), 3))
@example((IACode(PACKED_FIELDS[4], 4), (1, 7), (2, 3, 4, 5, 6, 8), 4))
def test_coupling_rows_match_the_reference_systems(case):
    """The framework's one builder of coupling rows gives the reference A,
    rows and columns in unknown_pairs order; b, from the helpers'
    transfers, is the reference weights dotted with them; and a singular
    pattern names the reference's dependent transfers, in PM's repair and
    in IA's plan compile alike."""
    code, failed, helpers, seed = case
    f, pool, rng = code.field, frozenset(failed + helpers), random.Random(seed)
    want, known = reference_system(code, failed, helpers)
    pairs, size = want.pairs, want.size
    got_pairs, got = code._coupling_rows(failed, pool)
    assert got_pairs == pairs and _unpack_rows(f, got, size + 1) == [row + [0] for row in want.A.data]
    shards = code.encode(code.random_message(rng))
    toward = {j: {h: code.repair_transfer(shards[h], j) for h in helpers} for j in failed}
    got = _unpack_rows(f, code._coupling_rows(failed, pool, toward)[1], size + 1)
    weights = [known[(x, y)] for x, y in pairs]
    assert [row[-1] for row in got] == [dot(f, list(w.values()), [toward[x][h] for h in w]) for (x, _), w in zip(pairs, weights)]
    pivots, _ = ref.reduce_direct(f, [list(row) for row in want.A.data], size, False)
    dependent = tuple(pair for t, pair in enumerate(pairs) if t not in pivots)
    if isinstance(code, IACode):
        assert code._compile_plan(failed).dependent == dependent
        return
    try:
        code.repair_multi({h: shards[h] for h in helpers}, failed, helpers)
        assert dependent == ()
    except SingularCouplingError as err:
        assert err.dependent == dependent != ()


# The coupling families repair up to e = min(n-k, d-k+1) nodes at once:
# the d-e+1 helpers must number at least k, and so must the survivors.
# That is k-1 for PM (d = 2k-2, n >= d+1) and k for IA (d = 2k-1, n = 2k).
F256 = Field(8)
LIMIT_CODES = {
    **{"pm_n%d_k%d" % (n, k): (lambda n=n, k=k: PMCode(F256, n, k), k - 1) for k in range(2, 7) for n in (2 * k - 1, 2 * k + 1)},
    **{"ia_k%d" % k: (lambda k=k: IACode(F256, k), k) for k in range(1, 7)},
}


@pytest.mark.parametrize("case", sorted(LIMIT_CODES))
def test_condition_check_and_repair_take_the_failure_limit_and_refuse_one_more(case):
    build, limit = LIMIT_CODES[case]
    code = build()
    assert limit == min(code.n - code.k, code.d - code.k + 1)
    shards = code.encode(code.random_message(random.Random(3)))
    at, past = tuple(range(1, limit + 1)), tuple(range(1, limit + 2))
    survivors = {m: v for m, v in shards.items() if m not in at}
    try:
        contents, _ = code.repair_multi(survivors, at)
        assert code.condition_check(at) is True and contents == {m: shards[m] for m in at}
    except SingularCouplingError:
        assert code.condition_check(at) is False
    survivors = {m: v for m, v in shards.items() if m not in past}
    for call in (lambda: code.condition_check(past), lambda: code.repair_multi(survivors, past)):
        with pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is ValueError and str(refused.value) == "can repair 1..%d nodes at once" % limit


# The MSR-to-MSMR conversion is CouplingCode's, the base of PM and IA alone.
# In RepairableCode, MDS and adaptive MBR inherited it and every call died
# with AttributeError on d or _projection.
COUPLING_METHODS = (
    "_single_decoder",
    "_sent_rows",
    "_pool_table",
    "_pool_entry",
    "_pool_decoder",
    "_pool_rows",
    "coupling_coefficient",
    "_coupling_rows",
    "coupling_system",
    "assemble_multi",
    "_max_failures",
    "_failures",
    "condition_check",
    "repair_transfer",
)


def test_only_the_coupling_families_carry_the_coupling_methods():
    codes = [
        (PMCode(F256, 11, 6), True),
        (IACode(F256, 6), True),
        (MDSStripeCode(F256, 7, 3, d_max=4), False),
        (AdaptiveMBRCode(F256, 8, 3, 4, 5), False),
    ]
    for code, coupling in codes:
        assert [hasattr(code, name) for name in COUPLING_METHODS] == [coupling] * len(COUPLING_METHODS)
    assert set(COUPLING_METHODS) <= set(vars(CouplingCode)) and not set(COUPLING_METHODS) & set(vars(RepairableCode))


def test_the_coupling_views_agree_with_condition_check_and_each_other():
    """coupling_system and assemble_multi are one pair of views for PM and
    IA, with one signature. Over the default helpers, A is singular exactly
    where condition_check says so; over any helpers, assemble_multi's A is
    coupling_system's, and each entry of b is its known-term recipe applied
    to the transfers assemble_multi returns; a solvable system gives back
    the transfers the failed nodes would have sent. Every singular pattern
    of each code is drawn (IA(6) has 17, PM(13, 6) over GF(2^6) 13), with
    a seeded sample of the rest; PM(13, 6) also swaps its last default
    helper for the highest live node."""
    rng = random.Random(30)
    for code in (PMCode(F256, 11, 6), PMCode(Field(6), 13, 6), IACode(F256, 6)):
        f, shards = code.field, code.encode(code.random_message(rng))
        patterns = [p for e in range(2, code._max_failures() + 1) for p in itertools.combinations(code.node_ids(), e)]
        singular = [p for p in patterns if not code.condition_check(p)]
        assert len(singular) == {11: 0, 13: 13, 12: 17}[code.n]
        for failed in singular + rng.sample(patterns, 40):
            system, _ = code.coupling_system(failed)
            assert code.condition_check(failed) == (system.determinant() != 0), failed
            default = code.default_helpers(code.node_ids(), failed, code.d - len(failed) + 1)
            sets = [None, default]
            if code.n > code.d + 1:
                last = max(set(code.node_ids()) - set(failed))
                sets.append(default[:-1] + (last,))
            survivors = {m: v for m, v in shards.items() if m not in failed}
            for helpers in sets:
                system, known = code.coupling_system(failed, helpers)
                assembled, transfers = code.assemble_multi(survivors, failed, helpers)
                assert assembled.A == system.A and system.b == [0] * system.size
                assert set(transfers) == {(h, j) for h in helpers or default for j in failed}
                for t, (x, y) in enumerate(system.pairs):
                    recipe = 0
                    for h, w in known[(x, y)]:
                        recipe ^= f.mul(w, transfers[(h, x)])
                    assert assembled.b[t] == recipe, (failed, helpers, (x, y))
                if assembled.determinant() != 0:
                    sent = {(l, i): code.repair_transfer(shards[l], i) for l, i in system.pairs}
                    assert assembled.solve() == sent, (failed, helpers)


@pytest.mark.parametrize("family", ["pm", "ia"])
def test_a_coupling_solve_builds_the_unknown_order_once(family, monkeypatch):
    """PM's repair of e >= 2 nodes and IA's plan compile read their solved
    rows in the unknown_pairs order _coupling_rows hands back with the rows;
    each built it a second time for itself."""
    calls = []

    def counted(failed):
        calls.append(failed)
        return unknown_pairs(failed)

    for name, module in list(sys.modules.items()):
        if name.startswith("regenrepair.") and hasattr(module, "unknown_pairs"):
            monkeypatch.setattr(module, "unknown_pairs", counted)
    code = PMCode(F256, 11, 6) if family == "pm" else IACode(F256, 6)
    shards = code.encode(code.random_message(random.Random(8)))
    for e in range(2, code._max_failures() + 1):
        for failed in (tuple(range(1, e + 1)), tuple(range(code.n - e + 1, code.n + 1))):
            calls.clear()
            try:
                code.repair_multi({m: v for m, v in shards.items() if m not in failed}, failed)
            except SingularCouplingError:
                pass
            assert len(calls) == 1, (failed, calls)
