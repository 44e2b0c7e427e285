"""Every family refuses unknown node ids and out-of-field symbols up front.

Repair and reconstruct go through framework.check_input, encode through
framework.check_message, and all raise InvalidRepairInputError (a
ValueError, so the CLI exits 2). Before the checks, id 0 aliased node n
through a negative index and a symbol of 300 died inside a log table with
IndexError, while -1 was read silently through it; an id of "1" or 1.0
died in a comparison with TypeError, and True was taken as node 1. Every
family's repair request goes through RepairableCode._repair_nodes, so the
malformed requests at the end are refused alike by all of them.
"""

import json
import random
import re

import pytest

from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.cli import main
from regenrepair.framework import CouplingSystem, InvalidHelperCountError, InvalidRepairInputError, RepairableCode
from regenrepair.framework import NO_FAILED_NODE, SingularCouplingError
from regenrepair.gf import Field, Matrix, dot
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode
from regenrepair.workbench import build_code, verify_exact_repair

F256 = Field(8, 0x11D)
CODES = {
    "pm": lambda: PMCode(F256, 11, 6),
    "ia": lambda: IACode(F256, 3),
    "mds": lambda: MDSStripeCode(F256, 7, 3, d_max=4),
    "ambr": lambda: AdaptiveMBRCode(F256, 7, 3, 4, 5),
}


@pytest.fixture(scope="module")
def encoded():
    out = {}
    for family, build in CODES.items():
        code = build()
        out[family] = code, code.encode(code.random_message(random.Random(61)))
    return out


# symbols just past either end of GF(256), and the 300 of the CLI report
OUTSIDE = (256, 300, -1)
# a float passed the range check and died in a log table, a string in the
# comparison; the byte tables would take a bool as an index
NOT_INT = (1.5, 2.0, "7", True)
# a string id died in a comparison or a sort; 1.0 and True equal node 1 as
# dict keys and were taken for it
NOT_INT_IDS = ("1", 1.0, True)


def failed_zero(code, shards):
    yield lambda: code.repair_multi(dict(shards), (0,))


def failed_past_n(code, shards):
    yield lambda: code.repair_multi(dict(shards), (code.n + 1,))


def helper_symbol_outside_field(code, shards):
    for bad in OUTSIDE:
        survivors = {m: list(v) for m, v in shards.items() if m != 1}
        survivors[2][0] = bad
        yield lambda: code.repair_multi(survivors, (1,))


def failed_not_int(code, shards):
    for bad in NOT_INT_IDS:
        yield lambda: code.repair_multi({m: v for m, v in shards.items() if m != 1}, (bad,))
        yield lambda: code.repair_multi({m: v for m, v in shards.items() if m not in (1, 2)}, (bad, 2))


def shard_key_not_int(code, shards):
    for bad in NOT_INT_IDS:
        survivors = {m: v for m, v in shards.items() if m not in (1, 2)}
        yield lambda: code.repair_multi({**survivors, bad: shards[2]}, (1, 2))


def shard_key_unknown(code, shards):
    """A shard no helper reads is still id-checked."""
    survivors = {m: v for m, v in shards.items() if m != 1}
    yield lambda: code.repair_multi({**survivors, 99: shards[1]}, (1,))


def not_a_collection_or_map(code, shards):
    """A failed or helpers that is not a collection, shards that are not a
    map, and a shard with no length died with TypeError."""
    survivors = {m: v for m, v in shards.items() if m != 1}
    for failed in (1, None):
        yield lambda: code.repair_multi(survivors, failed)
    yield lambda: code.repair_multi(survivors, (1,), 3)
    yield lambda: code.repair_multi(None, (1,))
    yield lambda: code.repair_multi({**survivors, 2: None}, (1,))


def shards_not_a_map(code, shards):
    """Shards given as a list or tuple of node ids died with AttributeError
    on its keys."""
    yield lambda: code.repair_multi([2, 3, 4], (1,))
    yield lambda: code.repair_multi(tuple(m for m in shards if m != 1), (1,))


def picked_helpers(code, survivors, failed):
    """The helpers a repair of failed picks by default, from its transcript."""
    return tuple(code.repair_multi(survivors, failed)[1].per_helper)


def helper_not_int(code, shards):
    survivors = {m: v for m, v in shards.items() if m != 3}
    helpers = picked_helpers(code, survivors, (3,))
    assert helpers[0] == 1
    for bad in NOT_INT_IDS:
        yield lambda: code.repair_multi(survivors, (3,), (bad,) + helpers[1:])


@pytest.mark.parametrize(
    "case",
    [
        failed_zero,
        failed_past_n,
        helper_symbol_outside_field,
        failed_not_int,
        shard_key_not_int,
        shard_key_unknown,
        helper_not_int,
        not_a_collection_or_map,
        shards_not_a_map,
    ],
    ids=lambda c: c.__name__,
)
@pytest.mark.parametrize("family", sorted(CODES))
def test_repair_multi_rejects(encoded, family, case):
    code, shards = encoded[family]
    for call in case(code, shards):
        with pytest.raises(InvalidRepairInputError):
            call()


def reader_zero(code, shards):
    readers = {m: shards[m] for m in range(2, code.k + 1)}
    readers[0] = shards[1]  # sorts first, so it is one of the k read
    yield lambda: code.reconstruct(readers)


def reader_symbol_outside_field(code, shards):
    for bad in OUTSIDE:
        readers = {m: list(shards[m]) for m in range(1, code.k + 1)}
        readers[1][0] = bad
        yield lambda: code.reconstruct(readers)


def reader_short_shard(code, shards):
    readers = {m: shards[m] for m in range(1, code.k + 1)}
    readers[2] = shards[2][:-1]
    yield lambda: code.reconstruct(readers)


def reader_not_int(code, shards):
    for bad in NOT_INT_IDS:
        readers = {m: shards[m] for m in range(2, code.k + 1)}
        readers[bad] = shards[1]  # equal to node 1 or sorted against the others
        yield lambda: code.reconstruct(readers)
        yield lambda: code.reconstruct({**readers, 1: shards[1], code.k + 1: shards[code.k + 1]})


def too_few_readers(code, shards):
    yield lambda: code.reconstruct({m: shards[m] for m in range(1, code.k)})


def readers_not_a_map(code, shards):
    """None died with TypeError."""
    yield lambda: code.reconstruct(None)


@pytest.mark.parametrize(
    "case",
    [reader_zero, reader_symbol_outside_field, reader_short_shard, reader_not_int, too_few_readers, readers_not_a_map],
    ids=lambda c: c.__name__,
)
@pytest.mark.parametrize("family", sorted(CODES))
def test_reconstruct_rejects(encoded, family, case):
    code, shards = encoded[family]
    for call in case(code, shards):
        with pytest.raises(InvalidRepairInputError):
            call()


def message_symbol_outside_field(code, shards):
    for bad in OUTSIDE:
        msg = [0] * code.message_length
        msg[0] = bad
        yield lambda: code.encode(msg)


def message_wrong_length(code, shards):
    for length in (code.message_length - 1, code.message_length + 1):
        yield lambda: code.encode([1] * length)


def message_without_length(code, shards):
    """None and 5 died with TypeError."""
    for msg in (None, 5):
        yield lambda: code.encode(msg)


@pytest.mark.parametrize(
    "case", [message_symbol_outside_field, message_wrong_length, message_without_length], ids=lambda c: c.__name__
)
@pytest.mark.parametrize("family", sorted(CODES))
def test_encode_rejects(encoded, family, case):
    code, shards = encoded[family]
    for call in case(code, shards):
        with pytest.raises(InvalidRepairInputError):
            call()


@pytest.mark.parametrize("family", sorted(CODES))
def test_valid_input_still_round_trips(encoded, family):
    code, shards = encoded[family]
    readers = {m: shards[m] for m in range(1, code.k + 1)}
    msg = code.reconstruct(readers)
    assert code.encode(msg) == shards
    contents, _ = code.repair_multi({m: v for m, v in shards.items() if m != 1}, (1,))
    assert contents[1] == shards[1]


# random_message read rng.randrange once per symbol, so None and 5 died with
# AttributeError, and an object whose randrange is not callable with TypeError
class NotCallableDraw:
    randrange = 3


@pytest.mark.parametrize("rng", [None, 5, "rng", NotCallableDraw()], ids=["None", "int", "str", "attribute"])
@pytest.mark.parametrize("family", sorted(CODES))
def test_random_message_refuses_an_rng_with_no_callable_randrange(encoded, family, rng):
    code = encoded[family][0]
    with pytest.raises(ValueError, match="need an rng with a randrange method"):
        code.random_message(rng)


@pytest.mark.parametrize("family", sorted(CODES))
def test_non_int_symbols_are_refused(encoded, family):
    code, shards = encoded[family]
    for bad in NOT_INT:
        msg = code.random_message(random.Random(3))
        msg[0] = bad
        readers = {m: list(shards[m]) for m in range(1, code.k + 1)}
        readers[1][0] = bad
        survivors = {m: list(v) for m, v in shards.items() if m != 1}
        survivors[2][0] = bad
        calls = (lambda: code.encode(msg), lambda: code.reconstruct(readers),
                 lambda: code.repair_multi(survivors, (1,)))
        for call in calls:
            with pytest.raises(InvalidRepairInputError):
                call()


def duplicate_helpers(code, survivors, helpers):
    yield helpers[:-1] + helpers[:1]
    yield helpers + helpers[:1]


def failed_node_helps(code, survivors, helpers):
    yield helpers[:-1] + (1,)
    yield helpers + (1,)


def helper_count_off_by_one(code, survivors, helpers):
    yield helpers[:-1]
    yield helpers + tuple(m for m in code.node_ids() if m not in helpers)[:1]


@pytest.mark.parametrize("case", [duplicate_helpers, failed_node_helps, helper_count_off_by_one], ids=lambda c: c.__name__)
@pytest.mark.parametrize("family", sorted(CODES))
def test_every_family_refuses_a_malformed_helper_set(encoded, family, case):
    code, shards = encoded[family]
    survivors = {m: v for m, v in shards.items() if m != 1}
    for helpers in case(code, survivors, picked_helpers(code, survivors, (1,))):
        with pytest.raises((InvalidHelperCountError, InvalidRepairInputError)):
            code.repair_multi(survivors, (1,), helpers)


@pytest.mark.parametrize("family", sorted(CODES))
def test_every_family_refuses_a_malformed_failed_set(encoded, family):
    code, shards = encoded[family]
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi(dict(shards), (1,))  # a failed node still holds its shard
    with pytest.raises(InvalidRepairInputError):
        code.repair_multi({m: v for m, v in shards.items() if m != 1}, ())


# A failed set holding an id that cannot go in a set, such as [1] or {1},
# was refused as "failed nodes must be a collection of node ids, not
# ([1],)": the collection was fine, the id was not.
@pytest.mark.parametrize("bad", [[1], {1}], ids=repr)
@pytest.mark.parametrize("family", sorted(CODES))
def test_an_unhashable_failed_id_is_named_as_check_input_names_it(encoded, family, bad):
    code, shards = encoded[family]
    survivors = {m: v for m, v in shards.items() if m != 1}
    calls = [lambda: code.repair_multi(survivors, [bad])]
    if family in ("pm", "ia"):
        calls.append(lambda: code.condition_check([bad]))
    for call in calls:
        with pytest.raises(InvalidRepairInputError) as refused:
            call()
        assert str(refused.value) == "node ids not ints in 1..%d: %r" % (code.n, [bad])


# The searches hand failed (and helper) ids straight to these calls. Before
# the id check, IA took 0 for a parity node (condition_check returned True)
# and died on 13 with IndexError; PM died on 0 with "shape mismatch" and on
# 12 with "ragged rows". PM's condition_check died on a failed set that is
# not a collection with TypeError.
COUPLING_CALLS = {
    "ia_condition_zero": lambda: IACode(F256, 6).condition_check((0, 7)),
    "ia_condition_past_n": lambda: IACode(F256, 6).condition_check((1, 13)),
    "ia_system_past_n": lambda: IACode(F256, 6).coupling_system((1, 13)),
    "ia_system_not_int": lambda: IACode(F256, 6).coupling_system((1, 2.0)),
    "ia_condition_not_a_collection": lambda: IACode(F256, 6).condition_check(5),
    "pm_condition_not_a_collection": lambda: PMCode(F256, 11, 6).condition_check(5),
    "pm_matrix_zero": lambda: PMCode(F256, 11, 6).coupling_system((0, 7), (1, 2, 3, 4, 5, 6, 8, 9, 10)),
    "pm_matrix_past_n": lambda: PMCode(F256, 11, 6).coupling_system((1, 12), range(2, 11)),
    "pm_helper_past_n": lambda: PMCode(F256, 11, 6).coupling_system((1, 2), (*range(3, 11), 12)),
    # no failed node at all: PM's condition_check answered True
    "pm_condition_empty": lambda: PMCode(F256, 11, 6).condition_check(()),
    "ia_condition_empty": lambda: IACode(F256, 3).condition_check(()),
}


@pytest.mark.parametrize("case", sorted(COUPLING_CALLS))
def test_coupling_calls_refuse_ids_that_are_not_nodes(case):
    with pytest.raises(InvalidRepairInputError):
        COUPLING_CALLS[case]()


# condition_check answers only for patterns repair_multi takes. PM(GF(64),
# 13, 6) died on 12 failed nodes with "pool must hold d+1 = 11 nodes" and
# answered False for 6..11 of them and True for none; IA(GF(256), 3)
# answered False for 4 failed nodes.
F64 = Field(6)
REFUSED_PATTERNS = {
    "pm13_twelve": (lambda: PMCode(F64, 13, 6), tuple(range(1, 13))),
    "pm13_six": (lambda: PMCode(F64, 13, 6), (1, 3, 5, 7, 9, 11)),
    "pm13_eleven": (lambda: PMCode(F64, 13, 6), tuple(range(2, 13))),
    "pm11_six": (lambda: PMCode(F256, 11, 6), (1, 2, 3, 4, 5, 6)),
    "pm13_none": (lambda: PMCode(F64, 13, 6), ()),
    "ia3_four": (lambda: IACode(F256, 3), (1, 2, 3, 4)),
    "ia3_six": (lambda: IACode(F256, 3), (1, 2, 3, 4, 5, 6)),
    "ia3_none": (lambda: IACode(F256, 3), []),
}


@pytest.mark.parametrize("case", sorted(REFUSED_PATTERNS))
def test_condition_check_refuses_what_repair_refuses(case):
    """The same error, type and message, as a repair of the pattern."""
    build, failed = REFUSED_PATTERNS[case]
    code = build()
    survivors = {m: [0] * code.shard_length for m in code.node_ids() if m not in failed}
    with pytest.raises(ValueError) as repair:
        code.repair_multi(survivors, failed)
    with pytest.raises(ValueError) as check:
        code.condition_check(failed)
    assert (type(check.value), str(check.value)) == (type(repair.value), str(repair.value))
    want = InvalidRepairInputError if not failed else ValueError
    assert type(check.value) is want and ("can repair 1.." in str(check.value)) == bool(failed)


# The coupling views never applied the failure limit: PM(11, 6) built a
# 30-unknown system for six failed nodes, IA(GF(256), 6) 42 unknowns for
# seven, and PM(GF(64), 13, 6) with twelve failed nodes blamed the helper
# count ("a helper count is an int >= 0, not -1"). Given no failed node,
# PM(11, 6) and IA(GF(256), 3) returned a system of no unknowns.
REFUSED_BY_REPAIR = {
    "pm11_six": (lambda: PMCode(F256, 11, 6), range(1, 7)),
    "pm13_twelve": (lambda: PMCode(F64, 13, 6), range(1, 13)),
    "ia6_seven": (lambda: IACode(F256, 6), range(1, 8)),
    "pm11_none": (lambda: PMCode(F256, 11, 6), ()),
    "ia3_none": (lambda: IACode(F256, 3), ()),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BY_REPAIR))
def test_the_coupling_views_refuse_what_repair_refuses(case):
    """The same error, type and message, as a repair of the pattern, with
    the helpers left to default or given, before any helper is read."""
    build, failed = REFUSED_BY_REPAIR[case]
    code = build()
    survivors = {m: [0] * code.shard_length for m in code.node_ids() if m not in failed}
    with pytest.raises(ValueError) as repair:
        code.repair_multi(survivors, failed)
    if failed:
        assert str(repair.value).startswith("can repair 1..")
    else:
        assert (type(repair.value), str(repair.value)) == (InvalidRepairInputError, NO_FAILED_NODE)
    helpers = [m for m in code.node_ids() if m not in failed]
    calls = [
        lambda: code.coupling_system(failed),
        lambda: code.coupling_system(iter(failed), helpers),
        lambda: code.assemble_multi(survivors, failed),
        lambda: code.assemble_multi({}, failed, [0]),
        lambda: code.condition_check(failed),
    ]
    for call in calls:
        with pytest.raises(ValueError) as view:
            call()
        assert (type(view.value), str(view.value)) == (type(repair.value), str(repair.value))


# assemble_multi builds a coupling system from raw shards, outside
# repair_multi's checks. On IA(GF(2^8), 3) with failed (1, 4), a missing
# helper died with KeyError (2, 1) and a symbol of 300 with IndexError in a
# log table; PM(11, 6) built a system on a 2-symbol helper shard, and died
# with IndexError on 300 and with KeyError 2 on a missing helper.
def assemble_cases(code, shards):
    failed = (1, 4) if isinstance(code, IACode) else (1, 3)
    extra = () if isinstance(code, IACode) else ([h for h in code.node_ids() if h not in failed][: code.d - 1],)
    survivors = {m: list(v) for m, v in shards.items() if m not in failed}

    def call(shards):
        return lambda: code.assemble_multi(shards, failed, *extra)

    yield "missing helper", call({m: v for m, v in survivors.items() if m != 2})
    for bad in OUTSIDE + NOT_INT:
        yield "symbol %r" % (bad,), call({**survivors, 2: [bad] + survivors[2][1:]})
    yield "short shard", call({**survivors, 2: survivors[2][:2]})
    yield "long shard", call({**survivors, 2: survivors[2] + [0]})
    for bad in NOT_INT_IDS + (0, code.n + 1):
        yield "shard key %r" % (bad,), call({**survivors, bad: survivors[2]})


@pytest.mark.parametrize("family", ["ia", "pm"])
def test_assemble_multi_checks_ids_and_helper_shards(encoded, family):
    code, shards = encoded[family]
    for what, call in assemble_cases(code, shards):
        with pytest.raises(InvalidRepairInputError):
            call()
            pytest.fail(what)
    # failed nodes' shards are not read: the full encode is taken as is
    failed = (1, 4) if family == "ia" else (1, 3)
    helpers = () if family == "ia" else ([h for h in code.node_ids() if h not in failed][: code.d - 1],)
    system, _ = code.assemble_multi(dict(shards), failed, *helpers)
    assert system.solve()


# verify_exact_repair sorted the pattern and read the golden shards before
# any check: PM(11, 6) died on (0,) and (12,) with KeyError, on (1, "a")
# with TypeError from sorted, and on 5 with "'int' object is not iterable".
@pytest.mark.parametrize("family", sorted(CODES))
def test_verify_exact_repair_refuses_a_pattern_that_is_not_node_ids(encoded, family):
    code, _ = encoded[family]
    for bad in ((0,), (code.n + 1,), (1, "a"), (1, True), 5, None):
        with pytest.raises(InvalidRepairInputError):
            verify_exact_repair(code, bad)
    assert verify_exact_repair(code, iter((2, 1)))[0]


# repair_transfer is public. On PM(11, 6) target 0 returned node 11's
# transfer through Phi.data[-1], True read as node 1, 12 died with
# IndexError (as IA's 0 did), and a 2-symbol shard returned a value.
@pytest.mark.parametrize("family", ["ia", "pm"])
def test_repair_transfer_refuses_targets_that_are_not_nodes_and_malformed_shards(encoded, family):
    code, shards = encoded[family]
    shard = shards[2]
    for target in (0, code.n + 1, *NOT_INT_IDS, 2.5):
        with pytest.raises(InvalidRepairInputError):
            code.repair_transfer(shard, target)
    malformed = [shard[:2], shard + [0], 5, None]
    malformed += [[bad] + shard[1:] for bad in OUTSIDE + NOT_INT]
    for bad in malformed:
        with pytest.raises(InvalidRepairInputError):
            code.repair_transfer(bad, 1)
    assert code.repair_transfer(shard, code.n) == dot(code.field, shard, code._projection(code.n))


# A pool of d+1 ids with one past n died in the decoder derivation with
# "ragged rows", and one with a string in it with TypeError.
POOL_CALLS = {
    "decoder_past_n": (lambda code, pool: code._pool_decoder(1, pool), 12),
    "decoder_not_int": (lambda code, pool: code._pool_decoder(1, pool), "a"),
    "coefficient_past_n": (lambda code, pool: code.coupling_coefficient(1, 2, 3, pool), 12),
    "coefficient_not_int": (lambda code, pool: code.coupling_coefficient(1, 2, 3, pool), "a"),
}


@pytest.mark.parametrize("case", sorted(POOL_CALLS))
def test_pool_calls_name_the_ids_that_are_not_nodes(case):
    call, bad = POOL_CALLS[case]
    with pytest.raises(InvalidRepairInputError, match=re.escape(repr([bad]))):
        call(PMCode(F256, 11, 6), [*range(1, 11), bad])


# A repair degree of 4.0 died slicing with TypeError, and "4" in the range
# comparison with TypeError; a bool would pass for 0 or 1.
@pytest.mark.parametrize("family", ["mds", "ambr"])
def test_degree_flexible_families_refuse_a_degree_that_is_not_an_int(encoded, family):
    code, shards = encoded[family]
    survivors = {m: v for m, v in shards.items() if m != 1}
    for bad in (float(code.d_max), str(code.d_max), True):
        with pytest.raises(InvalidHelperCountError):
            code.repair_multi(survivors, (1,), d=bad)
    assert code.repair_multi(survivors, (1,), d=code.d_max)[0][1] == shards[1]


# default_helpers sliced the live nodes by its count: -1 gave PM(11, 6) all
# but the last of its 9 live nodes, 8 helpers.
@pytest.mark.parametrize("family", sorted(CODES))
def test_default_helpers_refuse_a_count_that_is_not_an_int_at_least_zero(encoded, family):
    code, _ = encoded[family]
    for bad in (-1, -5, 2.0, "2", True, None):
        with pytest.raises(InvalidHelperCountError):
            code.default_helpers(code.node_ids(), (1, 2), bad)
    assert code.default_helpers(code.node_ids(), (1, 2), 0) == ()
    assert code.default_helpers(code.node_ids(), (1, 2), 2) == (3, 4)


# coupling_system(None) and assemble_multi(shards, None) died with a raw
# TypeError from None + (), where repair_multi refuses a failed of None.
@pytest.mark.parametrize("family", ["ia", "pm"])
def test_the_coupling_views_refuse_failed_ids_that_are_not_a_collection(encoded, family):
    code, shards = encoded[family]
    helpers = list(range(3, code.d + 2))
    calls = [
        lambda: code.repair_multi(shards, None),
        lambda: code.coupling_system(None),
        lambda: code.coupling_system(None, helpers),
        lambda: code.assemble_multi(shards, None),
        lambda: code.assemble_multi(shards, None, helpers),
    ]
    for call in calls:
        with pytest.raises(InvalidRepairInputError, match="collections"):
            call()


# AMBR's coefficient_matrix read node 0 as node n through a negative index
# and died on n + 1 with IndexError.
@pytest.mark.parametrize("bad", [0, 9])
def test_ambr_coefficient_matrix_refuses_ids_that_are_not_nodes(bad):
    with pytest.raises(InvalidRepairInputError):
        AdaptiveMBRCode(F256, 8, 3, 4, 5).coefficient_matrix([bad])


def leaf_families(base):
    """The classes below base that no class derives from: the families."""
    below = base.__subclasses__()
    return set().union(*map(leaf_families, below)) if below else {base}


def test_the_request_contract_covers_every_family():
    assert {type(build()) for build in CODES.values()} == leaf_families(RepairableCode)
    assert leaf_families(RepairableCode) == {PMCode, IACode, MDSStripeCode, AdaptiveMBRCode}


# Coefficients outside the field, or not ints, wrapped through the log
# tables (-1 acted as 255), died in them with IndexError (300), or in a
# comparison with TypeError (2.0); a bool would pass for 0 or 1.
BAD_COEFFICIENTS = (-1, 256, 300, 1000, 2.0, True, "7")


def pm_with_lambda(bad):
    return PMCode(F256, 7, 3, [bad] + [F256.pow(F256.generator, t) for t in range(2, 8)])


def ia_with_kappa(bad):
    return IACode(F256, 2, kappa=bad)


def ia_with_p_entry(bad):
    p = IACode(F256, 2).P.data
    return IACode(F256, 2, P=Matrix(F256, [[bad, p[0][1]], p[1]]))


def ia_with_v_entry(bad):
    return IACode(F256, 2, V=Matrix(F256, [[1, bad], [0, 1]]))


@pytest.mark.parametrize("build", [pm_with_lambda, ia_with_kappa, ia_with_p_entry, ia_with_v_entry],
                         ids=lambda b: b.__name__)
def test_constructors_refuse_coefficients_outside_the_field(build):
    for bad in BAD_COEFFICIENTS:
        with pytest.raises(ValueError):
            build(bad)
    build(2)  # and the same code builds on a field element


@pytest.mark.parametrize("name", ["P", "V"])
@pytest.mark.parametrize("bad", [[[1, 0], [0, 1]], "12", 2, ((1, 0), (0, 1))], ids=["list", "str", "int", "tuple"])
def test_ia_refuses_a_p_or_v_that_is_not_a_matrix(name, bad):
    """A P or V that is not a Matrix gets the ValueError of the shape check;
    a list, a string or an int died with AttributeError ('list' object has
    no attribute 'rows')."""
    with pytest.raises(ValueError, match="%s must be k x k ints" % name) as refused:
        IACode(F256, 2, **{name: bad})
    assert type(refused.value) is ValueError
    IACode(F256, 2, **{name: IACode(F256, 2).P})


# Sizes that are not ints: IACode(F256, True) built a code with k = True,
# and a float size died with TypeError in range() or on &.
SIZES = {
    "pm": (lambda n, k: PMCode(F256, n, k), (7, 3)),
    "ia": (lambda k: IACode(F256, k), (2,)),
    "mds-fixed": (lambda n, k, d: MDSStripeCode(F256, n, k, d=d), (7, 3, 4)),
    "mds-adaptive": (lambda n, k, d_max: MDSStripeCode(F256, n, k, d_max=d_max), (7, 3, 4)),
    "ambr": (lambda n, k, d_min, d_max: AdaptiveMBRCode(F256, n, k, d_min, d_max), (8, 3, 4, 5)),
}


@pytest.mark.parametrize("family", sorted(SIZES))
def test_constructors_refuse_sizes_that_are_not_ints(family):
    build, sizes = SIZES[family]
    for at, size in enumerate(sizes):
        for bad in (float(size), str(size), True):
            with pytest.raises(ValueError, match=r"\bints?\b"):
                build(*sizes[:at], bad, *sizes[at + 1 :])
    build(*sizes)


# Field(True) built a field with m = True; a float or string degree died
# with TypeError, and a float or string modulus with AttributeError.
@pytest.mark.parametrize("m, modulus", [(True, None), (8.0, None), ("8", None), (8, 285.0), (8, "0x11d")])
def test_field_refuses_a_degree_or_modulus_that_is_not_an_int(m, modulus):
    with pytest.raises(ValueError, match=r"\bint\b"):
        Field(m, modulus)


def descriptors():
    """One valid descriptor per family."""
    return {family: build().descriptor() for family, build in CODES.items()}


def test_build_code_refuses_malformed_descriptors():
    for bad in ([1], "pm", 7, None):
        with pytest.raises(ValueError):
            build_code(bad)
    for family, desc in descriptors().items():
        for key, value in desc.items():
            if key in ("family", "mode"):
                continue
            for bad in ("7", 7.0, True, None if key != "modulus" else "285", [value], {"x": value}):
                with pytest.raises(ValueError):
                    build_code({**desc, key: bad})
        assert build_code(desc).descriptor() == desc
    with pytest.raises(ValueError):
        build_code({**descriptors()["mds"], "d_or_range": [4]})  # was IndexError


# An adaptive MDS descriptor's d_or_range of [9, 4] built the code of [3, 4],
# whose descriptor differed from the input: only [k, d_max] round-trips.
def test_build_code_refuses_an_adaptive_range_that_does_not_start_at_k():
    desc = descriptors()["mds"]
    assert desc["mode"] == "adaptive" and desc["d_or_range"] == [3, 4]
    for bad in ([9, 4], [2, 4], [4, 4], [3], [3, 4, 5], []):
        with pytest.raises(ValueError) as refused:
            build_code({**desc, "d_or_range": bad})
        assert type(refused.value) is ValueError and "'d_or_range'" in str(refused.value)


# An MDS mode but "fixed" built an adaptive code, and a missing field died
# with KeyError, which the CLI printed as "error: 'family'".
def test_build_code_refuses_a_missing_field_and_an_unknown_mode_by_name(capsys, tmp_path):
    for family, desc in descriptors().items():
        for key in desc:
            with pytest.raises(ValueError) as refused:
                build_code({k: v for k, v in desc.items() if k != key})
            assert type(refused.value) is ValueError and repr(key) in str(refused.value)
    with pytest.raises(ValueError, match="unknown MDS mode 'x'"):
        build_code({**descriptors()["mds"], "mode": "x"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**descriptors()["mds"], "mode": "x"}))
    assert main(["code", "encode", "--descriptor", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown MDS mode 'x'\n"


# one field per family spoilt: a lambda of 300 died in a log table, kappa
# -3 acted as 253, and n "7" and k 2.0 died in comparisons
SPOILT = {"pm": ("lambdas", lambda v: [300] + v[1:]), "ia": ("kappa", lambda v: -3), "mds": ("n", str), "ambr": ("k", float)}


@pytest.mark.parametrize("family", sorted(CODES))
def test_cli_refuses_a_malformed_descriptor_in_one_line(capsys, tmp_path, family):
    """Exit 2 and a single error line, where these descriptors built a
    code or exited 1 with a traceback."""
    desc = descriptors()[family]
    key, spoil = SPOILT[family]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**desc, key: spoil(desc[key])}))
    code = main(["code", "encode", "--descriptor", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Every public entry that takes failed or helpers reads each once, so a
# one-shot iterator gets exactly what the tuple gets. Before, the first read
# used it up: IA's condition_check answered True for the singular (5, 6, 7)
# and for (0, 99), PM's coupling_matrix and IA's coupling_system built an
# empty system with determinant 1, and repairs failed with "need at least
# one failed node" (or, on iterator helpers, a helper count error).
ONE_SHOT_CODES = {
    "pm": lambda: PMCode(F256, 11, 6),
    "ia6": lambda: IACode(F256, 6),
    "mds": lambda: MDSStripeCode(F256, 7, 3, d_max=4),
    "ambr": lambda: AdaptiveMBRCode(F256, 7, 3, 4, 5),
}
# family -> (failed, helpers) cases; PM's helpers are d-e+1 = 9 nodes
ONE_SHOT_CASES = {
    "pm": [((1, 3), (2, *range(4, 12))), ((0, 99), tuple(range(1, 10)))],
    "ia6": [((5, 6, 7), None), ((0, 99), None)],
    "mds": [((1, 2), (3, 4, 5, 7)), ((0, 99), None)],
    "ambr": [((1, 2), (3, 4, 6, 7)), ((0, 99), None)],
}
# entry -> (the families that have it, the call)
ONE_SHOT_ENTRIES = {
    "repair_multi": (("pm", "ia6", "mds", "ambr"), lambda code, shards, failed, helpers: code.repair_multi(shards, failed, helpers)),
    "condition_check": (("pm", "ia6"), lambda code, shards, failed, helpers: code.condition_check(failed)),
    "pm_coupling_system": (("pm",), lambda code, shards, failed, helpers: code.coupling_system(failed, helpers)),
    "pm_assemble_multi": (("pm",), lambda code, shards, failed, helpers: code.assemble_multi(shards, failed, helpers)),
    "coupling_system": (("ia6",), lambda code, shards, failed, helpers: code.coupling_system(failed)),
    "ia_assemble_multi": (("ia6",), lambda code, shards, failed, helpers: code.assemble_multi(shards, failed)),
}


def settled(value):
    """A call's result in comparable form: a CouplingSystem as its
    failed nodes, pairs, A and b."""
    if isinstance(value, CouplingSystem):
        return ("system", value.failed, value.pairs, value.A.data, value.b)
    if isinstance(value, tuple):
        return tuple(settled(v) for v in value)
    return value


def outcome(call):
    """What call returns, or its error's type, message and dependent pairs."""
    try:
        return settled(call())
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "dependent", None)


@pytest.fixture(scope="module")
def one_shot_encoded():
    out = {}
    for family, build in ONE_SHOT_CODES.items():
        code = build()
        out[family] = code, code.encode(code.random_message(random.Random(5)))
    return out


@pytest.mark.parametrize(
    "entry, family, case",
    [(entry, family, t) for entry, (families, _) in ONE_SHOT_ENTRIES.items() for family in families for t in range(2)],
)
def test_a_one_shot_iterator_gets_what_the_tuple_gets(one_shot_encoded, entry, family, case):
    code, shards = one_shot_encoded[family]
    failed, helpers = ONE_SHOT_CASES[family][case]
    survivors = {m: v for m, v in shards.items() if m not in failed}
    call = ONE_SHOT_ENTRIES[entry][1]
    want = outcome(lambda: call(code, survivors, failed, helpers))
    got = outcome(lambda: call(code, survivors, iter(failed), helpers if helpers is None else iter(helpers)))
    assert got == want
    if failed == (0, 99):
        assert want[0] is InvalidRepairInputError
    elif family == "ia6" and entry == "condition_check":
        assert want is False
    elif family == "ia6" and entry == "repair_multi":
        assert want[0] is SingularCouplingError and want[2]
