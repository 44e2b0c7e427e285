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
from regenrepair.framework import InvalidHelperCountError, InvalidRepairInputError, RepairableCode
from regenrepair.gf import Field, Matrix
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode
from regenrepair.workbench import build_code

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


@pytest.mark.parametrize(
    "case",
    [reader_zero, reader_symbol_outside_field, reader_short_shard, reader_not_int, too_few_readers],
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


@pytest.mark.parametrize("case", [message_symbol_outside_field, message_wrong_length], ids=lambda c: c.__name__)
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


# The searches hand failed (and helper) ids straight to these calls. Before
# the id check, IA took 0 for a parity node (condition_check returned True)
# and died on 13 with IndexError; PM died on 0 with "shape mismatch" and on
# 12 with "ragged rows".
COUPLING_CALLS = {
    "ia_condition_zero": lambda: IACode(F256, 6).condition_check((0, 7)),
    "ia_condition_past_n": lambda: IACode(F256, 6).condition_check((1, 13)),
    "ia_system_past_n": lambda: IACode(F256, 6).coupling_system((1, 13)),
    "ia_system_not_int": lambda: IACode(F256, 6).coupling_system((1, 2.0)),
    "pm_matrix_zero": lambda: PMCode(F256, 11, 6).coupling_matrix((0, 7), (1, 2, 3, 4, 5, 6, 8, 9, 10)),
    "pm_matrix_past_n": lambda: PMCode(F256, 11, 6).coupling_matrix((1, 12), range(2, 11)),
    "pm_helper_past_n": lambda: PMCode(F256, 11, 6).coupling_matrix((1, 2), (*range(3, 11), 12)),
}


@pytest.mark.parametrize("case", sorted(COUPLING_CALLS))
def test_coupling_calls_refuse_ids_that_are_not_nodes(case):
    with pytest.raises(InvalidRepairInputError):
        COUPLING_CALLS[case]()


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


# AMBR's coefficient_matrix read node 0 as node n through a negative index
# and died on n + 1 with IndexError.
@pytest.mark.parametrize("bad", [0, 9])
def test_ambr_coefficient_matrix_refuses_ids_that_are_not_nodes(bad):
    with pytest.raises(InvalidRepairInputError):
        AdaptiveMBRCode(F256, 8, 3, 4, 5).coefficient_matrix([bad])


def test_the_request_contract_covers_every_family():
    assert {type(build()) for build in CODES.values()} == set(RepairableCode.__subclasses__())


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
