"""Every family refuses unknown node ids and out-of-field symbols up front.

Repair and reconstruct go through framework.check_input, encode through
framework.check_message, and all raise InvalidRepairInputError (a
ValueError, so the CLI exits 2). Before the checks, id 0 aliased node n
through a negative index and a symbol of 300 died inside a log table with
IndexError, while -1 was read silently through it. PM repair has its own
cases in test_pm.
"""

import random

import pytest

from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.framework import InvalidRepairInputError
from regenrepair.gf import Field
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode

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


def failed_zero(code, shards):
    yield lambda: code.repair_multi(dict(shards), (0,))


def failed_past_n(code, shards):
    yield lambda: code.repair_multi(dict(shards), (code.n + 1,))


def helper_symbol_outside_field(code, shards):
    for bad in OUTSIDE:
        survivors = {m: list(v) for m, v in shards.items() if m != 1}
        survivors[2][0] = bad
        yield lambda: code.repair_multi(survivors, (1,))


@pytest.mark.parametrize("case", [failed_zero, failed_past_n, helper_symbol_outside_field], ids=lambda c: c.__name__)
@pytest.mark.parametrize("family", ["ia", "mds", "ambr"])
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


@pytest.mark.parametrize("case", [reader_zero, reader_symbol_outside_field, reader_short_shard], ids=lambda c: c.__name__)
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
