"""Coupling-system plumbing: unknown ordering, solve, transcripts; the one decode-map solve."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from regenrepair.framework import (
    CouplingSystem,
    RepairableCode,
    RepairTranscript,
    SingularCouplingError,
    unknown_pairs,
)
from regenrepair.gf import Field, Matrix, SingularMatrixError, mat_mul, mat_rank, mat_vec
from regenrepair.ia import IACode
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


def test_single_decoder_refuses_transfers_that_do_not_determine_the_node():
    """d transfers decode a PM node; d-1 leave it undetermined and d+1 are
    dependent, and 2k-2 leave an IA node undetermined: no decoder is made
    up for any of them."""
    pm = PMCode(Field(8, 0x11D), 13, 6)
    others = [s for s in pm.node_ids() if s != 1]
    decoder = pm._single_decoder(1, others[: pm.d])
    assert (decoder.rows, decoder.cols) == (pm.alpha, pm.d)
    for sources in (others[: pm.d - 1], others[: pm.d + 1]):
        with pytest.raises(SingularMatrixError, match="do not determine node 1"):
            pm._single_decoder(1, sources)
    ia = IACode(Field(5), 3)
    assert ia._single_decoder(4, [1, 2, 3, 5, 6]).cols == 5
    with pytest.raises(SingularMatrixError):
        ia._single_decoder(4, [1, 2, 3, 5])


def test_a_repeated_failed_id_is_one_node():
    """(1, 1, 2) builds the coupling system of (1, 2) in both families,
    not one with a self-transfer (1, 1) that no node sends."""
    f = Field(8, 0x11D)
    ia, pm = IACode(f, 6), PMCode(f, 11, 6)
    for build in (lambda failed: ia.coupling_system(failed)[0], lambda failed: pm.coupling_matrix(failed, range(3, 12))):
        once, twice = build((1, 2)), build((1, 1, 2))
        assert (twice.pairs, twice.A, twice.b) == (once.pairs, once.A, once.b)


# GF(2^4) and GF(2^8) reduce on packed rows when two or more target rows
# ride along, on table lists with one; GF(2^10) and GF(2^13), past the
# byte multiply tables, on table lists
DERIVE_FIELDS = {m: Field(m) for m in (4, 8, 10, 13)}


@st.composite
def derive_cases(draw):
    """1..8 rows of 1..8 columns, each drawn at random or made a
    combination of the rows before it, and 1..4 target rows, each a
    combination of the rows or drawn at random."""
    field = DERIVE_FIELDS[draw(st.sampled_from(sorted(DERIVE_FIELDS)))]
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
    code.field = field
    rank = mat_rank(Matrix(field, rows))
    if mat_rank(Matrix(field, rows + target)) > rank:
        with pytest.raises(SingularMatrixError):
            code._derive(rows, target)
        return
    derived, picks = code._derive(rows, target)
    assert mat_mul(derived, Matrix(field, rows)).data == target
    assert len(picks) == rank
    assert all(out[c] == 0 for out in derived.data for c in range(len(rows)) if c not in picks)
