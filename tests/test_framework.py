"""Coupling-system plumbing: unknown ordering, solve, transcripts."""

import random

import pytest

from regenrepair.framework import (
    CouplingSystem,
    RepairTranscript,
    SingularCouplingError,
    unknown_index,
    unknown_pairs,
)
from regenrepair.gf import Field, mat_vec


def test_unknown_order_frozen():
    assert unknown_pairs([4, 9]) == [(4, 9), (9, 4)]
    f = [3, 7, 12]
    assert unknown_pairs(f) == [(3, 7), (7, 3), (3, 12), (12, 3), (7, 12), (12, 7)]
    assert unknown_index(f, 3, 7) == 0
    assert unknown_index(f, 7, 3) == 1
    assert unknown_index(f, 3, 12) == 2
    assert unknown_index(f, 12, 7) == 5


def test_unknown_index_is_bijection_and_matches_pair_list():
    for e in range(2, 6):
        failed = [10 * t + 1 for t in range(e)]
        pairs = unknown_pairs(failed)
        assert len(pairs) == e * (e - 1)
        assert len(set(pairs)) == len(pairs)
        for pos, (i, j) in enumerate(pairs):
            assert unknown_index(failed, i, j) == pos
    with pytest.raises(ValueError):
        unknown_index([1, 2], 1, 1)


def test_coupling_system_index_matches_unknown_index():
    gf = Field(4)
    rng = random.Random(11)
    for e in range(1, 6):
        failed = rng.sample(range(1, 30), e)
        for beta in (1, 3):
            sys_ = CouplingSystem(gf, failed, beta)
            for i, j in unknown_pairs(failed):
                for t in range(beta):
                    assert sys_.index(i, j, t) == unknown_index(failed, i, j) * beta + t


def test_unknown_order_ignores_input_permutation():
    assert unknown_pairs([12, 3, 7]) == unknown_pairs([3, 7, 12])
    assert unknown_index((7, 12, 3), 12, 7) == 5


def test_coupling_system_layout():
    gf = Field(4)
    sys_ = CouplingSystem(gf, [2, 5, 8])
    assert sys_.size == 6
    # diagonal pre-filled with -1 = 1 in characteristic 2
    assert all(sys_.A.data[t][t] == 1 for t in range(6))
    sys_.add_entry((2, 5), (5, 2), 7)
    assert sys_.A.data[0][1] == 7
    sys_.add_entry((2, 5), (5, 2), 7)
    assert sys_.A.data[0][1] == 0
    sys_.add_rhs((8, 5), 3)
    assert sys_.b[5] == 3


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
    sys_.add_entry((3, 9), (9, 3), 1)
    sys_.add_entry((9, 3), (3, 9), 1)  # [[1,1],[1,1]] singular
    assert sys_.determinant() == 0
    with pytest.raises(SingularCouplingError) as info:
        sys_.solve()
    assert info.value.failed == (3, 9)


def test_transcript_totals():
    t = RepairTranscript(per_helper={1: 3, 2: 3})
    assert t.total == 6
