"""Workbench tests: deterministic sweeps, CSV emitters, coefficient search."""

import csv
import json
from dataclasses import asdict
from fractions import Fraction

import pytest

import reference_paths as ref
from regenrepair.framework import CouplingCode
from regenrepair.gf import Field
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode
from regenrepair import workbench
from regenrepair.tradeoff import SystemParams
from regenrepair.workbench import (
    AssignmentNotFoundError,
    SplitRandom,
    build_code,
    emit_comparison,
    emit_curve,
    run_sweep,
    search_assignment,
    verify_exact_repair,
)

F32 = Field(5)
F64 = Field(6, 0x43)


def test_split_random_streams_are_independent():
    base = SplitRandom(42)
    a = base.split("a")
    b = base.split("b")
    seq_a = [a.randrange(1000) for _ in range(8)]
    seq_b = [b.randrange(1000) for _ in range(8)]
    assert seq_a != seq_b
    # same label and seed replays the same stream, regardless of draw order
    replay = SplitRandom(42).split("a")
    assert [replay.randrange(1000) for _ in range(8)] == seq_a
    # draws from one stream do not disturb a sibling
    base2 = SplitRandom(42)
    s2 = base2.split("b")
    base2.split("a").randrange(10)
    assert [s2.randrange(1000) for _ in range(8)] == seq_b
    assert SplitRandom(43).split("a").randrange(10**9) != SplitRandom(42).split("a").randrange(10**9)


@pytest.mark.parametrize("seed", [0, 7, -3, 2**40])
@pytest.mark.parametrize("path", [(), ("a",), ("msg-1,2,3",), ("patterns", 5, "x/y")])
def test_split_random_draws_equal_the_whole_key_hash(seed, path):
    """A stream hashes its "seed|path|" prefix once and copies it per
    draw; every draw, past counter 10 too, equals hashing the whole key."""
    rng = SplitRandom(seed, path)
    assert [rng._next64() for _ in range(23)] == ref.split_random_draws(seed, path, 23)
    child = SplitRandom(seed, path).split("child")
    assert [child._next64() for _ in range(12)] == ref.split_random_draws(seed, (*path, "child"), 12)


def test_split_random_sample_is_sorted_unique():
    rng = SplitRandom(7).split("patterns")
    got = rng.sample(range(100), 12)
    assert len(got) == 12
    assert len(set(got)) == 12
    assert all(0 <= x < 100 for x in got)
    with pytest.raises(ValueError):
        SplitRandom(7).sample(range(3), 5)


@pytest.mark.parametrize("count", [-1, True, 1.5, "2"])
def test_split_random_sample_refuses_a_count_that_is_not_an_int_from_zero(count):
    """sample([1, 2, 3], -1) returned [1, 2] and a count of True one item;
    1.5 and "2" died with a raw TypeError."""
    with pytest.raises(ValueError, match="sample count"):
        SplitRandom(7).sample([1, 2, 3], count)
    assert SplitRandom(7).sample([1, 2, 3], 0) == []


@pytest.mark.parametrize("bound", [2.5, 3.0, True, "3", 0, -1])
def test_split_random_randrange_refuses_a_bound_that_is_not_an_int_from_one(bound):
    """randrange(2.5) returned 1.0 and randrange(True) 0; "3" died with a
    raw TypeError."""
    with pytest.raises(ValueError, match="bound"):
        SplitRandom(7).randrange(bound)


@pytest.mark.parametrize("seed", [2.5, 2.0, "2", True, None])
def test_split_random_refuses_a_seed_that_is_not_an_int(seed):
    """SplitRandom(2.5), SplitRandom(2.0) and SplitRandom("2") drew seed 2's
    stream and SplitRandom(True) seed 1's, so run_sweep(code, e, seed=2.5)
    ran seed 2; the seed is refused as randrange refuses its bound. Int
    seeds keep their streams."""
    with pytest.raises(ValueError, match="seed"):
        SplitRandom(seed)
    with pytest.raises(ValueError, match="seed"):
        run_sweep(PMCode(F32, 6, 3), 1, seed=seed)
    rng = SplitRandom(2)
    assert [rng._next64() for _ in range(3)] == ref.split_random_draws(2, (), 3)


def test_verify_exact_repair_reports_success_and_bandwidth():
    code = PMCode(F32, 6, 3)
    ok, bandwidth, singular = verify_exact_repair(code, (2, 5))
    assert ok and not singular
    assert bandwidth == 6  # d-e+1 = 3 helpers, each ships e = 2 symbols
    ok1, bw1, sing1 = verify_exact_repair(code, (3,))
    assert ok1 and not sing1 and bw1 == 4


def test_run_sweep_is_deterministic_and_json_stable():
    code = PMCode(F32, 6, 3)
    r1 = run_sweep(code, 2, seed=11)
    r2 = run_sweep(code, 2, seed=11)
    assert r1.to_json() == r2.to_json()
    assert len(r1.entries) == 15
    assert r1.all_ok()
    assert r1.success_count == 15
    assert r1.singular_patterns == [] and r1.failed_patterns == []
    payload = json.loads(r1.to_json())
    assert payload["e"] == 2
    assert payload["descriptor"]["family"] == "pm"
    assert len(payload["entries"]) == 15
    entry = payload["entries"][0]
    assert set(entry) == {"pattern", "success", "bandwidth", "singular"}


def test_run_sweep_sample_mode_subsets_patterns():
    code = PMCode(F32, 6, 3)
    report = run_sweep(code, 2, seed=3, sample=6)
    assert len(report.entries) == 6
    patterns = [tuple(x.pattern) for x in report.entries]
    assert len(set(patterns)) == 6
    full = run_sweep(code, 2, seed=3)
    # sampled entries replay the exact per-pattern outcome of the full sweep
    by_pattern = {tuple(x.pattern): asdict(x) for x in full.entries}
    for x in report.entries:
        assert asdict(x) == by_pattern[tuple(x.pattern)]


@pytest.mark.parametrize(
    "e, sample",
    [
        # e = True ran an e = 1 sweep whose report said e=True
        (True, None),
        # sample=True sampled one pattern
        (2, True),
        # these died with a raw TypeError
        (2.0, None),
        ("2", None),
        (2, 2.5),
        (2, "3"),
    ],
)
def test_run_sweep_refuses_an_e_or_sample_that_is_not_an_int(e, sample):
    with pytest.raises(ValueError, match="need"):
        run_sweep(PMCode(F32, 6, 3), e, sample=sample)


def test_run_sweep_records_singular_patterns():
    code = IACode(Field(2), 3)  # every mixed systematic/parity pair is singular
    report = run_sweep(code, 2, seed=0)
    assert not report.all_ok()
    assert len(report.singular_patterns) == 9
    assert report.failed_patterns == report.singular_patterns
    clean = [x for x in report.entries if x.success]
    assert len(clean) == len(report.entries) - 9
    assert all(x.bandwidth == 0 for x in report.entries if x.singular)


def test_sweep_report_json_is_pinned():
    """The exact JSON of a sweep with a clean and a singular entry: keys
    sorted at every level, patterns as lists, no field added, dropped or
    retyped."""
    report = run_sweep(IACode(Field(2), 3), 2, seed=0, sample=2)
    assert report.singular_patterns == [(1, 6)]
    assert report.to_json() == (
        '{"descriptor": {"P": [[1, 1, 1], [1, 2, 3], [1, 3, 2]], "V": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
        '"family": "ia", "k": 3, "kappa": 2, "m": 2, "modulus": 7}, "e": 2, "entries": ['
        '{"bandwidth": 8, "pattern": [1, 2], "singular": false, "success": true}, '
        '{"bandwidth": 0, "pattern": [1, 6], "singular": true, "success": false}]}'
    )


def test_emit_curve_csv_shape(tmp_path):
    params = SystemParams(12, 10, 4, 6, 2)
    path = tmp_path / "curve.csv"
    count = emit_curve(params, str(path))
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["gamma_num", "gamma_den", "alpha_num", "alpha_den", "segment"]
    assert len(rows) == count + 1
    # curve rows run gamma-ascending, so the first is the MBMR corner
    assert rows[1] == ["36", "5", "18", "5", "0"]
    got = [Fraction(int(r[0]), int(r[1])) for r in rows[1:]]
    assert got == sorted(got)


def test_emit_comparison_csv_shape(tmp_path):
    params = SystemParams(20, 12, 4, 6, 2)
    path = tmp_path / "cmp.csv"
    report = emit_comparison(params, str(path))
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:4] == ["alpha_num", "alpha_den", "batched_num", "batched_den"]
    assert len(rows) == len(report.rows) + 1
    assert report.msmr_ratio == Fraction(5, 6)  # (d-e+1)/d
    # separate strategy pays e independent repairs; batched never pays more
    for row in report.rows:
        assert row.gamma_centralized <= row.gamma_separate


def test_search_assignment_pm_and_ia():
    pm_desc = search_assignment("pm", {"m": 6, "modulus": 0x43, "n": 7, "k": 3}, budget=50, seed=0)
    assert pm_desc["family"] == "pm"
    assert len(pm_desc["lambdas"]) == 7
    code = build_code(pm_desc)
    assert run_sweep(code, 2, seed=1).all_ok()

    ia_desc = search_assignment("ia", {"m": 5, "n": 8, "k": 4, "e_max": 2}, budget=20, seed=0)
    assert ia_desc["family"] == "ia"
    assert build_code(ia_desc).n == 8

    with pytest.raises(ValueError):
        search_assignment("mds", {"m": 5, "n": 6, "k": 3})
    with pytest.raises(AssignmentNotFoundError) as err:
        search_assignment("ia", {"m": 2, "n": 6, "k": 3}, budget=5, seed=0)
    assert err.value.best_failures > 0


@pytest.mark.parametrize("family", ["pm", "ia"])
@pytest.mark.parametrize("seed", [2.0, True, "2", None])
def test_search_assignment_refuses_a_seed_that_is_not_an_int(family, seed, monkeypatch):
    """seed=2.0 returned seed 2's descriptor, seed=True seed 1's, and
    seed="2" ran a string-hashed stream; the seed is refused before any
    trial, as SplitRandom refuses it."""
    monkeypatch.setattr(workbench, "PMCode", lambda *args, **kwargs: pytest.fail("a trial ran"))
    monkeypatch.setattr(workbench, "IACode", lambda *args, **kwargs: pytest.fail("a trial ran"))
    params = {"m": 6, "modulus": 0x43, "n": 7, "k": 3} if family == "pm" else {"m": 5, "k": 4, "e_max": 2}
    with pytest.raises(ValueError, match="seed"):
        search_assignment(family, params, budget=50, seed=seed)


@pytest.mark.parametrize(
    "family, params",
    [
        # the default e_max = n - k died with TypeError on a string n
        ("pm", {"m": 5, "n": "7", "k": 3}),
        # 6.0 == 2k let a float n through
        ("ia", {"m": 5, "k": 3, "n": 6.0}),
        # a PM search with no n died with KeyError, and one with no m or k too
        ("pm", {"m": 5, "k": 3}),
        ("pm", {"n": 7, "k": 3}),
        ("ia", {"m": 5}),
    ],
)
def test_search_assignment_refuses_malformed_params_before_any_trial(family, params):
    with pytest.raises(ValueError):
        search_assignment(family, params, budget=5, seed=0)


def test_search_assignment_refuses_an_ia_n_but_2k_and_takes_none():
    with pytest.raises(ValueError, match="n = 2k = 6"):
        search_assignment("ia", {"m": 5, "n": 7, "k": 3}, budget=5, seed=0)
    assert build_code(search_assignment("ia", {"m": 5, "k": 4, "e_max": 2}, budget=20, seed=0)).n == 8


def test_build_code_round_trips_every_family():
    from regenrepair.ambr import AdaptiveMBRCode

    codes = [
        PMCode(F32, 6, 3),
        IACode(F32, 4),
        MDSStripeCode(F32, 6, 2, d=3),
        MDSStripeCode(Field(7), 7, 2, d_max=4),
        AdaptiveMBRCode(F64, 7, 3, 4, 5),
    ]
    for code in codes:
        twin = build_code(json.loads(json.dumps(code.descriptor())))
        assert twin.descriptor() == code.descriptor()
        msg = code.random_message(SplitRandom(9).split("msg"))
        assert twin.encode(msg) == code.encode(msg)
    with pytest.raises(ValueError):
        build_code({"family": "nope", "m": 5, "modulus": None})


def ia_descriptor(field, kappa, P):
    """The descriptor of IACode(field, 5) with the given kappa and P."""
    identity = [[int(r == c) for c in range(5)] for r in range(5)]
    return {"family": "ia", "k": 5, "m": field.m, "modulus": field.modulus, "kappa": kappa, "P": P, "V": identity}


# What design's two searches (perfbench/workloads.py, Design.searches) and
# the README's `code search` commands return at seeds 0..5: (family,
# params, budget, one result per seed), a found descriptor or the
# (best_failures, best) of an exhausted search, with PM's best its lambdas
# and IA's best the descriptor of its code.
F256 = Field(8)
PINNED_SEARCHES = {
    "design-pm": (
        "pm",
        {"m": 5, "n": 11, "k": 6, "e_max": 3},
        2,
        [
            (11, [22, 18, 28, 6, 16, 4, 9, 26, 3, 19, 8]),
            (6, [8, 18, 27, 25, 24, 2, 31, 3, 15, 14, 23]),
            (2, [3, 2, 30, 11, 26, 5, 23, 21, 9, 8, 19]),
            (8, [15, 18, 17, 4, 11, 19, 31, 20, 30, 2, 26]),
            (3, [18, 25, 24, 1, 7, 16, 17, 11, 8, 5, 3]),
            (4, [16, 23, 11, 25, 22, 26, 30, 20, 31, 0, 14]),
        ],
    ),
    # no random P over GF(32) at k = 5 is kept, so the default code is the best
    "design-ia": ("ia", {"m": 5, "k": 5}, 10, [(7, IACode(F32, 5).descriptor())] * 6),
    "readme-pm": (
        "pm",
        {"m": 6, "modulus": 0x43, "n": 7, "k": 3},
        200,
        [
            {"family": "pm", "n": 7, "k": 3, "m": 6, "modulus": 0x43, "lambdas": lambdas}
            for lambdas in (
                [49, 48, 56, 26, 2, 16, 32],
                [17, 36, 54, 51, 48, 4, 16],
                [7, 5, 62, 23, 53, 10, 47],
                [30, 37, 34, 8, 23, 58, 38],
                [30, 19, 6, 46, 25, 63, 9],
                [32, 47, 22, 50, 44, 53, 62],
            )
        ],
    ),
    # n = d+1 over GF(2^8) and n > d+1 over GF(2^16), each vetting patterns
    # of 2 and 3 failures
    "readme-pm-e3": (
        "pm",
        {"m": 8, "n": 7, "k": 4},
        200,
        [
            {"family": "pm", "n": 7, "k": 4, "m": 8, "modulus": 285, "lambdas": lambdas}
            for lambdas in (
                [197, 215, 20, 132, 248, 207, 155],
                [68, 32, 130, 60, 253, 230, 241],
                [28, 46, 43, 184, 86, 157, 128],
                [132, 119, 98, 240, 243, 203, 77],
                [120, 155, 52, 202, 245, 79, 46],
                [130, 183, 14, 238, 127, 26, 80],
            )
        ],
    ),
    "readme-pm-e3-wide": (
        "pm",
        {"m": 16, "n": 9, "k": 4},
        20,
        [
            {"family": "pm", "n": 9, "k": 4, "m": 16, "modulus": 65581, "lambdas": lambdas}
            for lambdas in (
                [50494, 55125, 5306, 33936, 63691, 53075, 39755, 62468, 46930],
                [17611, 8271, 33432, 15455, 64937, 58915, 61898, 49756, 27519],
                [7412, 12004, 11124, 47324, 22162, 40388, 32975, 27815, 4683],
                [31190, 17094, 48490, 62135, 8588, 1725, 61503, 33994, 30714],
                [30939, 39753, 13522, 51912, 62767, 20312, 11809, 8718, 2597],
                [33481, 46993, 3801, 61030, 32643, 6796, 20558, 14838, 48731],
            )
        ],
    ),
    "readme-ia": (
        "ia",
        {"m": 8, "modulus": F256.modulus, "n": 10, "k": 5},
        200,
        [
            ia_descriptor(F256, 148, [[10, 201, 101, 114, 96], [194, 49, 117, 92, 203], [162, 20, 245, 12, 231], [240, 11, 125, 66, 231], [7, 242, 134, 171, 146]]),
            ia_descriptor(F256, 118, [[26, 54, 167, 82, 11], [7, 3, 202, 252, 237], [76, 186, 153, 82, 116], [101, 81, 103, 17, 17], [234, 82, 249, 154, 249]]),
            ia_descriptor(F256, 228, [[101, 206, 186, 221, 255], [131, 244, 96, 140, 240], [114, 129, 69, 231, 10], [223, 8, 94, 120, 239], [82, 233, 98, 109, 229]]),
            ia_descriptor(F256, 159, [[69, 73, 32, 17, 124], [219, 164, 254, 124, 23], [89, 205, 18, 106, 230], [39, 6, 76, 110, 197], [107, 224, 31, 12, 155]]),
            ia_descriptor(F256, 213, [[61, 78, 27, 185, 102], [123, 40, 24, 18, 6], [103, 141, 235, 75, 205], [254, 196, 16, 57, 134], [138, 93, 71, 200, 45]]),
            ia_descriptor(F256, 39, [[91, 229, 135, 65, 199], [119, 28, 151, 192, 200], [205, 95, 221, 76, 10], [111, 243, 251, 24, 54], [88, 132, 157, 93, 236]]),
        ],
    ),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
def test_search_results_are_pinned_and_vetted_without_the_boundary_check(case, seed, monkeypatch):
    """The search returns what it did before its vetting loop called the
    families' unchecked _repairable: its patterns are combinations of
    node ids within the family's limit, so no pattern is checked again
    (CouplingCode.condition_check is never called)."""
    family, params, budget, results = PINNED_SEARCHES[case]
    checked, check = [], CouplingCode.condition_check
    monkeypatch.setattr(CouplingCode, "condition_check", lambda self, failed: checked.append(failed) or check(self, failed))
    try:
        got = search_assignment(family, params, budget=budget, seed=seed)
    except AssignmentNotFoundError as err:
        got = (err.best_failures, err.best if family == "pm" else err.best.descriptor())
    assert got == results[seed]
    assert checked == []

