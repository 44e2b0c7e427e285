"""CLI tests: argument parsing, JSON/CSV output shapes, exit codes."""

import json
from fractions import Fraction

import pytest

from regenrepair.cli import load_shards, main, parse_field, parse_params
from regenrepair.framework import InvalidRepairInputError

OK, INFEASIBLE, NOT_FOUND, VERIFY = 0, 2, 3, 4


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_parse_params_accepts_fractional_file_size():
    p = parse_params("7/2,10,4,6,2")
    assert p.M == Fraction(7, 2) and (p.n, p.k, p.d, p.e) == (10, 4, 6, 2)
    with pytest.raises(ValueError):
        parse_params("10,4,6,2")


def test_parse_field_reads_hex_modulus():
    f = parse_field("8:11d")
    assert f.m == 8 and f.modulus == 0x11D
    assert parse_field("5").m == 5


def test_curve_json_and_csv(capsys, tmp_path):
    code, payload = run_json(capsys, "tradeoff", "curve", "--params", "12,10,4,6,2")
    assert code == OK
    assert payload["params"]["M"] == [12, 1]
    assert payload["points"][0] == {"gamma": [36, 5], "alpha": [18, 5], "segment": 0}

    out = tmp_path / "curve.csv"
    code, _ = run(capsys, "tradeoff", "curve", "--params", "12,10,4,6,2",
                  "--format", "csv", "--out", str(out))
    assert code == OK
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma_num,gamma_den,alpha_num,alpha_den,segment"
    assert lines[1] == "36,5,18,5,0"
    assert len(lines) == len(payload["points"]) + 1


def test_point_alpha_and_gamma_are_inverse(capsys):
    code, by_alpha = run_json(capsys, "tradeoff", "point", "--params", "12,10,4,6,2",
                              "--alpha", "4")
    assert code == OK
    assert by_alpha["gamma"] == [36, 5]
    assert by_alpha["scenario"] == [2, 2]
    code, by_gamma = run_json(capsys, "tradeoff", "point", "--params", "12,10,4,6,2",
                              "--gamma", "36/5")
    assert code == OK
    assert by_gamma["alpha"] == [18, 5]  # least storage supporting that gamma
    assert by_gamma["beta"] == [6, 5]  # gamma / d


def test_point_below_storage_floor_is_infeasible(capsys):
    code, _ = run(capsys, "tradeoff", "point", "--params", "12,10,4,6,2", "--alpha", "1")
    assert code == INFEASIBLE


@pytest.mark.parametrize(
    "argv",
    [
        ("--params", "1/0,10,5,6,2", "--alpha", "1"),
        ("--params", "12,10,4,6,2", "--alpha", "1/0"),
        ("--params", "12,10,4,6,2", "--gamma", "0/0"),
    ],
)
def test_fraction_with_zero_denominator_is_an_input_error(capsys, argv):
    """It died with a ZeroDivisionError traceback, exit 1."""
    code = main(["tradeoff", "point", *argv])
    captured = capsys.readouterr()
    assert code == INFEASIBLE and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "zero denominator" in captured.err


def test_mbcr_reports_curve_membership(capsys):
    code, on = run_json(capsys, "tradeoff", "mbcr", "--params", "30,12,5,6,2")
    assert code == OK and on["on_curve"] is True  # k = 1 mod e
    code, off = run_json(capsys, "tradeoff", "mbcr", "--params", "30,12,6,7,2")
    assert code == OK and off["on_curve"] is False
    code, _ = run(capsys, "tradeoff", "mbcr", "--params", "30,12,6,7,1")
    assert code == INFEASIBLE  # cooperative point needs e > 1


def test_compare_json_includes_msmr_ratio(capsys):
    code, payload = run_json(capsys, "tradeoff", "compare", "--params", "20,12,4,6,2")
    assert code == OK
    assert payload["msmr_ratio"] == [5, 6]
    first = payload["rows"][0]
    assert first["alpha"] == [5, 1]
    assert first["batched"] == [15, 1]
    assert first["separate"] == [20, 1]
    # e > k: the batch costs the whole file at minimum storage
    code, payload = run_json(capsys, "tradeoff", "compare", "--params", "10,6,1,3,2")
    assert code == OK
    assert payload["msmr_ratio"] == [1, 2]


def test_build_encode_repair_round_trip(capsys, tmp_path):
    desc = tmp_path / "pm.json"
    enc = tmp_path / "enc.json"
    code, _ = run(capsys, "code", "build", "--family", "pm", "--field", "8:11d",
                  "--n", "11", "--k", "6", "--out", str(desc))
    assert code == OK
    assert json.loads(desc.read_text())["family"] == "pm"

    code, _ = run(capsys, "code", "encode", "--descriptor", str(desc),
                  "--seed", "7", "--out", str(enc))
    assert code == OK
    shards = json.loads(enc.read_text())["shards"]
    assert len(shards) == 11 and all(len(v) == 5 for v in shards.values())

    code, payload = run_json(capsys, "code", "repair", "--descriptor", str(desc),
                             "--shards", str(enc), "--failed", "2,5")
    assert code == OK
    assert payload["verified"] is True
    assert payload["bandwidth"] == 18
    assert payload["contents"]["2"] == shards["2"]
    assert set(payload["per_helper"].values()) == {2}

    code, rec = run_json(capsys, "code", "reconstruct", "--descriptor", str(desc),
                         "--shards", str(enc), "--nodes", "1,2,3,4,5,6")
    assert code == OK
    assert rec["message"] == json.loads(enc.read_text())["message"]


def test_repair_with_unknown_node_ids_exits_infeasible(capsys, tmp_path):
    desc = tmp_path / "pm.json"
    enc = tmp_path / "enc.json"
    run(capsys, "code", "build", "--family", "pm", "--field", "8:11d",
        "--n", "11", "--k", "6", "--out", str(desc))
    run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "3",
        "--out", str(enc))
    for failed in ("0", "1,12"):
        code, _ = run(capsys, "code", "repair", "--descriptor", str(desc),
                      "--shards", str(enc), "--failed", failed)
        assert code == INFEASIBLE


def test_repair_with_float_symbol_exits_infeasible(capsys, tmp_path):
    desc = tmp_path / "mds.json"
    enc = tmp_path / "enc.json"
    run(capsys, "code", "build", "--family", "mds", "--field", "8:11d",
        "--n", "7", "--k", "3", "--d-max", "4", "--out", str(desc))
    run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "5",
        "--out", str(enc))
    shards = json.loads(enc.read_text())["shards"]
    shards["2"][0] = 1.5
    path = tmp_path / "float.json"
    path.write_text(json.dumps(shards))
    code, _ = run(capsys, "code", "repair", "--descriptor", str(desc),
                  "--shards", str(path), "--failed", "1")
    assert code == INFEASIBLE


def test_reconstruct_with_bad_shards_exits_infeasible(capsys, tmp_path):
    desc = tmp_path / "mds.json"
    enc = tmp_path / "enc.json"
    run(capsys, "code", "build", "--family", "mds", "--field", "8:11d",
        "--n", "7", "--k", "3", "--d-max", "4", "--out", str(desc))
    run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "5",
        "--out", str(enc))
    shards = json.loads(enc.read_text())["shards"]
    code, payload = run_json(capsys, "code", "reconstruct", "--descriptor", str(desc),
                             "--shards", str(enc), "--nodes", "2,3,4")
    assert code == OK and payload["message"] == json.loads(enc.read_text())["message"]
    for bad in ({"0": shards["1"], "2": shards["2"], "3": shards["3"]},
                {"1": [300] + shards["1"][1:], "2": shards["2"], "3": shards["3"]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run(capsys, "code", "reconstruct", "--descriptor", str(desc),
                      "--shards", str(path))
        assert code == INFEASIBLE


def test_shards_file_that_is_not_a_node_map_exits_infeasible(capsys, tmp_path):
    desc = tmp_path / "mds.json"
    enc = tmp_path / "enc.json"
    run(capsys, "code", "build", "--family", "mds", "--field", "8:11d",
        "--n", "7", "--k", "3", "--d-max", "4", "--out", str(desc))
    run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "5",
        "--out", str(enc))
    shards = json.loads(enc.read_text())["shards"]
    path = tmp_path / "list.json"
    path.write_text(json.dumps([shards["1"], shards["2"], shards["3"]]))
    with pytest.raises(InvalidRepairInputError):
        load_shards(path)
    for verb in (("reconstruct",), ("repair", "--failed", "4")):
        code, _ = run(capsys, "code", *verb[:1], "--descriptor", str(desc),
                      "--shards", str(path), *verb[1:])
        assert code == INFEASIBLE


def test_shards_node_entry_that_is_a_number_exits_infeasible(capsys, tmp_path):
    desc = tmp_path / "mds.json"
    enc = tmp_path / "enc.json"
    run(capsys, "code", "build", "--family", "mds", "--field", "8:11d",
        "--n", "7", "--k", "3", "--d-max", "4", "--out", str(desc))
    run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "5",
        "--out", str(enc))
    shards = json.loads(enc.read_text())["shards"]
    shards["1"] = 5
    path = tmp_path / "number.json"
    path.write_text(json.dumps({"shards": shards}))
    with pytest.raises(InvalidRepairInputError):
        load_shards(path)
    for verb in (("reconstruct",), ("repair", "--failed", "4")):
        code, _ = run(capsys, "code", *verb[:1], "--descriptor", str(desc),
                      "--shards", str(path), *verb[1:])
        assert code == INFEASIBLE


def test_encode_with_explicit_message(capsys, tmp_path):
    desc = tmp_path / "mds.json"
    run(capsys, "code", "build", "--family", "mds", "--field", "5", "--n", "6",
        "--k", "2", "--d", "3", "--out", str(desc))
    msg = ",".join(str((3 * t) % 32) for t in range(6))
    code, payload = run_json(capsys, "code", "encode", "--descriptor", str(desc),
                             "--message", msg)
    assert code == OK
    assert payload["message"] == [(3 * t) % 32 for t in range(6)]
    assert payload["shards"]["1"] + payload["shards"]["2"] == payload["message"]

    code, _ = run(capsys, "code", "encode", "--descriptor", str(desc), "--message", "1,2")
    assert code == INFEASIBLE  # wrong symbol count
    code, _ = run(capsys, "code", "encode", "--descriptor", str(desc),
                  "--message", "1,2,3,4,5,99")
    assert code == INFEASIBLE  # symbol outside the field


def test_repair_exit_codes(capsys, tmp_path):
    desc = tmp_path / "ia.json"
    enc = tmp_path / "enc.json"
    run(capsys, "code", "build", "--family", "ia", "--field", "2", "--k", "3",
        "--out", str(desc))
    run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "1",
        "--out", str(enc))
    # mixed systematic/parity pair is singular for this field and k; the
    # error names the transfer whose column of the coupling matrix got no pivot
    code = main(["code", "repair", "--descriptor", str(desc), "--shards", str(enc), "--failed", "1,4"])
    assert code == VERIFY
    assert capsys.readouterr().err == (
        "error: repair system is singular for failed nodes (1, 4); dependent transfers ((4, 1),)\n"
    )
    code, payload = run_json(capsys, "code", "repair", "--descriptor", str(desc),
                             "--shards", str(enc), "--failed", "1,2")
    assert code == OK and payload["verified"] is True
    # helpers must be the full survivor set for this family
    code, _ = run(capsys, "code", "repair", "--descriptor", str(desc),
                  "--shards", str(enc), "--failed", "1,2", "--helpers", "3,4")
    assert code == INFEASIBLE


def test_sweep_exit_reflects_verification(capsys, tmp_path):
    clean = tmp_path / "pm.json"
    dirty = tmp_path / "ia.json"
    run(capsys, "code", "build", "--family", "pm", "--field", "5", "--n", "6",
        "--k", "3", "--out", str(clean))
    run(capsys, "code", "build", "--family", "ia", "--field", "2", "--k", "3",
        "--out", str(dirty))

    code, payload = run_json(capsys, "code", "sweep", "--descriptor", str(clean), "--e", "2")
    assert code == OK
    assert len(payload["entries"]) == 15
    assert all(x["success"] for x in payload["entries"])

    code, payload = run_json(capsys, "code", "sweep", "--descriptor", str(dirty), "--e", "2")
    assert code == VERIFY
    assert sum(1 for x in payload["entries"] if x["singular"]) == 9

    code, payload = run_json(capsys, "code", "sweep", "--descriptor", str(clean),
                             "--e", "2", "--sample", "4", "--seed", "9")
    assert code == OK and len(payload["entries"]) == 4


def test_sweep_with_degree_flag(capsys, tmp_path):
    desc = tmp_path / "ambr.json"
    code, _ = run(capsys, "code", "build", "--family", "ambr", "--field", "6:43",
                  "--n", "7", "--k", "3", "--d-min", "4", "--d-max", "5",
                  "--out", str(desc))
    assert code == OK
    code, payload = run_json(capsys, "code", "sweep", "--descriptor", str(desc),
                             "--e", "2", "--d", "5")
    assert code == OK
    assert {x["bandwidth"] for x in payload["entries"]} == {35}


@pytest.mark.parametrize(
    "family, build",
    [("pm", ("--field", "8:11d", "--n", "11", "--k", "6")), ("ia", ("--field", "4", "--k", "3"))],
)
def test_degree_flag_is_refused_for_single_degree_families(capsys, tmp_path, family, build):
    """PM and IA repair at one degree: --d on repair or sweep is an input
    error (exit 2, one error line), never a traceback."""
    desc = tmp_path / (family + ".json")
    enc = tmp_path / "enc.json"
    assert run(capsys, "code", "build", "--family", family, *build, "--out", str(desc))[0] == OK
    assert run(capsys, "code", "encode", "--descriptor", str(desc), "--seed", "3", "--out", str(enc))[0] == OK
    verbs = [
        ("repair", "--shards", str(enc), "--failed", "1,2"),
        ("sweep", "--e", "1"),
    ]
    for verb, *rest in verbs:
        code = main(["code", verb, "--descriptor", str(desc), *rest, "--d", "10"])
        captured = capsys.readouterr()
        assert code == INFEASIBLE and captured.out == ""
        assert captured.err == "error: --d is for mds and ambr codes; %s repairs at one degree\n" % family
        assert run(capsys, "code", verb, "--descriptor", str(desc), *rest)[0] == OK


def test_search_exit_codes(capsys):
    code, payload = run_json(capsys, "code", "search", "--family", "pm",
                             "--field", "6:43", "--n", "7", "--k", "3",
                             "--budget", "50")
    assert code == OK and payload["family"] == "pm"
    code, _ = run(capsys, "code", "search", "--family", "ia", "--field", "2",
                  "--n", "6", "--k", "3", "--budget", "5")
    assert code == NOT_FOUND


def test_search_refuses_sizes_the_family_cannot_have(capsys):
    """An IA search with n != 2k or over GF(2), which has no kappa, and a PM
    search with more nodes than the field has elements, k < 2 or n < 2k-1
    are input errors (exit 2) before any trial. The GF(2) IA search and the
    PM ones with k < 2 or n < 2k-1 ran their whole budget and exited 3; n < k
    was blamed on the e_max the user never gave."""
    cases = [("ia", "5", "7", "3"), ("pm", "4", "99", "3"), ("ia", "1", "6", "3"), ("pm", "5", "11", "1"),
             ("pm", "5", "5", "4"), ("pm", "5", "2", "3")]
    for family, field, n, k in cases:
        code = main(["code", "search", "--family", family, "--field", field, "--n", n, "--k", k])
        captured = capsys.readouterr()
        assert code == INFEASIBLE and captured.out == "" and captured.err.startswith("error: "), (family, n, k)
        assert "e_max" not in captured.err, (family, n, k)


def test_search_refuses_an_empty_budget_and_e_max_below_one(capsys):
    """A budget of no trials exhausted with no candidate (exit 3), and
    e_max < 1 reported the first candidate clean (exit 0): both are input
    errors (exit 2) before any trial, in both families."""
    sizes = {"pm": ("--n", "11", "--k", "6"), "ia": ("--n", "6", "--k", "3")}
    for family, size in sizes.items():
        for extra in (("--budget", "0"), ("--budget", "-1"), ("--e-max", "0"), ("--e-max", "-1")):
            code = main(["code", "search", "--family", family, "--field", "5", *size, *extra])
            captured = capsys.readouterr()
            assert code == INFEASIBLE and captured.out == "" and captured.err.startswith("error: "), (family, extra)


def test_sweep_refuses_an_e_outside_the_nodes_and_empty_samples(capsys, tmp_path):
    """e = 0 or e > n, and a sample of no patterns, would verify nothing
    and report success: they are input errors (exit 2)."""
    desc = tmp_path / "mds.json"
    assert run(capsys, "code", "build", "--family", "mds", "--field", "8:11d", "--n", "7", "--k", "3",
               "--d-max", "4", "--out", str(desc))[0] == OK
    for extra in (("--e", "9"), ("--e", "8"), ("--e", "0"), ("--e", "2", "--sample", "0"),
                  ("--e", "2", "--sample", "-1")):
        code = main(["code", "sweep", "--descriptor", str(desc), *extra])
        captured = capsys.readouterr()
        assert code == INFEASIBLE and captured.out == "" and captured.err.startswith("error: "), extra
    code, payload = run_json(capsys, "code", "sweep", "--descriptor", str(desc), "--e", "2", "--sample", "1")
    assert code == OK and len(payload["entries"]) == 1


def test_bad_inputs_exit_infeasible(capsys, tmp_path):
    code, _ = run(capsys, "code", "build", "--family", "mds", "--field", "5",
                  "--n", "6", "--k", "2")  # neither --d nor --d-max
    assert code == INFEASIBLE
    code, _ = run(capsys, "code", "encode", "--descriptor", str(tmp_path / "missing.json"))
    assert code == INFEASIBLE
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "nope", "m": 5, "modulus": None}))
    code, _ = run(capsys, "code", "encode", "--descriptor", str(bad))
    assert code == INFEASIBLE
