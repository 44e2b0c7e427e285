"""Command line front end: tradeoff queries and the code workbench.

Exit codes: 0 success, 2 infeasible or invalid input, 3 search found no
assignment, 4 a repair or sweep failed verification.
"""

import argparse
import json
import random
import sys
from dataclasses import asdict
from fractions import Fraction

from .ambr import AdaptiveMBRCode
from .framework import InvalidRepairInputError, SingularCouplingError
from .gf import Field
from .ia import IACode
from .mds import MDSStripeCode
from .pm import PMCode
from .tradeoff import (
    SystemParams,
    alpha_star,
    compare_strategies,
    gamma_min_for_alpha,
    mbcr_check,
    optimal_scenario,
    tradeoff_curve,
)
from .workbench import (
    AssignmentNotFoundError,
    build_code,
    comparison_rows,
    emit_comparison,
    emit_curve,
    json_default,
    open_out,
    run_sweep,
    search_assignment,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_FOUND = 3
EXIT_VERIFY = 4


# --- argument parsing helpers ---


def parse_params(text):
    """M,n,k,d,e with M allowed as an integer or num/den fraction."""
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("--params wants five comma separated values: M,n,k,d,e")
    return SystemParams(parse_fraction(parts[0]), *(int(p) for p in parts[1:]))


def parse_fraction(text):
    """An integer or num/den; a zero denominator is malformed input too."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("%r has a zero denominator" % text) from None


def parse_field(text):
    """m or m:modulus-hex, e.g. 8 or 8:11d."""
    if ":" in text:
        m, mod = text.split(":", 1)
        return Field(int(m), int(mod, 16))
    return Field(int(text))


def parse_ints(text):
    return tuple(int(p) for p in text.split(",") if p.strip() != "")


def dump_json(path, payload):
    with open_out(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True, default=json_default) + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_shards(path):
    """Accept either {"shards": {...}} (encode output) or a bare node map,
    node id -> list of symbols; refuse any other JSON, and any node key but
    str(node), as encode writes it, so no "01" or "+1" aliases node 1."""
    data = load_json(path)
    if isinstance(data, dict) and "shards" in data:
        data = data["shards"]
    if not isinstance(data, dict) or not all(isinstance(vals, list) for vals in data.values()):
        raise InvalidRepairInputError("shards must map node ids to lists of symbols")
    try:
        nodes = [int(key) for key in data]
    except ValueError:
        nodes = []
    if list(map(str, nodes)) != list(data):
        raise InvalidRepairInputError('node ids must be integers as encode writes them, such as "1", not "01" or "+1"')
    return dict(zip(nodes, data.values()))


# --- tradeoff subcommands ---


def cmd_curve(args):
    params = parse_params(args.params)
    if args.format == "csv":
        emit_curve(params, args.out)
    else:
        dump_json(args.out, {"params": asdict(params), "points": [asdict(p) for p in tradeoff_curve(params)]})
    return EXIT_OK


def cmd_point(args):
    params = parse_params(args.params)
    if args.gamma is not None:
        gamma = parse_fraction(args.gamma)
        alpha = alpha_star(params, gamma)
    else:
        alpha = parse_fraction(args.alpha)
        gamma = gamma_min_for_alpha(params, alpha)
    beta = gamma / params.d
    scenario = optimal_scenario(params, alpha, beta).u
    dump_json(args.out, dict(params=asdict(params), alpha=alpha, beta=beta, gamma=gamma, scenario=scenario))
    return EXIT_OK


def cmd_mbcr(args):
    params = parse_params(args.params)
    point, on_curve = mbcr_check(params)
    dump_json(args.out, {"params": asdict(params), **asdict(point), "on_curve": on_curve})
    return EXIT_OK


def cmd_compare(args):
    params = parse_params(args.params)
    if args.format == "csv":
        emit_comparison(params, args.out)
    else:
        report = compare_strategies(params)
        dump_json(args.out, {"params": asdict(params), "rows": comparison_rows(report), "msmr_ratio": report.msmr_ratio})
    return EXIT_OK


# --- code subcommands ---


def cmd_build(args):
    field = parse_field(args.field)
    if args.family == "pm":
        if args.n is None or args.k is None:
            raise ValueError("pm build wants --n and --k")
        code = PMCode(field, args.n, args.k)
    elif args.family == "ia":
        if args.k is None:
            raise ValueError("ia build wants --k (n is fixed at 2k)")
        code = IACode(field, args.k)
    elif args.family == "mds":
        if args.n is None or args.k is None:
            raise ValueError("mds build wants --n and --k")
        code = MDSStripeCode(field, args.n, args.k, d=args.d, d_max=args.d_max)
    else:
        if args.n is None or args.k is None or args.d_min is None or args.d_max is None:
            raise ValueError("ambr build wants --n, --k, --d-min and --d-max")
        code = AdaptiveMBRCode(field, args.n, args.k, args.d_min, args.d_max)
    dump_json(args.out, code.descriptor())
    return EXIT_OK


def cmd_encode(args):
    code = build_code(load_json(args.descriptor))
    if args.message is not None:
        msg = list(parse_ints(args.message))  # encode checks length and range
    else:
        msg = code.random_message(random.Random(args.seed))
    shards = code.encode(msg)
    payload = {
        "message": msg,
        "shards": {str(node): list(vals) for node, vals in shards.items()},
    }
    dump_json(args.out, payload)
    return EXIT_OK


def cmd_reconstruct(args):
    code = build_code(load_json(args.descriptor))
    shards = load_shards(args.shards)
    if args.nodes is not None:
        keep = set(parse_ints(args.nodes))
        missing = keep - set(shards)
        if missing:
            raise ValueError("nodes not present in shard file: %s" % sorted(missing))
        shards = {node: vals for node, vals in shards.items() if node in keep}
    msg = code.reconstruct(shards)
    dump_json(args.out, {"message": msg})
    return EXIT_OK


def degree_option(code, d):
    """The keyword for an explicit repair degree: {} without --d, and a
    refusal for PM and IA, which repair at one degree."""
    if d is None:
        return {}
    if not isinstance(code, (MDSStripeCode, AdaptiveMBRCode)):
        raise ValueError("--d is for mds and ambr codes; %s repairs at one degree" % code.descriptor()["family"])
    return {"d": d}


def cmd_repair(args):
    code = build_code(load_json(args.descriptor))
    kwargs = degree_option(code, args.d)
    shards = load_shards(args.shards)
    failed = tuple(sorted(parse_ints(args.failed)))
    golden = {node: shards[node] for node in failed if node in shards}
    survivors = {node: vals for node, vals in shards.items() if node not in failed}
    if args.helpers is not None:
        kwargs["helpers"] = tuple(parse_ints(args.helpers))
    contents, transcript = code.repair_multi(survivors, failed, **kwargs)
    verified = None
    if len(golden) == len(failed):
        verified = all(contents[node] == golden[node] for node in failed)
    payload = {
        "failed": list(failed),
        "contents": {str(node): list(vals) for node, vals in contents.items()},
        "bandwidth": transcript.total,
        "per_helper": {str(node): v for node, v in transcript.per_helper.items()},
        "verified": verified,
    }
    dump_json(args.out, payload)
    return EXIT_VERIFY if verified is False else EXIT_OK


def cmd_sweep(args):
    code = build_code(load_json(args.descriptor))
    report = run_sweep(code, args.e, seed=args.seed, sample=args.sample, **degree_option(code, args.d))
    with open_out(args.out) as out:
        out.write(report.to_json() + "\n")
    return EXIT_OK if report.all_ok() else EXIT_VERIFY


def cmd_search(args):
    field = parse_field(args.field)
    params = {"m": field.m, "modulus": field.modulus, "n": args.n, "k": args.k}
    if args.e_max is not None:
        params["e_max"] = args.e_max
    descriptor = search_assignment(args.family, params, budget=args.budget, seed=args.seed)
    dump_json(args.out, descriptor)
    return EXIT_OK


# --- parser wiring ---


def add_out(p):
    p.add_argument("--out", default="-", help="output path, - for stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="regenrepair",
        description="Exact multi-node repair tradeoffs and executable repair codes",
    )
    top = parser.add_subparsers(dest="command", required=True)

    tr = top.add_parser("tradeoff", help="rational tradeoff computations")
    trsub = tr.add_subparsers(dest="subcommand", required=True)

    p = trsub.add_parser("curve", help="piecewise-linear storage/bandwidth curve")
    p.add_argument("--params", required=True, help="M,n,k,d,e (M may be num/den)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    add_out(p)
    p.set_defaults(func=cmd_curve)

    p = trsub.add_parser("point", help="evaluate one point of the curve")
    p.add_argument("--params", required=True, help="M,n,k,d,e (M may be num/den)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", help="per-node storage, integer or num/den")
    g.add_argument("--gamma", help="total repair bandwidth, integer or num/den")
    add_out(p)
    p.set_defaults(func=cmd_point)

    p = trsub.add_parser("mbcr", help="cooperative minimum-bandwidth point")
    p.add_argument("--params", required=True, help="M,n,k,d,e (M may be num/den)")
    add_out(p)
    p.set_defaults(func=cmd_mbcr)

    p = trsub.add_parser("compare", help="batched vs separate repair bandwidth")
    p.add_argument("--params", required=True, help="M,n,k,d,e (M may be num/den)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    add_out(p)
    p.set_defaults(func=cmd_compare)

    code = top.add_parser("code", help="build and exercise concrete repair codes")
    codesub = code.add_subparsers(dest="subcommand", required=True)

    p = codesub.add_parser("build", help="construct a code, print its descriptor")
    p.add_argument("--family", choices=("pm", "ia", "mds", "ambr"), required=True)
    p.add_argument("--field", required=True, help="m or m:modulus-hex, e.g. 8:11d")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int, help="mds: fixed repair degree")
    p.add_argument("--d-min", dest="d_min", type=int, help="ambr: smallest degree")
    p.add_argument("--d-max", dest="d_max", type=int, help="mds/ambr: largest degree")
    add_out(p)
    p.set_defaults(func=cmd_build)

    p = codesub.add_parser("encode", help="encode a message into node shards")
    p.add_argument("--descriptor", required=True, help="descriptor JSON path")
    p.add_argument("--message", help="comma separated symbols; random when omitted")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_encode)

    p = codesub.add_parser("reconstruct", help="recover the message from shards")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--shards", required=True, help="JSON from encode, or a node map")
    p.add_argument("--nodes", help="restrict to these nodes, comma separated")
    add_out(p)
    p.set_defaults(func=cmd_reconstruct)

    p = codesub.add_parser("repair", help="regenerate failed nodes from survivors")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--shards", required=True)
    p.add_argument("--failed", required=True, help="failed node ids, comma separated")
    p.add_argument("--helpers", help="helper node ids, comma separated")
    p.add_argument("--d", type=int, help="repair degree for degree-flexible codes")
    add_out(p)
    p.set_defaults(func=cmd_repair)

    p = codesub.add_parser("sweep", help="verify repair over all failure patterns")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--e", type=int, required=True, help="number of simultaneous failures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, help="only this many random patterns")
    p.add_argument("--d", type=int, help="repair degree for degree-flexible codes")
    add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = codesub.add_parser("search", help="search coefficients with clean sweeps")
    p.add_argument("--family", choices=("pm", "ia"), required=True, help="pm vets each pattern's default helpers only")
    p.add_argument("--field", required=True, help="m or m:modulus-hex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--e-max", dest="e_max", type=int)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularCouplingError as exc:
        print(
            "error: repair system is singular for failed nodes %s; dependent transfers %s"
            % (exc.failed, exc.dependent),
            file=sys.stderr,
        )
        return EXIT_VERIFY
    except AssignmentNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NOT_FOUND
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
