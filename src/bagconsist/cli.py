"""Command-line front end.

Exit codes: 0 = positive answer (consistent / acyclic), 1 = negative answer,
2 = usage or I/O error, 3 = resource exhausted (oracle budget, or a cyclic
instance too large for the auto mode).
"""
from __future__ import annotations

import argparse
import json
import sys

from .bags import Bag
from .consistency import (
    BagDatabase,
    CyclicHypergraphError,
    DatabaseError,
    GLOBAL_NO,
    GLOBAL_UNKNOWN,
    GLOBAL_YES,
    acyclic_global_witness,
    clique_hardness_lift,
    cycle_hardness_lift,
    encode_3dct,
    global_consistent,
    inconsistent_pairs,
    lift_collection,
    tseitin_counterexample,
)
from .hypergraph import (
    Hypergraph,
    clique_complement_hypergraph,
    cycle_hypergraph,
    find_bad_witness,
)
from .oracle import EXHAUSTED, OracleBudget, enumerate_witnesses

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


class CliError(Exception):
    """Usage or I/O problem; maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        raise CliError("malformed JSON in %s: %s" % (path, exc))


def _load_db(path: str) -> BagDatabase:
    try:
        return BagDatabase.from_json_dict(_load_json(path))
    except ValueError as exc:
        raise CliError("invalid database in %s: %s" % (path, exc))


def _load_schema(path: str) -> Hypergraph:
    try:
        return Hypergraph.from_json_dict(_load_json(path))
    except ValueError as exc:
        raise CliError("invalid hypergraph in %s: %s" % (path, exc))


def _write_json(path: str, data) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc))


def _budget(args) -> OracleBudget:
    kwargs = {}
    if getattr(args, "budget_nodes", None) is not None:
        kwargs["max_nodes"] = args.budget_nodes
    if getattr(args, "budget_seconds", None) is not None:
        kwargs["max_seconds"] = args.budget_seconds
    try:
        return OracleBudget(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- verbs -----------------------------------------------------------------

def cmd_classify(args) -> int:
    h = _load_schema(args.schema)
    tree = h.join_tree()
    if tree is not None:
        print("acyclic")
        _emit({
            "join_tree": tree.to_json_dict(),
            "running_intersection_order": [
                list(step) for step in tree.running_intersection_order()],
        })
        return EXIT_OK
    print("cyclic")
    bad = find_bad_witness(h)
    _emit({"bad_witness": bad.to_json_dict()})
    return EXIT_NEGATIVE


def cmd_pairwise(args) -> int:
    db = _load_db(args.db)
    pairs = inconsistent_pairs(db)
    _emit({"consistent": not pairs,
           "inconsistent_pairs": [list(p) for p in pairs]})
    return EXIT_OK if not pairs else EXIT_NEGATIVE


def cmd_global(args) -> int:
    db = _load_db(args.db)
    mode = "oracle" if args.oracle else "auto"
    report = global_consistent(db, mode=mode, budget=_budget(args))
    if report.global_status == GLOBAL_YES:
        print("globally consistent")
    elif report.global_status == GLOBAL_NO:
        print("globally inconsistent")
    else:
        print("unknown (cyclic schema beyond oracle scope)")
    _emit(report.to_json_dict())
    if args.witness and report.witness is not None:
        _write_json(args.witness, report.witness.to_json_dict())
    if report.global_status == GLOBAL_YES:
        return EXIT_OK
    if report.global_status == GLOBAL_NO:
        return EXIT_NEGATIVE
    return EXIT_EXHAUSTED


def cmd_witness(args) -> int:
    db = _load_db(args.db)
    try:
        witness = acyclic_global_witness(db)
    except CyclicHypergraphError as exc:
        raise CliError(str(exc))
    if witness is None:
        print("no witness: some pair is inconsistent")
        return EXIT_NEGATIVE
    _write_json(args.output, witness.to_json_dict())
    print("witness written to %s" % args.output)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if args.n < 3:
        raise CliError("--n must be at least 3")
    maker = cycle_hypergraph if args.shape == "cycle" else clique_complement_hypergraph
    db = tseitin_counterexample(maker(args.n))
    _write_json(args.output, db.to_json_dict())
    print("counterexample written to %s" % args.output)
    return EXIT_OK


def cmd_lift(args) -> int:
    db = _load_db(args.db)
    target = _load_schema(args.schema)
    bad = find_bad_witness(target)
    if bad is None:
        raise CliError("target schema is acyclic; there is no bad-witness "
                       "reduction to lift along")
    try:
        lifted = lift_collection(db, target, bad.ops)
    except (DatabaseError, ValueError) as exc:
        raise CliError(str(exc))
    _write_json(args.output, lifted.to_json_dict())
    print("lifted database written to %s" % args.output)
    return EXIT_OK


def cmd_harden(args) -> int:
    db = _load_db(args.db)
    lift = cycle_hardness_lift if args.to == "cycle" else clique_hardness_lift
    try:
        out = lift(db)
    except DatabaseError as exc:
        raise CliError(str(exc))
    _write_json(args.output, out.to_json_dict())
    print("hardened database written to %s" % args.output)
    return EXIT_OK


def cmd_encode_3dct(args) -> int:
    data = _load_json(args.tables)
    if not isinstance(data, dict) or not {"R", "C", "F"} <= set(data):
        raise CliError("tables file must be a JSON object with keys R, C, F")
    try:
        db = encode_3dct(data["R"], data["C"], data["F"])
    except ValueError as exc:
        raise CliError(str(exc))
    _write_json(args.output, db.to_json_dict())
    print("3DCT database written to %s" % args.output)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    db = _load_db(args.db)
    result = enumerate_witnesses(db, _budget(args))
    if result is EXHAUSTED:
        print("oracle budget exhausted")
        return EXIT_EXHAUSTED
    _emit({"count": len(result),
           "witnesses": [w.to_json_dict() for w in result]})
    return EXIT_OK if result else EXIT_NEGATIVE


# -- parser ----------------------------------------------------------------

def _add_budget_flags(p) -> None:
    p.add_argument("--budget-nodes", type=int, default=None,
                   help="oracle search-node ceiling")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="oracle wall-clock ceiling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagconsist",
        description="Consistency of bag databases: classification, "
                    "witnesses, counterexamples, hardness instances.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify a schema hypergraph")
    p.add_argument("--schema", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pairwise", help="pairwise consistency of a database")
    p.add_argument("--db", required=True)
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("global", help="global consistency of a database")
    p.add_argument("--db", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="force the brute-force oracle on cyclic schemas")
    p.add_argument("--witness", metavar="OUT", default=None,
                   help="write the witness bag to this file")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_global)

    p = sub.add_parser("witness", help="global witness over an acyclic schema")
    p.add_argument("--db", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("counterexample",
                       help="pairwise-consistent, globally inconsistent instance")
    p.add_argument("--shape", choices=["cycle", "clique"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("lift",
                       help="lift a database along the target schema's "
                            "bad-witness safe deletions")
    p.add_argument("--db", required=True)
    p.add_argument("--schema", required=True, metavar="TARGET")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("harden", help="apply a hardness-reduction lift")
    p.add_argument("--db", required=True)
    p.add_argument("--to", choices=["cycle", "clique"], required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_harden)

    p = sub.add_parser("encode-3dct",
                       help="encode contingency margin tables over a triangle")
    p.add_argument("--tables", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_encode_3dct)

    p = sub.add_parser("enumerate", help="enumerate all witnesses (oracle)")
    p.add_argument("--db", required=True)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
