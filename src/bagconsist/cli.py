"""Command-line front end.

Exit codes: 0 = positive answer (consistent / acyclic), 1 = negative answer,
2 = usage or input error, 3 = resource exhausted: the oracle, which decides
every cyclic core, spent its budget of join rows, nodes or seconds.
A ``ValueError`` from any verb is an input error, printed as one ``error:``
line with exit 2: the verbs' own refusals (an unreadable or malformed file,
a bad flag value, a file that cannot be written) raise ``ValueError`` as the
library's do. Any other exception propagates from ``run``, and the command
exits 2 with its traceback.

Reports on stdout and the files the verbs write are
``json.dumps(data, indent=2, sort_keys=True)`` text plus a newline, with
every bag in ``data`` as its ``to_json_dict()``: a bag is written through
one text template per schema, filled once per row. A report goes to stdout
part by part. A file's text is built whole before the file is opened, so
text that does not serialise leaves no file; a verb writes its file before
it prints anything, so a failed write leaves stdout empty. Every verb runs
with the cyclic GC off (no verb makes a reference cycle, so its passes would
find nothing). ``run`` restores the caller's GC state however it ends, and
it is the one place that touches the GC: the library leaves the GC as its
caller has it.
``run`` may be called any number of times in one process; it builds the
argument parser on its first call and reuses it. ``global --witness`` is the
one way to write a witness. ``counterexample`` counts its rows with the
library's ``check_built_rows`` before it builds even the hypergraph.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from json.encoder import encode_basestring_ascii

from .bags import Bag
from .consistency import (
    BagDatabase,
    GLOBAL_NO,
    GLOBAL_UNKNOWN,
    GLOBAL_YES,
    check_built_rows,
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


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # the decoder recurses once per nesting level
        raise ValueError("malformed JSON in %s: %s" % (path, exc))


def _load(path: str, cls, what: str):
    """``cls.from_json_dict`` of the JSON in ``path``."""
    data = _load_json(path)
    try:
        return cls.from_json_dict(data)
    except ValueError as exc:
        raise ValueError("invalid %s in %s: %s" % (what, path, exc))


def _load_db(path: str) -> BagDatabase:
    return _load(path, BagDatabase, "database")


def _load_schema(path: str) -> Hypergraph:
    return _load(path, Hypergraph, "hypergraph")


def _json_text(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, with every
    ``Bag`` in ``data`` written as its ``to_json_dict()``. Written here
    because ``indent`` makes ``json`` fall back to its pure-Python encoder:
    strings and keys go through the C string encoder, ints through
    ``int.__repr__``, bags through :func:`_put_bag`, and the layout is
    built in one list."""
    parts: list = []
    _put_json(data, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _put_json(value, newline: str, put) -> None:
    """Pass ``value``'s JSON text to ``put``, part by part; ``newline`` is
    the line break and indent of the line that ``value`` starts on."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            put(sep + encode_basestring_ascii(key) + ": ")
            _put_json(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _put_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, Bag):
        _put_bag(value, newline, put)
    else:
        put(json.dumps(value))


def _put_bag(bag: Bag, newline: str, put) -> None:
    """Pass the JSON text of ``bag.to_json_dict()`` to ``put``, as
    :func:`_put_json` would. A tuple's text is built once per schema, with
    the encoded attribute names in place and ``%`` doubled; each row fills
    it with one ``%`` over its multiplicity and its encoded cells, in
    ``sorted(entries.items())`` order."""
    enc = encode_basestring_ascii
    i1 = newline + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    names = list(map(enc, bag.schema))
    row = _block(['"mult": "%s"', '"values": ' + _block(
        [n.replace("%", "%%") + ": %s" for n in names], i3, "{}")], i2, "{}")
    put(_block([
        '"schema": ' + _block(names, i1, "[]"),
        '"tuples": ' + _block([row % (mult, *map(enc, cells)) for cells, mult
                               in sorted(bag.entries.items())], i1, "[]"),
    ], newline, "{}"))


def _block(items: list, newline: str, brackets: str) -> str:
    """The indented JSON list or object (by ``brackets``) of the item texts
    ``items``, opened on the line whose break and indent is ``newline``."""
    if not items:
        return brackets
    inner = newline + "  "
    return (brackets[0] + inner + ("," + inner).join(items) + newline
            + brackets[1])


def _write_json(path: str, data) -> None:
    """Write ``data``'s :func:`_json_text` to ``path``, or nothing when it
    does not serialise."""
    try:
        text = _json_text(data)
    except ValueError:
        # an int past sys.get_int_max_str_digits() digits has no text; the
        # parser refuses such inputs, but lift and harden sum them
        raise ValueError("cannot write %s: a multiplicity has too many "
                         "digits" % path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc))


def _budget(args) -> OracleBudget:
    return OracleBudget(max_nodes=args.budget_nodes,
                        max_seconds=args.budget_seconds)


def _emit(obj) -> None:
    """Write ``obj``'s :func:`_json_text` to ``sys.stdout`` part by part, so
    the report's whole text is never held at once."""
    write = sys.stdout.write
    _put_json(obj, "\n", write)
    write("\n")


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
    report = global_consistent(db, _budget(args))
    # the witness is written first, so a failed write prints no report
    if args.witness and report.witness is not None:
        _write_json(args.witness, report.witness)
    line, code = {
        GLOBAL_YES: ("globally consistent", EXIT_OK),
        GLOBAL_NO: ("globally inconsistent", EXIT_NEGATIVE),
        GLOBAL_UNKNOWN: ("unknown (oracle budget exhausted)", EXIT_EXHAUSTED),
    }[report.global_status]
    print(line)
    _emit(report._json_layout())
    return code


def cmd_counterexample(args) -> int:
    n = args.n
    if n < 3:
        raise ValueError("--n must be at least 3")
    # n bags of k attributes, each attribute in d bags; counted before the
    # hypergraph, whose n (n - 1) cells alone would stall a huge n
    if args.shape == "cycle":
        d, k, maker = 2, 2, cycle_hypergraph
    else:
        d, k, maker = n - 1, n - 1, clique_complement_hypergraph
    check_built_rows("%s --n %d" % (args.shape, n), n, d, k)
    db = tseitin_counterexample(maker(n))
    _write_json(args.output, db._json_layout())
    print("counterexample written to %s" % args.output)
    return EXIT_OK


def cmd_lift(args) -> int:
    db = _load_db(args.db)
    target = _load_schema(args.schema)
    bad = find_bad_witness(target)
    if bad is None:
        raise ValueError("target schema is acyclic; there is no bad-witness "
                         "reduction to lift along")
    lifted = lift_collection(db, target, bad.ops)
    _write_json(args.output, lifted._json_layout())
    print("lifted database written to %s" % args.output)
    return EXIT_OK


def cmd_harden(args) -> int:
    db = _load_db(args.db)
    lift = cycle_hardness_lift if args.to == "cycle" else clique_hardness_lift
    _write_json(args.output, lift(db)._json_layout())
    print("hardened database written to %s" % args.output)
    return EXIT_OK


def cmd_encode_3dct(args) -> int:
    data = _load_json(args.tables)
    if not isinstance(data, dict) or not {"R", "C", "F"} <= set(data):
        raise ValueError("tables file must be a JSON object with keys R, C, F")
    db = encode_3dct(data["R"], data["C"], data["F"])
    _write_json(args.output, db._json_layout())
    print("3DCT database written to %s" % args.output)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    db = _load_db(args.db)
    result = enumerate_witnesses(db, _budget(args))
    if result is EXHAUSTED:
        print("oracle budget exhausted")
        return EXIT_EXHAUSTED
    _emit({"count": len(result),
           "witnesses": result})
    return EXIT_OK if result else EXIT_NEGATIVE


# -- parser ----------------------------------------------------------------

def _add_budget_flags(p) -> None:
    p.add_argument("--budget-nodes", type=int, default=OracleBudget.max_nodes,
                   help="oracle search-node ceiling")
    p.add_argument("--budget-seconds", type=float,
                   default=OracleBudget.max_seconds,
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
                   help="no effect: the oracle decides every cyclic core")
    p.add_argument("--witness", metavar="OUT", default=None,
                   help="write the witness bag to this file")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_global)

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


_parser = None  # built by the first ``run`` call


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # opened after the parse, whose exits (usage errors, --help) make cycles
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    """``run`` as a command: a crash it lets through exits 2 with its
    traceback, and running out of memory 3, so neither reads as a "no"."""
    try:
        code = run()
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        code = EXIT_EXHAUSTED
    except Exception:  # its traceback, as if it were not caught
        sys.excepthook(*sys.exc_info())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
