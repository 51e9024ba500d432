import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagconsist import Bag, BagDatabase, Hypergraph, cli, consistency
from bagconsist.cli import run
from bagconsist.hypergraph import (
    clique_complement_hypergraph,
    cycle_hypergraph,
    find_bad_witness,
)
from bagconsist.consistency import (
    cycle_hardness_lift,
    encode_3dct,
    global_consistent,
    lift_collection,
    tseitin_counterexample,
)

from conftest import (
    cyclic_variants,
    pair_database,
    path_hypergraph,
    random_acyclic_database,
    random_acyclic_schema,
    witness_family,
)


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def triangle_db_file(tmp_path, triangle_relations):
    return _write(tmp_path / "tri.json", triangle_relations.to_json_dict())


def test_classify_acyclic(tmp_path, capsys):
    f = _write(tmp_path / "p5.json", path_hypergraph(5).to_json_dict())
    assert run(["classify", "--schema", f]) == 0
    out = capsys.readouterr().out
    assert out.startswith("acyclic")
    payload = json.loads(out.split("\n", 1)[1])
    assert "join_tree" in payload and "running_intersection_order" in payload


def test_classify_empty_schema(tmp_path, capsys):
    """The hypergraph with no edges is acyclic: exit 0, with an empty join
    tree and an empty running-intersection order."""
    f = _write(tmp_path / "empty.json", {"vertices": [], "edges": []})
    assert run(["classify", "--schema", f]) == 0
    assert capsys.readouterr() == ("acyclic\n" + json.dumps(
        {"join_tree": {"links": [], "nodes": []},
         "running_intersection_order": []}, indent=2, sort_keys=True)
        + "\n", "")


def test_classify_cyclic(tmp_path, capsys):
    f = _write(tmp_path / "c4.json", cycle_hypergraph(4).to_json_dict())
    assert run(["classify", "--schema", f]) == 1
    out = capsys.readouterr().out
    assert out.startswith("cyclic")
    payload = json.loads(out.split("\n", 1)[1])
    assert payload["bad_witness"]["shape"] == "cycle"


def test_classify_cyclic_runs_one_join_tree_search(tmp_path, capsys,
                                                 monkeypatch):
    # find_bad_witness decides acyclicity from its own certificates, so a
    # cyclic schema is classified by the join-tree search once
    rng = random.Random(0x3C)
    chord, _ = cyclic_variants(rng, random_acyclic_schema(rng, 90))
    f = _write(tmp_path / "wc.json", Hypergraph(
        {v for e in chord for v in e}, chord).to_json_dict())
    calls = []
    join_tree = Hypergraph.join_tree

    def counting(self):
        calls.append(self)
        return join_tree(self)

    monkeypatch.setattr(Hypergraph, "join_tree", counting)
    assert run(["classify", "--schema", f]) == 1
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])[
        "bad_witness"]["shape"] == "cycle"


def test_pairwise(triangle_db_file, tmp_path, capsys):
    assert run(["pairwise", "--db", triangle_db_file]) == 0
    assert json.loads(capsys.readouterr().out)["consistent"] is True
    h = path_hypergraph(3)
    bad = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 1}),
                          Bag(("A2", "A3"), {("1", "1"): 1})))
    f = _write(tmp_path / "bad.json", bad.to_json_dict())
    assert run(["pairwise", "--db", f]) == 1
    assert json.loads(capsys.readouterr().out)["inconsistent_pairs"] == [[0, 1]]


def test_global_triangle_oracle(triangle_db_file, capsys):
    assert run(["global", "--db", triangle_db_file, "--oracle"]) == 1
    out = capsys.readouterr().out
    assert "globally inconsistent" in out


def test_global_acyclic_writes_witness(tmp_path, capsys):
    h = path_hypergraph(3)
    db = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 2}),
                         Bag(("A2", "A3"), {("0", "1"): 2})))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    out_file = tmp_path / "w.json"
    assert run(["global", "--db", f, "--witness", str(out_file)]) == 0
    witness = Bag.from_json_dict(json.loads(out_file.read_text()))
    assert witness.marginal(("A1", "A2")) == db.bags[0]
    # on random acyclic databases the file is the library's witness, and a
    # copy with one multiplicity bumped exits 1 and writes no file
    rng = random.Random(0x3B)
    checked = 0
    while checked < 20:
        db = random_acyclic_database(rng)
        if len(db.bags) < 2 or not db.bags[0]:
            continue
        checked += 1
        f = _write(tmp_path / "db.json", db.to_json_dict())
        assert run(["global", "--db", f, "--witness", str(out_file)]) == 0
        assert out_file.read_text() == _dumps(global_consistent(db).witness)
        out_file.unlink()
        first = db.bags[0]
        row = min(first.entries)
        bumped = Bag(first.schema,
                     {**first.entries, row: first.entries[row] + 1})
        f = _write(tmp_path / "bumped.json", BagDatabase(
            db.hypergraph, (bumped,) + db.bags[1:]).to_json_dict())
        assert run(["global", "--db", f, "--witness", str(out_file)]) == 1
        assert not out_file.exists()
    capsys.readouterr()


def test_global_unwritable_witness_prints_nothing(tmp_path, capsys):
    """A witness that cannot be written is an I/O error: exit 2 with an
    error message and no report on stdout."""
    h = path_hypergraph(3)
    db = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 2}),
                         Bag(("A2", "A3"), {("0", "1"): 2})))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    out_file = tmp_path / "missing" / "w.json"
    assert run(["global", "--db", f, "--witness", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_global_budget_exhaustion(tmp_path, capsys):
    # cyclic instance with a non-trivial search tree and a tiny node budget
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    db = BagDatabase(h, (
        Bag(("A", "B"), {(a, b): 1 for a in "012" for b in "012"}),
        Bag(("B", "C"), {(a, b): 1 for a in "012" for b in "012"}),
        Bag(("A", "C"), {(a, b): 1 for a in "012" for b in "012"}),
    ))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    code = run(["global", "--db", f, "--oracle", "--budget-nodes", "1"])
    assert code == 3
    out = capsys.readouterr().out
    # the first line says the oracle ran out, as the JSON does
    assert out.startswith("unknown (oracle budget exhausted)\n")
    assert json.loads(out.split("\n", 1)[1])["oracle_exhausted"] is True


def test_global_spends_a_nanosecond_budget_after_the_join(tmp_path,
                                                         capsys):
    """``--budget-seconds 1e-9`` is spent at the clock reads that follow
    the join, before the search's first node, so the pairwise-consistent
    Tseitin C_4 exits 3 whatever order the search would take."""
    f = _write(tmp_path / "c4.json",
               tseitin_counterexample(cycle_hypergraph(4)).to_json_dict())
    assert run(["global", "--db", f, "--budget-seconds", "1e-9"]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("unknown (oracle budget exhausted)\n")
    assert json.loads(out.split("\n", 1)[1])["oracle_exhausted"] is True
    assert err == ""


@pytest.mark.parametrize("verb", [["global", "--oracle"], ["enumerate"]],
                         ids=["global", "enumerate"])
@pytest.mark.parametrize("limit", [
    ["--budget-seconds", "nan"], ["--budget-seconds", "0"],
    ["--budget-nodes", "0"]], ids=["seconds-nan", "seconds-0", "nodes-0"])
def test_bad_budget_is_a_usage_error(triangle_db_file, capsys, verb, limit):
    # a NaN deadline would never trip, so it must not reach the search
    assert run(verb + ["--db", triangle_db_file] + limit) == 2
    capsys.readouterr()


def test_witness_verb(tmp_path, capsys):
    """There is no ``witness`` verb: ``global --witness`` writes a
    witness. The old alias is a usage error, with nothing on stdout and no
    file written."""
    h = path_hypergraph(3)
    db = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 1}),
                         Bag(("A2", "A3"), {("0", "0"): 1})))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    out_file = tmp_path / "w.json"
    assert run(["witness", "--db", f, "-o", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'witness'" in err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out_file.exists()
    assert "witness" not in _verbs()


def _triangle_of(full):
    """The AB, BC and AC marginals of a bag over A, B, C: a database over
    the triangle."""
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    return BagDatabase(h, tuple(full.marginal(sorted(e)) for e in h.edges))


# each case's exit code and first line on stdout
_WITNESS_PARITY = {
    "acyclic-yes": (0, "globally consistent"),
    "acyclic-no": (1, "globally inconsistent"),
    "cyclic-yes": (0, "globally consistent"),
    "triangle-no": (1, "globally inconsistent"),
    # pairwise consistent; the bag sizes' product is above the join cap,
    # the join's 101 rows are not
    "large-product": (0, "globally consistent"),
    # pairwise consistent; the first join step has 1,002,001 rows
    "join-cap": (3, "unknown (oracle budget exhausted)"),
    # feasible, but its search needs more than the one node allowed
    "budget-spent": (3, "unknown (oracle budget exhausted)"),
    "empty": (0, "globally consistent"),
    "malformed": (2, ""),
}


@pytest.mark.parametrize("case", list(_WITNESS_PARITY))
def test_witness_verb_is_global_with_witness(tmp_path, capsys,
                                             triangle_relations, case):
    """A witness is written by ``global --witness W`` (there is no
    ``witness`` verb), which answers as plain ``global`` does, and
    ``--oracle`` changes nothing: the same stdout, stderr and exit code
    from all three, cyclic schemas and budget flags included. The file is
    written on a yes only, and holds the report's witness."""
    code, first_line = _WITNESS_PARITY[case]
    flags = ["--budget-nodes", "1"] if case == "budget-spent" else []
    path_db = BagDatabase(path_hypergraph(3), (
        Bag(("A1", "A2"), {("0", "0"): 2, ("1", "0"): 1}),
        Bag(("A2", "A3"), {("0", "1"): 2, ("0", "0"): 1})))
    f = tmp_path / "db.json"
    if case == "malformed":
        f.write_text('{"hypergraph": ')
    else:
        _write(f, {
            "acyclic-yes": path_db,
            "acyclic-no": BagDatabase(path_db.hypergraph, (
                path_db.bags[0], Bag(("A2", "A3"), {("1", "1"): 3}))),
            "cyclic-yes": _triangle_of(Bag(("A", "B", "C"), {
                ("0", "0", "0"): 2, ("1", "0", "1"): 1})),
            "triangle-no": triangle_relations,
            "large-product": _triangle_of(Bag(("A", "B", "C"), {
                (str(i), str(i), str(i)): 1 for i in range(101)})),
            "join-cap": BagDatabase(Hypergraph(
                ["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]]), (
                Bag(("A", "B"), {(str(i), "0"): 1 for i in range(1001)}),
                Bag(("B", "C"), {("0", str(i)): 1 for i in range(1001)}),
                Bag(("A", "C"), {(str(i), str(i)): 1 for i in range(1001)}))),
            "budget-spent": encode_3dct([[6, 3, 3], [6, 2, 5], [6, 3, 5]],
                                        [[5, 4, 5], [5, 1, 2], [8, 3, 6]],
                                        [[4, 3, 5], [2, 5, 6], [8, 0, 6]]),
            "empty": BagDatabase(Hypergraph([], []), ()),
        }[case].to_json_dict())
    assert run(["global", "--db", str(f)] + flags) == code
    expected = capsys.readouterr()
    assert expected.out.split("\n", 1)[0] == first_line
    for name, verb in [("w.json", ["global", "--witness"]),
                       ("oracle.json", ["global", "--oracle", "--witness"])]:
        out_file = tmp_path / name
        assert run(verb + [str(out_file), "--db", str(f)] + flags) == code
        assert capsys.readouterr() == expected
        assert out_file.exists() == (code == 0)
        if code == 0:
            witness = json.loads(expected.out.split("\n", 1)[1])["witness"]
            assert out_file.read_text() == json.dumps(
                witness, indent=2, sort_keys=True) + "\n"


def test_counterexample_then_global(tmp_path, capsys):
    out_file = tmp_path / "cex.json"
    assert run(["counterexample", "--shape", "cycle", "--n", "3",
                "-o", str(out_file)]) == 0
    assert run(["global", "--db", str(out_file), "--oracle"]) == 1
    capsys.readouterr()


def test_counterexample_round_trips(tmp_path, capsys):
    out_file = tmp_path / "cex.json"
    assert run(["counterexample", "--shape", "clique", "--n", "4",
                "-o", str(out_file)]) == 0
    db = BagDatabase.from_json_dict(json.loads(out_file.read_text()))
    assert db == tseitin_counterexample(db.hypergraph)
    assert run(["global", "--db", str(out_file)]) == 1
    capsys.readouterr()


def test_lift_verb(tmp_path, capsys):
    target = Hypergraph(["A", "B", "C", "D"],
                        [["A", "B"], ["B", "C"], ["A", "C"], ["C", "D"]])
    schema_file = _write(tmp_path / "target.json", target.to_json_dict())
    # database over the reduced triangle R(H[W]) with W = {A, B, C}
    tri = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    db = BagDatabase(tri, (Bag(("A", "B"), {("0", "0"): 1}),
                           Bag(("B", "C"), {("0", "0"): 1}),
                           Bag(("A", "C"), {("0", "0"): 1})))
    db_file = _write(tmp_path / "db.json", db.to_json_dict())
    out_file = tmp_path / "lifted.json"
    assert run(["lift", "--db", db_file, "--schema", schema_file,
                "-o", str(out_file)]) == 0
    lifted = BagDatabase.from_json_dict(json.loads(out_file.read_text()))
    assert lifted.hypergraph == target
    # a no stays a no: the Tseitin C_4 lifted onto C_4 plus {A4, B}
    c4 = _write(tmp_path / "c4.json",
                tseitin_counterexample(cycle_hypergraph(4)).to_json_dict())
    ring = _write(tmp_path / "ring.json", {
        "vertices": ["A1", "A2", "A3", "A4", "B"],
        "edges": [["A1", "A2"], ["A2", "A3"], ["A3", "A4"], ["A1", "A4"],
                  ["A4", "B"]]})
    assert run(["lift", "--db", c4, "--schema", ring,
                "-o", str(out_file)]) == 0
    assert run(["global", "--db", str(out_file)]) == 1
    capsys.readouterr()


def test_lift_verb_rejects_acyclic_target(tmp_path, triangle_db_file, capsys):
    schema_file = _write(tmp_path / "p3.json", path_hypergraph(3).to_json_dict())
    _assert_usage_error(
        ["lift", "--db", triangle_db_file, "--schema", schema_file],
        tmp_path / "lifted.json", capsys,
        "target schema is acyclic; there is no bad-witness reduction to "
        "lift along")


def test_harden_verb(tmp_path, capsys):
    cex = tmp_path / "c3.json"
    assert run(["counterexample", "--shape", "cycle", "--n", "3",
                "-o", str(cex)]) == 0
    out_file = tmp_path / "c4.json"
    assert run(["harden", "--db", str(cex), "--to", "cycle",
                "-o", str(out_file)]) == 0
    assert run(["global", "--db", str(out_file), "--oracle"]) == 1
    capsys.readouterr()


# the longest multiplicity that str() and int() take by default
_BIG = "9" * 4300


def _big_bag(schema, rows):
    return {"schema": schema,
            "tuples": [{"values": dict(zip(schema, row)), "mult": _BIG}
                       for row in rows]}


def _big_db(edges, rows):
    return {"hypergraph": {"vertices": sorted({a for e in edges for a in e}),
                           "edges": edges},
            "bags": [_big_bag(e, r) for e, r in zip(edges, rows)]}


_TRIANGLE = [["A1", "A2"], ["A2", "A3"], ["A1", "A3"]]


@pytest.mark.parametrize("argv, db", [
    # the new closing bag holds the sum of the two rows sharing A1
    (["harden", "--to", "cycle"],
     _big_db(_TRIANGLE, [[("0", "0")], [("0", "0")],
                         [("0", "0"), ("0", "1")]])),
    # A1 takes two values, so bag 0's new row (A2, A3) = ("1", "0"),
    # absent from it, gets 2 * _BIG
    (["harden", "--to", "clique"],
     _big_db([["A2", "A3"], ["A1", "A3"], ["A1", "A2"]],
             [[("0", "0")], [("0", "0"), ("1", "0")],
              [("0", "0"), ("0", "1")]])),
    # the refilled {A1} bag is the marginal of the {A1, A2} bag
    (["lift", "--schema", "TARGET"],
     _big_db(_TRIANGLE, [[("0", "0"), ("0", "1")], [("0", "0")],
                         [("0", "0")]])),
], ids=["harden-cycle", "harden-clique", "lift"])
def test_output_multiplicity_past_digit_limit_exits_2(tmp_path, capsys,
                                                     argv, db):
    target = _write(tmp_path / "target.json",
                    {"vertices": ["A1", "A2", "A3", "A4"],
                     "edges": _TRIANGLE + [["A1", "A4"]]})
    out_file = tmp_path / "out.json"
    argv = [target if a == "TARGET" else a for a in argv]
    assert run(argv + ["--db", _write(tmp_path / "db.json", db),
                       "-o", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err
    assert not out_file.exists()


def test_encode_3dct_verb(tmp_path, capsys):
    tables = _write(tmp_path / "tables.json",
                    {"R": [[5]], "C": [[5]], "F": [[5]]})
    out_file = tmp_path / "db.json"
    assert run(["encode-3dct", "--tables", tables, "-o", str(out_file)]) == 0
    assert run(["global", "--db", str(out_file), "--oracle"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("table", ["R", "C", "F"])
@pytest.mark.parametrize("cell, fault", [
    (True, "multiplicity True for ('1', '2') is not an int"),
    (2.0, "multiplicity 2.0 for ('1', '2') is not an int"),
    (None, "multiplicity None for ('1', '2') is not an int"),
    ("3", "multiplicity '3' for ('1', '2') is not an int"),
    (-1, "negative multiplicity for ('1', '2')"),
], ids=["bool", "float", "null", "string", "negative"])
def test_encode_3dct_refuses_a_bad_cell(tmp_path, capsys, table, cell,
                                        fault):
    """A cell that is not a non-negative int exits 2 with one error line
    naming its table and the cell, and writes no file."""
    tables = {name: [[1, 0], [0, 1]] for name in "RCF"}
    tables[table] = [[1, cell], [0, 1]]
    _assert_usage_error(
        ["encode-3dct", "--tables", _write(tmp_path / "t.json", tables)],
        tmp_path / "db.json", capsys, "table %s: %s" % (table, fault))


def test_encode_3dct_reports_the_first_fault(tmp_path, capsys):
    """The tables are read in the order R, C, F: a bad cell in R is
    reported before a bad shape in C, and a bad shape in C before a bad
    cell in F."""
    for tables, fault in (
            ({"R": [[-1]], "C": [[1, 1]], "F": [[1]]},
             "table R: negative multiplicity for ('1', '1')"),
            ({"R": [[1]], "C": [[1, 1]], "F": [[None]]},
             "table C is not an n x n grid")):
        _assert_usage_error(
            ["encode-3dct", "--tables", _write(tmp_path / "t.json", tables)],
            tmp_path / "db.json", capsys, fault)


def test_encode_3dct_needs_all_three_tables(tmp_path, capsys):
    """A tables file without F, or one that is not a JSON object, exits 2
    with one error line and writes no file."""
    for tables in ({"R": [[1]], "C": [[1]]}, [[[1]], [[1]], [[1]]]):
        _assert_usage_error(
            ["encode-3dct", "--tables", _write(tmp_path / "t.json", tables)],
            tmp_path / "db.json", capsys,
            "tables file must be a JSON object with keys R, C, F")


def test_enumerate_verb(tmp_path, capsys):
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"]])
    db = BagDatabase(h, (Bag(("A", "B"), {("1", "2"): 1, ("2", "2"): 1}),
                         Bag(("B", "C"), {("2", "1"): 1, ("2", "2"): 1})))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    assert run(["enumerate", "--db", f]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_enumerate_streams_its_report(tmp_path):
    """The report is written as it is serialised, so its text is never
    held whole: 2,048 witnesses, about 6.7 MB of text, in less memory."""
    f = _write(tmp_path / "family.json",
               pair_database(*witness_family(12)).to_json_dict())
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert run(["enumerate", "--db", f]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.chars


def test_enumerate_budget_exhaustion(tmp_path, capsys):
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    full = {(a, b): 1 for a in "012" for b in "012"}
    db = BagDatabase(h, tuple(Bag(sorted(e), full) for e in h.edges))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    assert run(["enumerate", "--db", f, "--budget-nodes", "1"]) == 3
    assert capsys.readouterr() == ("oracle budget exhausted\n", "")


def _assert_usage_error(argv, out_file, capsys, message):
    assert run(argv + ["-o", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: %s\n" % message
    assert not out_file.exists()


def _diagonal_h3(d):
    """A database over H_3 with d diagonal rows per bag: the clique lift
    fills 3 d^2 grid cells for the old bags and d^3 for the new one."""
    return BagDatabase(clique_complement_hypergraph(3), tuple(
        Bag(sorted(e), {(str(i), str(i)): 1 for i in range(d)})
        for e in clique_complement_hypergraph(3).edges))


def test_harden_clique_refuses_more_than_a_million_cells(tmp_path, capsys):
    """303 rows with d = 101 would fill 3 * 101^2 + 101^3 = 1,060,904 grid
    cells: refused at once, with no file written."""
    db = _write(tmp_path / "db.json", _diagonal_h3(101).to_json_dict())
    start = time.monotonic()
    _assert_usage_error(["harden", "--db", db, "--to", "clique"],
                        tmp_path / "hard.json", capsys,
                        "the lift to H_4 has more than 1000000 grid cells")
    assert time.monotonic() - start < 2


def test_harden_clique_cell_limit_is_inclusive(tmp_path, capsys,
                                               monkeypatch):
    """d = 2 fills 3 * 2^2 + 2^3 = 20 grid cells: written under a limit of
    20, refused under 19."""
    db = _write(tmp_path / "db.json", _diagonal_h3(2).to_json_dict())
    out_file = tmp_path / "hard.json"
    monkeypatch.setattr(consistency, "MAX_BUILT_ROWS", 19)
    assert run(["harden", "--db", db, "--to", "clique",
                "-o", str(out_file)]) == 2
    assert not out_file.exists()
    monkeypatch.setattr(consistency, "MAX_BUILT_ROWS", 20)
    assert run(["harden", "--db", db, "--to", "clique",
                "-o", str(out_file)]) == 0
    lifted = BagDatabase.from_json_dict(json.loads(out_file.read_text()))
    assert lifted.hypergraph == clique_complement_hypergraph(4)
    capsys.readouterr()


def test_harden_clique_refuses_an_attribute_with_no_value(tmp_path,
                                                         capsys):
    """Only the bag without A3 has rows, so A3 takes no value and the lift
    has no rows to balance that bag: a usage error, with no file written."""
    h3 = clique_complement_hypergraph(3)
    db = BagDatabase(h3, tuple(
        Bag(sorted(e), {("0", "0"): 1} if "A3" not in e else {})
        for e in h3.edges))
    _assert_usage_error(
        ["harden", "--db", _write(tmp_path / "db.json", db.to_json_dict()),
         "--to", "clique"], tmp_path / "hard.json", capsys,
        "the lift to H_4 needs a value of every attribute when a bag has "
        "rows")


def test_lift_verb_rejects_a_database_off_the_reduced_schema(tmp_path,
                                                              capsys):
    # the target reduces to a triangle; the database is over a path
    target = Hypergraph(["A", "B", "C", "D"],
                        [["A", "B"], ["B", "C"], ["A", "C"], ["C", "D"]])
    path = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"]])
    db = BagDatabase(path, (Bag(("A", "B"), {("0", "0"): 1}),
                            Bag(("B", "C"), {("0", "0"): 1})))
    _assert_usage_error(
        ["lift", "--db", _write(tmp_path / "db.json", db.to_json_dict()),
         "--schema", _write(tmp_path / "target.json", target.to_json_dict())],
        tmp_path / "lifted.json", capsys,
        "replaying ops on the target hypergraph does not yield the "
        "database's hypergraph")


@pytest.mark.parametrize("to, shape", [("cycle", "C"), ("clique", "H")])
def test_harden_verb_rejects_other_schemas(tmp_path, capsys, to, shape):
    db = BagDatabase(path_hypergraph(3),
                     (Bag(("A1", "A2"), {("0", "0"): 1}),
                      Bag(("A2", "A3"), {("0", "0"): 1})))
    _assert_usage_error(
        ["harden", "--db", _write(tmp_path / "db.json", db.to_json_dict()),
         "--to", to], tmp_path / "hard.json", capsys,
        "input must be a database over %s_2 (n >= 3)" % shape)
    # the other shape's four-edge counterexample
    other = clique_complement_hypergraph if to == "cycle" else cycle_hypergraph
    db = tseitin_counterexample(other(4))
    _assert_usage_error(
        ["harden", "--db", _write(tmp_path / "db.json", db.to_json_dict()),
         "--to", to], tmp_path / "hard.json", capsys,
        "input must be a database over %s_4 (n >= 3)" % shape)


def test_counterexample_needs_three_vertices(tmp_path, capsys):
    _assert_usage_error(["counterexample", "--shape", "cycle", "--n", "2"],
                        tmp_path / "cex.json", capsys,
                        "--n must be at least 3")


@pytest.mark.parametrize("shape, n, count", [
    ("clique", 9, "9 * 8^7"),
    ("cycle", 500001, "500001 * 2^1"),
    ("clique", 10 ** 9, "1000000000 * 999999999^999999998"),
])
def test_counterexample_refuses_more_than_a_million_rows(tmp_path, capsys,
                                                         shape, n, count):
    """m bags of d^(k - 1) rows: n (n - 1)^(n - 2) on the clique
    complement, 2n on the cycle. Past 10^6 rows the verb exits 2 before it
    builds anything, a huge n included."""
    _assert_usage_error(
        ["counterexample", "--shape", shape, "--n", str(n)],
        tmp_path / "cex.json", capsys,
        "%s --n %d has %s rows, more than 1000000" % (shape, n, count))


def test_counterexample_row_limit_is_inclusive(tmp_path, capsys,
                                               monkeypatch):
    """An instance of exactly the limit's rows is written, one row more is
    refused: cycle --n 5 has 10 rows, clique --n 5 has 5 * 4^3 = 320. The
    limit is the library's alone."""
    for shape, rows, count in (("cycle", 10, "5 * 2^1"),
                               ("clique", 320, "5 * 4^3")):
        out_file = tmp_path / ("%s.json" % shape)
        monkeypatch.setattr(consistency, "MAX_BUILT_ROWS", rows - 1)
        assert run(["counterexample", "--shape", shape, "--n", "5",
                    "-o", str(out_file)]) == 2
        assert capsys.readouterr() == ("", "error: %s --n 5 has %s rows, "
                                       "more than %d\n" % (shape, count,
                                                            rows - 1))
        assert not out_file.exists()
        monkeypatch.setattr(consistency, "MAX_BUILT_ROWS", rows)
        assert run(["counterexample", "--shape", shape, "--n", "5",
                    "-o", str(out_file)]) == 0
        db = BagDatabase.from_json_dict(json.loads(out_file.read_text()))
        assert sum(map(len, db.bags)) == rows
        capsys.readouterr()


def test_empty_database_has_the_empty_witness(tmp_path, capsys):
    f = _write(tmp_path / "db.json",
               {"hypergraph": {"vertices": [], "edges": []}, "bags": []})
    empty = {"schema": [], "tuples": []}
    by_global = tmp_path / "global.json"
    assert run(["global", "--db", f, "--witness", str(by_global)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("globally consistent\n")
    assert json.loads(out.split("\n", 1)[1]) == {
        "global": "yes", "oracle_exhausted": False, "witness": empty,
        "pairwise": {"consistent": True, "inconsistent_pairs": []}}
    assert by_global.read_text() == _dumps(Bag((), {}))
    # with no bags, every bag over the empty schema is a witness
    assert run(["enumerate", "--db", f]) == 2
    assert capsys.readouterr() == (
        "", "error: a database with no bags has infinitely many witnesses: "
        "every bag over the empty schema\n")


def _crash(exc):
    def verb(*args, **kwargs):
        raise exc
    return verb


def test_main_exits_3_when_memory_runs_out(triangle_db_file, capsys,
                                         monkeypatch):
    """``run`` lets a MemoryError through; the command prints one error
    line and exits 3, never 1, the "no" code."""
    monkeypatch.setattr(cli, "global_consistent", _crash(MemoryError()))
    argv = ["global", "--db", triangle_db_file]
    with pytest.raises(MemoryError):
        run(argv)
    monkeypatch.setattr("sys.argv", ["bagconsist"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_main_exits_2_on_a_crash(triangle_db_file, capsys, monkeypatch):
    """Any other exception that ``run`` lets through exits the command 2,
    with its traceback on stderr."""
    monkeypatch.setattr(cli, "global_consistent",
                        _crash(RuntimeError("boom")))
    argv = ["global", "--db", triangle_db_file]
    with pytest.raises(RuntimeError):
        run(argv)
    monkeypatch.setattr("sys.argv", ["bagconsist"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: boom\n")


# each verb's arguments (files in the current directory) and the library
# call it makes once its input is loaded, as (owner, attribute)
_LIBRARY_CALLS = {
    "classify": (["--schema", "c4.json"], Hypergraph, "join_tree"),
    "pairwise": (["--db", "db.json"], cli, "inconsistent_pairs"),
    "global": (["--db", "db.json", "--witness", "out.json"],
               cli, "global_consistent"),
    "counterexample": (["--shape", "cycle", "--n", "4", "-o", "out.json"],
                       cli, "tseitin_counterexample"),
    "lift": (["--db", "db.json", "--schema", "c4.json", "-o", "out.json"],
             cli, "lift_collection"),
    "harden": (["--db", "db.json", "--to", "cycle", "-o", "out.json"],
               cli, "cycle_hardness_lift"),
    "encode-3dct": (["--tables", "tables.json", "-o", "out.json"],
                    cli, "encode_3dct"),
    "enumerate": (["--db", "db.json"], cli, "enumerate_witnesses"),
}


def _verbs():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


@pytest.mark.parametrize("verb", _verbs())
def test_library_value_error_exits_2_from_every_verb(
        tmp_path, capsys, monkeypatch, triangle_relations, verb):
    """A ValueError from the library call of any verb is an input error:
    one ``error:`` line, exit 2, no report and no file. An AssertionError
    from the same call is a broken invariant and propagates from ``run``."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "db.json", triangle_relations.to_json_dict())
    _write(tmp_path / "c4.json", cycle_hypergraph(4).to_json_dict())
    _write(tmp_path / "tables.json", {"R": [1], "C": [1], "F": [1]})
    args, owner, name = _LIBRARY_CALLS[verb]
    monkeypatch.setattr(owner, name, _crash(ValueError("boom")))
    assert run([verb] + args) == 2
    assert capsys.readouterr() == ("", "error: boom\n")
    assert not (tmp_path / "out.json").exists()
    monkeypatch.setattr(owner, name, _crash(AssertionError("boom")))
    with pytest.raises(AssertionError, match="boom"):
        run([verb] + args)


def test_usage_errors(tmp_path, capsys):
    assert run(["classify", "--schema", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["classify", "--schema", str(bad)]) == 2
    assert run(["bogus-verb"]) == 2
    capsys.readouterr()


_VALID_DB = {
    "hypergraph": {"vertices": ["A", "B", "C"],
                   "edges": [["A", "B"], ["B", "C"]]},
    "bags": [
        {"schema": ["A", "B"],
         "tuples": [{"values": {"A": "1", "B": "2"}, "mult": "1"}]},
        {"schema": ["B", "C"],
         "tuples": [{"values": {"B": "2", "C": "1"}, "mult": "1"}]},
    ],
}


def _malformed(path, value):
    data = json.loads(json.dumps(_VALID_DB))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("verb", ["global", "pairwise", "witness"])
@pytest.mark.parametrize("data", [
    _malformed(("bags", 0, "tuples"), [["1", "2"]]),
    _malformed(("hypergraph", "edges"), 5),
    _malformed(("bags", 0, "tuples"), 7),
    _malformed(("bags", 0, "tuples", 0, "values", "A"), None),
    _malformed(("bags", 0, "tuples", 0, "values", "A"), True),
    _malformed(("bags", 0, "tuples", 0, "values", "A"), [1]),
    _malformed(("bags", 0, "tuples", 0, "values", "A"), {"v": 1}),
    # json reads NaN and Infinity (and overflows 1e999 to inf); as cells
    # "nan" and "inf" on the shared attribute they would answer "no"
    _malformed(("bags", 0, "tuples", 0, "values", "B"), float("nan")),
    _malformed(("bags", 0, "tuples", 0, "values", "B"), float("inf")),
] + [
    # a multiplicity is a string of ASCII digits, past zero and within
    # int's digit limit
    _malformed(("bags", 0, "tuples", 0, "mult"), mult) for mult in (
        "0", "-1", "+3", " 7 ", "1_0", "\u0663", "", None, 5, "9" * 4301,
        "\ud800")
], ids=["tuples-as-lists", "edges-5", "tuples-7", "null-value",
        "bool-value", "list-value", "object-value", "nan-value",
        "inf-value", "zero-mult", "negative-mult", "signed-mult",
        "spaced-mult", "underscored-mult", "arabic-indic-mult", "empty-mult",
        "null-mult", "number-mult", "too-long-mult", "surrogate-mult"])
def test_malformed_database_exits_2(tmp_path, capsys, verb, data):
    """Exit 2 with an error line; "witness" is ``global --witness``, which
    writes no file."""
    f = _write(tmp_path / "db.json", data)
    argv = [verb, "--db", f]
    out_file = tmp_path / "w.json"
    if verb == "witness":
        argv = ["global", "--db", f, "--witness", str(out_file)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("verb", ["classify", "lift"])
def test_empty_vertex_name_exits_2(tmp_path, triangle_db_file, capsys, verb):
    # refused as in a database's bags, where it cannot name an attribute
    f = _write(tmp_path / "schema.json",
               {"vertices": ["", "A"], "edges": [["", "A"]]})
    argv = ["classify", "--schema", f]
    if verb == "lift":
        argv = ["lift", "--db", triangle_db_file, "--schema", f,
                "-o", str(tmp_path / "out.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid hypergraph")
    assert "Traceback" not in err


_AB_BAG = {"schema": ["A", "B"],
           "tuples": [{"values": {"A": "0", "B": "0"}, "mult": "1"}]}


@pytest.mark.parametrize("verb, vertices, edges", [
    ("classify", ["A", "A"], [["A", "A"]]),
    ("classify", ["A", "A", "B"], [["A", "B"]]),
    ("classify", ["A", "B"], [["A", "B"], ["B", "B"]]),
    ("global", ["A", "B", "B"], [["A", "A", "B"]]),
    ("global", ["A", "B"], [["A", "B", "A"]]),
], ids=["classify-both", "classify-vertices", "classify-edge",
        "global-both", "global-edge"])
def test_repeated_vertex_name_exits_2(tmp_path, capsys, verb, vertices,
                                      edges):
    # refused as a bag schema that names an attribute twice is; the
    # constructor would have merged the names and answered
    h = {"vertices": vertices, "edges": edges}
    if verb == "classify":
        argv = ["classify", "--schema", _write(tmp_path / "schema.json", h)]
        what = "hypergraph"
    else:
        argv = ["global", "--db", _write(tmp_path / "db.json", {
            "hypergraph": h, "bags": [_AB_BAG] * len(edges)})]
        what = "database"
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid %s in %s: duplicate vertex names: %r\n" % (
        what, argv[2], next(n for n in [vertices] + edges
                            if len(set(n)) < len(n)))


@pytest.mark.parametrize("tables", [
    {"R": 5, "C": [[1]], "F": [[1]]},
    {"R": [[1]], "C": [None], "F": [[1]]},
    {"R": [[1]], "C": [[1]], "F": [[None]]},
    {"R": [[2.5]], "C": [[1]], "F": [[1]]},
    {"R": [[1]], "C": [[True]], "F": [[1]]},
])
def test_malformed_tables_exit_2(tmp_path, capsys, tables):
    f = _write(tmp_path / "tables.json", tables)
    assert run(["encode-3dct", "--tables", f,
                "-o", str(tmp_path / "db.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_database_exits_2(tmp_path, capsys):
    """A database file cut short exits 2 with the decoder's message on one
    error line, nothing on stdout and no witness file."""
    text = json.dumps(tseitin_counterexample(
        cycle_hypergraph(4)).to_json_dict())[:20]
    f = tmp_path / "cut.json"
    f.write_text(text)
    with pytest.raises(ValueError) as exc:
        json.loads(text)
    out_file = tmp_path / "w.json"
    assert run(["global", "--db", str(f), "--witness", str(out_file)]) == 2
    assert capsys.readouterr() == (
        "", "error: malformed JSON in %s: %s\n" % (f, exc.value))
    assert not out_file.exists()


@pytest.mark.parametrize("verb, flag", [
    ("global", "--db"), ("pairwise", "--db"), ("classify", "--schema")])
def test_deeply_nested_json_exits_2(tmp_path, capsys, verb, flag):
    # the decoder recurses once per nesting level, so it gives up on this
    # text with a RecursionError, not a ValueError
    f = tmp_path / "deep.json"
    f.write_text("[" * 200000)
    assert run([verb, flag, str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON")
    assert "Traceback" not in err


# -- output text and parser reuse ------------------------------------------

_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\x80\xe9\u2028\ud800\U0001f600 aZ')
                | st.characters(), max_size=5)
_WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, -1])
    | st.integers() | st.integers(-10 ** 4000, 10 ** 4000) | _TEXT
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_WRITER_VALUES)
@example([True, 1, False, 0, None, [], {}, ()])
@example({"a": {"": [(), {}]}, "\u00e9": (True, 1), "\x00\"\\": False})
@example([0.5, -0.0, 1e308, 5e-324, math.nan, math.inf, -math.inf])
def test_json_text_matches_indented_dumps(value):
    assert cli._json_text(value) == json.dumps(
        value, indent=2, sort_keys=True) + "\n"


# names and cells that the bag writer's row template must escape: % in
# every form, quotes, backslashes, control characters, non-ASCII text and
# lone surrogates
_BAG_TEXT = (st.text(st.sampled_from('%s()x"\\/\x00\x1f\x7f\xe9\u2028\ud800'
                                     '\U0001f600') | st.characters(),
                     max_size=6)
             | st.sampled_from(["%", "%s", "%(x)s", "%%", "%d", "%(", "%%s"]))
# 1-bit, 128-bit and 4,000-digit multiplicities
_BAG_MULTS = (st.just(1) | st.integers(2 ** 127, 2 ** 128 - 1)
              | st.integers(10 ** 3999, 10 ** 4000 - 1))


@st.composite
def _bags(draw):
    """A bag of up to three attributes: with none it is empty or holds the
    one row ``()``."""
    names = draw(st.lists(_BAG_TEXT.filter(bool), unique=True, max_size=3))
    rows = st.tuples(*[_BAG_TEXT] * len(names))
    return Bag(names, draw(st.dictionaries(rows, _BAG_MULTS, max_size=4)))


def _nested_bags(depth):
    """Bags at ``depth`` levels of lists and objects, next to other JSON
    values."""
    if not depth:
        return _bags()
    inner = _nested_bags(depth - 1)
    return (st.lists(inner | _TEXT | st.integers(), min_size=1, max_size=3)
            | st.dictionaries(_TEXT, inner, min_size=1, max_size=3))


def _plain(value):
    """``value`` with every bag replaced by its ``to_json_dict()``."""
    if isinstance(value, Bag):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 3).flatmap(_nested_bags))
@example(Bag((), {}))
@example(Bag((), {(): 2 ** 128 - 1}))
@example([Bag(("%",), {("%s",): 1, ("%(x)s",): 10 ** 3999})])
@example({"w": Bag(('a"%s\\', "\ud800"), {("\x00", "\xe9"): 3}), "x": 1})
def test_bag_text_matches_indented_dumps(value):
    assert cli._json_text(value) == json.dumps(
        _plain(value), indent=2, sort_keys=True) + "\n"


def _dumps(obj):
    return json.dumps(obj.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _odd_path_db(big):
    """A consistent path database whose attribute names and cells need
    escaping, with 41-digit multiplicities when ``big``."""
    a, b, c = "A%s", 'B"\\%', "C\xe9%(x)s"
    m = 10 ** 40 if big else 1
    return BagDatabase(Hypergraph([a, b, c], [[a, b], [b, c]]), (
        Bag((a, b), {("%d", "x"): m, ("\ud800", "x"): 1}),
        Bag((b, c), {("x", "%%"): m, ("x", "\n"): 1})))


def test_verbs_write_bags_as_indented_dumps(tmp_path, capsys):
    """Every verb that writes a bag, to stdout or to a file, writes
    exactly ``json.dumps`` of its ``to_json_dict()`` with ``indent=2`` and
    sorted keys, plus a newline."""
    db = _odd_path_db(big=True)
    db_file = _write(tmp_path / "db.json", db.to_json_dict())
    out = tmp_path / "out.json"

    report = global_consistent(db)
    assert report.witness is not None
    assert run(["global", "--db", db_file, "--witness", str(out)]) == 0
    assert capsys.readouterr().out == "globally consistent\n" + _dumps(report)
    assert out.read_text() == _dumps(report.witness)

    assert run(["counterexample", "--shape", "cycle", "--n", "4",
                "-o", str(out)]) == 0
    assert out.read_text() == _dumps(tseitin_counterexample(
        cycle_hypergraph(4)))

    cex = BagDatabase.from_json_dict(json.loads(out.read_text()))
    assert run(["harden", "--db", str(out), "--to", "cycle",
                "-o", str(tmp_path / "hard.json")]) == 0
    assert (tmp_path / "hard.json").read_text() == _dumps(
        cycle_hardness_lift(cex))

    target = Hypergraph(["A", "B", "C", "D"],
                        [["A", "B"], ["B", "C"], ["A", "C"], ["C", "D"]])
    tri = BagDatabase(
        Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]]),
        (Bag(("A", "B"), {("%s", "0"): 3}), Bag(("B", "C"), {("0", '"'): 3}),
         Bag(("A", "C"), {("%s", '"'): 3})))
    assert run(["lift", "--db", _write(tmp_path / "tri.json",
                                       tri.to_json_dict()),
                "--schema", _write(tmp_path / "target.json",
                                   target.to_json_dict()),
                "-o", str(out)]) == 0
    assert out.read_text() == _dumps(lift_collection(
        tri, target, find_bad_witness(target).ops))

    tables = {"R": [[2, 1], [0, 3]], "C": [[1, 2], [2, 1]],
              "F": [[3, 0], [1, 2]]}
    assert run(["encode-3dct", "--tables", _write(tmp_path / "tables.json",
                                                  tables),
                "-o", str(out)]) == 0
    assert out.read_text() == _dumps(encode_3dct(
        tables["R"], tables["C"], tables["F"]))

    capsys.readouterr()
    small = _odd_path_db(big=False)
    assert run(["enumerate", "--db", _write(tmp_path / "small.json",
                                            small.to_json_dict())]) == 0
    witnesses = cli.enumerate_witnesses(small)
    assert len(witnesses) == 2
    assert capsys.readouterr().out == json.dumps(
        {"count": 2, "witnesses": [w.to_json_dict() for w in witnesses]},
        indent=2, sort_keys=True) + "\n"


# each case's argv before its input file, the input's text (None for no
# file), its exit code, and the library calls patched below that it makes
_GC_INPUTS = {
    "db-valid": (["pairwise", "--db"], json.dumps(_VALID_DB), 0,
                 {"inconsistent_pairs", "_emit"}),
    "db-global": (["global", "--db"], json.dumps(_VALID_DB), 0,
                  {"global_consistent", "_emit"}),
    "db-malformed": (["pairwise", "--db"], "{not json", 2, set()),
    "db-invalid": (["global", "--db"],
                   json.dumps(_malformed(("bags", 0, "tuples"), 7)), 2,
                   set()),
    "db-missing": (["global", "--db"], None, 2, set()),
    "schema-valid": (["classify", "--schema"],
                     json.dumps(path_hypergraph(3).to_json_dict()), 0,
                     {"_emit"}),
    "schema-cyclic": (["classify", "--schema"],
                      json.dumps(cycle_hypergraph(4).to_json_dict()), 1,
                      {"find_bad_witness", "_emit"}),
    "schema-invalid": (["classify", "--schema"],
                       json.dumps({"vertices": ["A"], "edges": 1}), 2,
                       set()),
}


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv,text,code,calls", list(_GC_INPUTS.values()),
                         ids=list(_GC_INPUTS))
def test_run_restores_the_gc_state(tmp_path, capsys, monkeypatch, argv, text,
                                   code, calls, enabled):
    """The whole verb runs with the cyclic GC off, from the parse to the
    report, nothing forces a collection, and ``run`` leaves the GC as its
    caller had it, whatever the exit."""
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    during = []

    def watched(name, call):
        def watching(*args):
            during.append((name, gc.isenabled()))
            return call(*args)
        return watching

    for cls in (BagDatabase, Hypergraph):
        monkeypatch.setattr(cls, "from_json_dict",
                            watched("parse", cls.from_json_dict))
    for name in ("global_consistent", "inconsistent_pairs",
                 "find_bad_witness", "_emit"):
        monkeypatch.setattr(cli, name, watched(name, getattr(cli, name)))
    collected = []
    monkeypatch.setattr(gc, "collect",
                        lambda *args: collected.append(args) or 0)
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert run(argv + [str(path)]) == code
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert not any(on for _, on in during)
    assert {name for name, _ in during} - {"parse"} == calls
    assert collected == []
    capsys.readouterr()


def _no_cycle_files(tmp_path):
    """The input files of ``_NO_CYCLE_CASES``, by name."""
    path_db = BagDatabase(path_hypergraph(3), (
        Bag(("A1", "A2"), {("0", "0"): 2, ("1", "0"): 1}),
        Bag(("A2", "A3"), {("0", "1"): 2, ("0", "0"): 1})))
    tri = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    files = {
        "p3": path_hypergraph(3),
        "c4h": cycle_hypergraph(4),
        "yes": path_db,
        "no": BagDatabase(path_db.hypergraph, (
            path_db.bags[0], Bag(("A2", "A3"), {("1", "1"): 3}))),
        "tri": BagDatabase(tri, tuple(
            Bag(sorted(e), {("0", "0"): 1}) for e in tri.edges)),
        "target": Hypergraph(["A", "B", "C", "D"], [
            ["A", "B"], ["B", "C"], ["A", "C"], ["C", "D"]]),
        "c3": tseitin_counterexample(cycle_hypergraph(3)),
        "c4": tseitin_counterexample(cycle_hypergraph(4)),
        "h3": _diagonal_h3(2),
    }
    paths = {name: _write(tmp_path / (name + ".json"), data.to_json_dict())
             for name, data in files.items()}
    paths["tables"] = _write(tmp_path / "tables.json", {
        "R": [[2, 1], [0, 3]], "C": [[1, 2], [2, 1]], "F": [[3, 0], [1, 2]]})
    paths["bad-bag"] = _write(tmp_path / "bad-bag.json",
                              _malformed(("bags", 0, "tuples"), 7))
    (tmp_path / "garbled.json").write_text("{not json")
    paths["garbled"] = str(tmp_path / "garbled.json")
    paths["missing"] = str(tmp_path / "missing.json")
    paths["out"] = str(tmp_path / "out.json")
    return paths


# each case's argv, with {name} for the files above, and its exit code
_NO_CYCLE_CASES = {
    "classify-acyclic": ("classify --schema {p3}", 0),
    "classify-cyclic": ("classify --schema {c4h}", 1),
    "pairwise-yes": ("pairwise --db {yes}", 0),
    "pairwise-no": ("pairwise --db {no}", 1),
    "global-yes": ("global --db {yes}", 0),
    "global-no": ("global --db {no}", 1),
    "global-cyclic": ("global --db {c4}", 1),
    "global-witness": ("global --db {yes} --witness {out}", 0),
    "witness": ("global --db {no} --witness {out}", 1),
    "enumerate": ("enumerate --db {yes}", 0),
    "counterexample-cycle": ("counterexample --shape cycle --n 4 -o {out}",
                             0),
    "counterexample-clique": ("counterexample --shape clique --n 4 -o {out}",
                              0),
    "lift": ("lift --db {tri} --schema {target} -o {out}", 0),
    "harden-cycle": ("harden --db {c3} --to cycle -o {out}", 0),
    "harden-clique": ("harden --db {h3} --to clique -o {out}", 0),
    "encode-3dct": ("encode-3dct --tables {tables} -o {out}", 0),
    "malformed-json": ("global --db {garbled}", 2),
    "invalid-bag": ("pairwise --db {bad-bag}", 2),
    "missing-file": ("global --db {missing}", 2),
    "harden-clique-on-c4": ("harden --db {c4} --to clique -o {out}", 2),
}


@pytest.mark.parametrize("case", list(_NO_CYCLE_CASES))
def test_no_verb_makes_a_reference_cycle(tmp_path, capsys, case):
    """No verb leaves an object in a reference cycle, on its yes, no or
    error path: what ``run`` rests on when it keeps the cyclic GC off for
    the whole verb. The first run warms the caches that live on."""
    template, code = _NO_CYCLE_CASES[case]
    files = _no_cycle_files(tmp_path)
    argv = [arg.format_map(files) for arg in template.split()]
    assert run(argv) == code
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == code
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    capsys.readouterr()


def _captured_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_as_a_fresh_one(tmp_path, triangle_db_file,
                                              monkeypatch):
    """Calls made one after another through the parser that the first call
    builds answer exactly as each call does through a freshly built one:
    no flag or default carries over from one call to the next."""
    acyclic = _write(tmp_path / "acyclic.json",
                     random_acyclic_database(random.Random(7)).to_json_dict())
    # the default budget decides it; ten nodes would not
    full = {(a, b): 1 for a in "01234" for b in "01234"}
    cyclic = _write(tmp_path / "cyclic.json", BagDatabase(
        Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]]),
        (Bag(("A", "B"), full), Bag(("B", "C"), full),
         Bag(("A", "C"), full))).to_json_dict())
    calls = [
        ["global", "--oracle", "--budget-nodes", "5", "--db", acyclic,
         "--bogus"],
        ["--help"],
        ["global", "--oracle", "--budget-nodes", "10", "--db",
         triangle_db_file],
        ["global", "--db", acyclic],
        ["global", "--db", cyclic],
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_captured_run(argv))
    assert [code for code, _, _ in fresh] == [2, 0, 1, 0, 0]
    monkeypatch.setattr(cli, "_parser", None)
    assert [_captured_run(argv) for argv in calls] == fresh


# -- mutation fuzz ---------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3)
    | st.text("AB01 ", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("AB", max_size=2), inner, max_size=3),
    max_leaves=4)


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutated_text(data, valid):
    """The valid document's JSON text after one mutation: a value replaced,
    removed or doubled somewhere in the tree, or the text cut or edited."""
    doc = json.loads(json.dumps(valid))
    kind = data.draw(st.sampled_from(["replace", "remove", "double", "text"]))
    if kind == "text":
        text = json.dumps(doc)
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["cut", "drop", "insert"]))
        if edit == "cut":
            return text[:at]
        if edit == "drop":
            return text[:at] + text[at + 1:]
        return text[:at] + data.draw(st.sampled_from('{}[],:"0A')) + text[at:]
    path = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "replace":
        parent[key] = data.draw(_JSON_VALUES)
    elif kind == "remove":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key + "x"] = parent[key]
    return json.dumps(doc)


_FUZZ_INPUTS = {
    "classify-cyclic": (["classify", "--schema"],
                        cycle_hypergraph(4).to_json_dict()),
    "classify-acyclic": (["classify", "--schema"],
                         path_hypergraph(4).to_json_dict()),
    "global": (["global", "--budget-nodes", "10000", "--db"], _VALID_DB),
    "pairwise": (["pairwise", "--db"], _VALID_DB),
    "witness": (["global", "--witness", os.devnull, "--db"], _VALID_DB),
    "enumerate": (["enumerate", "--budget-nodes", "10000", "--db"], _VALID_DB),
    "encode-3dct": (["encode-3dct", "-o", os.devnull, "--tables"],
                    {"R": [[1, 0], [0, 1]], "C": [[1, 0], [0, 1]],
                     "F": [[1, 0], [0, 1]]}),
    "harden": (["harden", "--to", "cycle", "-o", os.devnull, "--db"],
               tseitin_counterexample(cycle_hypergraph(3)).to_json_dict()),
    # the target schema stays valid; only the database is mutated
    "lift": (["lift", "--schema", "C4_SCHEMA", "-o", os.devnull, "--db"],
             tseitin_counterexample(cycle_hypergraph(4)).to_json_dict()),
}


@pytest.fixture(scope="module")
def c4_schema(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("schema") / "c4.json",
                  cycle_hypergraph(4).to_json_dict())


@pytest.mark.parametrize("argv,valid", list(_FUZZ_INPUTS.values()),
                         ids=list(_FUZZ_INPUTS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_exit_codes(tmp_path_factory, c4_schema, argv,
                                        valid, data):
    """Every mutated file ends in a documented exit code without a
    traceback, and exit 2 always comes with an error message."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(_mutated_text(data, valid))
    argv = [c4_schema if a == "C4_SCHEMA" else a for a in argv]
    code, _, err = _captured_run(argv + [str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err
