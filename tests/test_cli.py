import json

import pytest

from bagconsist import Bag, BagDatabase, Hypergraph
from bagconsist.cli import run
from bagconsist.hypergraph import cycle_hypergraph, path_hypergraph
from bagconsist.consistency import tseitin_counterexample


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


def test_classify_cyclic(tmp_path, capsys):
    f = _write(tmp_path / "c4.json", cycle_hypergraph(4).to_json_dict())
    assert run(["classify", "--schema", f]) == 1
    out = capsys.readouterr().out
    assert out.startswith("cyclic")
    payload = json.loads(out.split("\n", 1)[1])
    assert payload["bad_witness"]["shape"] == "cycle"


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
    capsys.readouterr()


def test_global_budget_exhaustion(tmp_path, capsys):
    # cyclic instance with a non-trivial search tree and a tiny node budget
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    db = BagDatabase(h, (
        Bag(("A", "B"), {(a, b): 1 for a in "01" for b in "01"}),
        Bag(("B", "C"), {(a, b): 1 for a in "01" for b in "01"}),
        Bag(("A", "C"), {(a, b): 1 for a in "01" for b in "01"}),
    ))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    code = run(["global", "--db", f, "--oracle", "--budget-nodes", "1"])
    assert code == 3
    capsys.readouterr()


def test_witness_verb(tmp_path, capsys):
    h = path_hypergraph(3)
    db = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 1}),
                         Bag(("A2", "A3"), {("0", "0"): 1})))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    out_file = tmp_path / "w.json"
    assert run(["witness", "--db", f, "-o", str(out_file)]) == 0
    assert out_file.exists()
    capsys.readouterr()


def test_witness_verb_rejects_cyclic(triangle_db_file, capsys):
    assert run(["witness", "--db", triangle_db_file, "-o", "/dev/null"]) == 2
    capsys.readouterr()


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
    capsys.readouterr()


def test_lift_verb_rejects_acyclic_target(tmp_path, triangle_db_file, capsys):
    schema_file = _write(tmp_path / "p3.json", path_hypergraph(3).to_json_dict())
    assert run(["lift", "--db", triangle_db_file, "--schema", schema_file,
                "-o", "/dev/null"]) == 2
    capsys.readouterr()


def test_harden_verb(tmp_path, capsys):
    cex = tmp_path / "c3.json"
    assert run(["counterexample", "--shape", "cycle", "--n", "3",
                "-o", str(cex)]) == 0
    out_file = tmp_path / "c4.json"
    assert run(["harden", "--db", str(cex), "--to", "cycle",
                "-o", str(out_file)]) == 0
    assert run(["global", "--db", str(out_file), "--oracle"]) == 1
    capsys.readouterr()


def test_encode_3dct_verb(tmp_path, capsys):
    tables = _write(tmp_path / "tables.json",
                    {"R": [[5]], "C": [[5]], "F": [[5]]})
    out_file = tmp_path / "db.json"
    assert run(["encode-3dct", "--tables", tables, "-o", str(out_file)]) == 0
    assert run(["global", "--db", str(out_file), "--oracle"]) == 0
    capsys.readouterr()


def test_enumerate_verb(tmp_path, capsys):
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"]])
    db = BagDatabase(h, (Bag(("A", "B"), {("1", "2"): 1, ("2", "2"): 1}),
                         Bag(("B", "C"), {("2", "1"): 1, ("2", "2"): 1})))
    f = _write(tmp_path / "db.json", db.to_json_dict())
    assert run(["enumerate", "--db", f]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


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
], ids=["tuples-as-lists", "edges-5", "tuples-7", "null-value"])
def test_malformed_database_exits_2(tmp_path, capsys, verb, data):
    f = _write(tmp_path / "db.json", data)
    argv = [verb, "--db", f]
    if verb == "witness":
        argv += ["-o", str(tmp_path / "w.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("tables", [
    {"R": 5, "C": [[1]], "F": [[1]]},
    {"R": [[1]], "C": [None], "F": [[1]]},
    {"R": [[1]], "C": [[1]], "F": [[None]]},
])
def test_malformed_tables_exit_2(tmp_path, capsys, tables):
    f = _write(tmp_path / "tables.json", tables)
    assert run(["encode-3dct", "--tables", f,
                "-o", str(tmp_path / "db.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")
