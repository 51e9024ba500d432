import random

import pytest

from bagconsist import (
    Bag,
    BagDatabase,
    CyclicHypergraphError,
    DatabaseError,
    Hypergraph,
    acyclic_global_witness,
    check_witness,
    clique_hardness_lift,
    cycle_hardness_lift,
    encode_3dct,
    find_bad_witness,
    global_consistent,
    inconsistent_pairs,
    k_wise_consistent,
    lift_collection,
    minimal_two_bag_witness,
    pairwise_consistent,
    solve_feasibility,
    tseitin_counterexample,
    two_bag_witness,
)
from bagconsist.hypergraph import clique_complement_hypergraph, cycle_hypergraph, path_hypergraph

from conftest import pair_database, random_acyclic_database, witness_family


def test_database_validation():
    h = path_hypergraph(3)
    with pytest.raises(DatabaseError):
        BagDatabase(h, (Bag(("A1", "A2"), {}),))
    with pytest.raises(DatabaseError):
        BagDatabase(h, (Bag(("A1", "A2"), {}), Bag(("A1", "A3"), {})))


def test_database_json_round_trip(triangle_relations):
    data = triangle_relations.to_json_dict()
    assert BagDatabase.from_json_dict(data) == triangle_relations


def test_pairwise_consistent_examples(paper_pair):
    r, s = paper_pair
    assert pairwise_consistent(r, s)
    assert not pairwise_consistent(Bag(("A", "B"), {("1", "2"): 2}),
                                   Bag(("B", "C"), {("2", "1"): 1}))
    # disjoint schemas compare total mass
    assert not pairwise_consistent(Bag(("A",), {("a",): 2}),
                                   Bag(("B",), {("b",): 3}))
    assert pairwise_consistent(Bag(("A",), {("a",): 2}),
                               Bag(("B",), {("b",): 1, ("c",): 1}))


def test_two_bag_witness(paper_pair):
    r, s = paper_pair
    w = two_bag_witness(r, s)
    assert w is not None
    assert w.marginal(r.schema) == r and w.marginal(s.schema) == s
    assert two_bag_witness(r, r) == r
    assert two_bag_witness(Bag(("A",), {("a",): 1}),
                           Bag(("B",), {("b",): 2})) is None


def test_minimal_two_bag_witness(paper_pair):
    r, s = paper_pair
    w = minimal_two_bag_witness(r, s)
    assert w is not None and len(w) == 2
    t1 = Bag(("A", "B", "C"), {("1", "2", "2"): 1, ("2", "2", "1"): 1})
    t2 = Bag(("A", "B", "C"), {("1", "2", "1"): 1, ("2", "2", "2"): 1})
    assert w in (t1, t2)
    # mass must split across both left rows
    w2 = minimal_two_bag_witness(Bag(("A",), {("a",): 1, ("b",): 1}),
                                 Bag(("B",), {("c",): 2}))
    assert w2 is not None and len(w2) == 2
    assert minimal_two_bag_witness(Bag(("A",), {("a",): 1}),
                                   Bag(("A",), {("b",): 1})) is None


def test_minimal_witness_caratheodory_bound(rng):
    for _ in range(100):
        db = random_acyclic_database(rng, max_edges=2)
        if len(db.bags) != 2:
            continue
        r, s = db.bags
        w = minimal_two_bag_witness(r, s)
        assert w is not None
        assert len(w) <= max(len(r) + len(s) - 1, 0)


def test_acyclic_global_witness_paper_chain():
    n = 8
    h = path_hypergraph(n)
    bags = tuple(
        Bag(tuple(sorted(e)), {(a, b): 2 ** n for a in "01" for b in "01"})
        for e in h.edges)
    db = BagDatabase(h, bags)
    w = acyclic_global_witness(db)
    assert w is not None
    assert check_witness(w, db)
    assert len(w) <= sum(len(b) for b in bags)


def test_acyclic_global_witness_rejects_cyclic(triangle_relations):
    with pytest.raises(CyclicHypergraphError):
        acyclic_global_witness(triangle_relations)


def test_acyclic_global_witness_none_on_inconsistent():
    h = path_hypergraph(3)
    db = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 1}),
                         Bag(("A2", "A3"), {("1", "1"): 1})))
    assert acyclic_global_witness(db) is None


def test_global_consistent_acyclic(rng):
    for _ in range(40):
        db = random_acyclic_database(rng)
        report = global_consistent(db)
        assert report.pairwise_ok
        assert report.global_status == "yes"
        assert check_witness(report.witness, db)


def test_global_consistent_triangle(triangle_relations):
    report = global_consistent(triangle_relations, mode="oracle")
    assert report.pairwise_ok
    assert report.global_status == "no"
    assert report.witness is None


def test_global_consistent_single_bag():
    b = Bag(("A1",), {("x",): 3})
    db = BagDatabase(Hypergraph(["A1"], [["A1"]]), (b,))
    report = global_consistent(db)
    assert report.global_status == "yes" and report.witness == b


def test_global_consistent_auto_cutoff():
    # pairwise-consistent cyclic instance above the 10^6 join-support cutoff
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    diag = Bag(("A", "B", "C"), {(str(i), str(i), str(i)): 1
                                 for i in range(101)})
    db = BagDatabase(h, tuple(diag.marginal(sorted(e)) for e in h.edges))
    report = global_consistent(db, mode="auto")
    assert report.pairwise_ok
    assert report.global_status == "unknown-cyclic"
    assert report.witness is None
    # forcing the oracle decides it
    forced = global_consistent(db, mode="oracle")
    assert forced.global_status == "yes"


def test_global_consistent_bad_mode(triangle_relations):
    with pytest.raises(ValueError):
        global_consistent(triangle_relations, mode="bogus")


def test_k_wise_consistency_triangle(triangle_relations):
    assert k_wise_consistent(triangle_relations, 1)
    assert k_wise_consistent(triangle_relations, 2)
    assert not k_wise_consistent(triangle_relations, 3)
    with pytest.raises(ValueError):
        k_wise_consistent(triangle_relations, 4)


def test_tseitin_c3(triangle_relations):
    db = tseitin_counterexample(cycle_hypergraph(3))
    assert sorted(db.bags[0].entries) == [("0", "0"), ("1", "1")]
    assert sorted(db.bags[2].entries) == [("0", "1"), ("1", "0")]
    assert not inconsistent_pairs(db)
    assert solve_feasibility(db) is None


def test_tseitin_h4_support_counts():
    db = tseitin_counterexample(clique_complement_hypergraph(4))
    assert all(len(b) == 9 for b in db.bags)  # d^(k-1) = 3^2


def test_tseitin_rejects_irregular():
    with pytest.raises(Exception):
        tseitin_counterexample(path_hypergraph(4))


def test_relational_vs_bag_consistency():
    # support join witnesses relational but not bag consistency (n = 3)
    r, s = witness_family(3)
    db = pair_database(r, s)
    joined = r.support().join(s.support())
    assert not check_witness(joined, db)


def test_lift_collection_identity(triangle_relations):
    lifted = lift_collection(triangle_relations,
                             triangle_relations.hypergraph, [])
    assert lifted == triangle_relations


def test_lift_collection_round_trip():
    # cyclic 4-vertex H reduces to a triangle; lift the counterexample back
    h = Hypergraph(["A", "B", "C", "D"],
                   [["A", "B"], ["B", "C"], ["A", "C"], ["C", "D"]])
    bad = find_bad_witness(h)
    assert bad is not None and bad.w == {"A", "B", "C"}
    from bagconsist import replay_ops
    reduced = replay_ops(h, bad.ops)
    tri = tseitin_counterexample(cycle_hypergraph(3))
    # rebuild the triangle database over the reduced hypergraph's edges:
    # A -> A1, B -> A2, C -> A3 (both schemas sorted, rows align by position)
    by_edge = {frozenset(b.schema): b for b in tri.bags}
    mapping = {"A": "A1", "B": "A2", "C": "A3"}
    d0_bags = []
    for e in reduced.edges:
        src = by_edge[frozenset(mapping[v] for v in e)]
        d0_bags.append(Bag(tuple(sorted(e)), src.entries))
    d0 = BagDatabase(reduced, tuple(d0_bags))
    assert solve_feasibility(d0) is None
    lifted = lift_collection(d0, h, bad.ops)
    assert lifted.hypergraph == h
    assert not inconsistent_pairs(lifted)
    assert solve_feasibility(lifted) is None


def test_lift_collection_bad_ops(triangle_relations):
    with pytest.raises(DatabaseError):
        lift_collection(triangle_relations, path_hypergraph(3), [])


def test_cycle_hardness_lift_preserves_verdict():
    db = tseitin_counterexample(cycle_hypergraph(3))
    c4 = cycle_hardness_lift(db)
    assert c4.hypergraph == cycle_hypergraph(4)
    assert solve_feasibility(c4) is None
    c5 = cycle_hardness_lift(c4)
    assert solve_feasibility(c5) is None
    cons = BagDatabase(cycle_hypergraph(3), tuple(
        Bag(tuple(sorted(e)), {("0", "0"): 2}) for e in cycle_hypergraph(3).edges))
    assert solve_feasibility(cons) is not None
    assert solve_feasibility(cycle_hardness_lift(cons)) is not None


def test_cycle_hardness_lift_empty_bags():
    empty = BagDatabase(cycle_hypergraph(3), tuple(
        Bag(tuple(sorted(e)), {}) for e in cycle_hypergraph(3).edges))
    lifted = cycle_hardness_lift(empty)
    assert all(len(b) == 0 for b in lifted.bags)
    assert solve_feasibility(lifted) is not None


def test_clique_hardness_lift_preserves_verdict():
    h3 = clique_complement_hypergraph(3)
    db = tseitin_counterexample(h3)
    h4db = clique_hardness_lift(db)
    assert h4db.hypergraph == clique_complement_hypergraph(4)
    assert solve_feasibility(h4db) is None
    cons = BagDatabase(h3, tuple(
        Bag(tuple(sorted(e)), {("0", "0"): 1}) for e in h3.edges))
    assert solve_feasibility(cons) is not None
    assert solve_feasibility(clique_hardness_lift(cons)) is not None


def test_clique_lift_formula():
    # full grids at constant multiplicity M: S_i(t,2) = M*(D_i - 1)
    h3 = clique_complement_hypergraph(3)
    m = 2
    bags = tuple(Bag(tuple(sorted(e)),
                     {(a, b): m for a in "01" for b in "01"})
                 for e in h3.edges)
    db = BagDatabase(h3, bags)
    lifted = clique_hardness_lift(db)
    for bag in lifted.bags[:-1]:
        pos = bag.schema.index("A4")
        for row, mult in bag.entries.items():
            assert mult == (m if row[pos] == "1" else m * (2 - 1))
    assert all(mult == m for mult in lifted.bags[-1].entries.values())


def test_cycle_lift_wrong_shape(triangle_relations):
    with pytest.raises(DatabaseError):
        cycle_hardness_lift(triangle_relations)  # attrs not A1..A3
    with pytest.raises(DatabaseError):
        clique_hardness_lift(triangle_relations)


def test_encode_3dct():
    db = encode_3dct([[5]], [[5]], [[5]])
    w = solve_feasibility(db)
    assert w is not None and w.entries == {("1", "1", "1"): 5}
    empty = encode_3dct([[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert solve_feasibility(empty) is not None
    # triangle-relations margins are infeasible
    bad = encode_3dct([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert solve_feasibility(bad) is None
    with pytest.raises(ValueError):
        encode_3dct([[1, 2]], [[1]], [[1]])
    with pytest.raises(ValueError):
        encode_3dct([[-1]], [[1]], [[1]])
