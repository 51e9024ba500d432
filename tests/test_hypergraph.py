import random

import pytest

from bagconsist import Hypergraph, HypergraphError, SafeDeletionOp, apply_safe_deletion, find_bad_witness, replay_ops
from bagconsist.hypergraph import (
    COVERED_EDGE_DELETION,
    SHAPE_CLIQUE_COMPLEMENT,
    SHAPE_CYCLE,
    VERTEX_DELETION,
    clique_complement_hypergraph,
    cycle_hypergraph,
    path_hypergraph,
)

from conftest import random_hypergraph


def test_constructor_validates():
    with pytest.raises(HypergraphError):
        Hypergraph(["A"], [[]])
    with pytest.raises(HypergraphError):
        Hypergraph(["A"], [["B"]])
    # a vertex in no edge made is_acyclic() and is_conformal() disagree,
    # and find_bad_witness crash
    with pytest.raises(HypergraphError):
        Hypergraph(["A", "B", "C"], [["A", "B"]])
    with pytest.raises(HypergraphError):
        Hypergraph(["A"], [])
    assert Hypergraph([], []).is_acyclic()
    h = Hypergraph(["B", "A"], [["A", "B"], ["A", "B"]])
    assert h.vertices == ("A", "B")
    assert len(h.edges) == 2  # duplicates allowed


def test_generators():
    p = path_hypergraph(3)
    assert [sorted(e) for e in p.edges] == [["A1", "A2"], ["A2", "A3"]]
    c = cycle_hypergraph(3)
    assert [sorted(e) for e in c.edges] == [["A1", "A2"], ["A2", "A3"],
                                            ["A1", "A3"]]
    k = clique_complement_hypergraph(4)
    assert all(len(e) == 3 for e in k.edges)
    assert "A%d" % 1 not in k.edges[0]


def test_paper_classifications():
    for n in range(2, 9):
        assert path_hypergraph(n).is_acyclic()
    for n in range(3, 9):
        assert not cycle_hypergraph(n).is_acyclic()
        assert not clique_complement_hypergraph(n).is_acyclic()
    # C_3: chordal but not conformal; C_{n>=4}: conformal but not chordal
    assert cycle_hypergraph(3).is_chordal()
    assert not cycle_hypergraph(3).is_conformal()
    for n in range(4, 9):
        assert cycle_hypergraph(n).is_conformal()
        assert not cycle_hypergraph(n).is_chordal()
        assert clique_complement_hypergraph(n).is_chordal()
        assert not clique_complement_hypergraph(n).is_conformal()


def test_single_edge_is_acyclic_and_conformal():
    h = Hypergraph(["A1", "A2", "A3"], [["A1", "A2", "A3"]])
    assert h.is_acyclic() and h.is_chordal() and h.is_conformal()


def test_equivalence_on_random_hypergraphs():
    rng = random.Random(4242)
    for _ in range(200):
        h = random_hypergraph(rng)
        acyclic = h.is_acyclic()
        assert acyclic == (h.is_chordal() and h.is_conformal())
        assert acyclic == (h.join_tree() is not None)
        assert acyclic == (h.running_intersection_order() is not None)


def test_join_tree_validity():
    rng = random.Random(99)
    seen = 0
    for _ in range(200):
        h = random_hypergraph(rng)
        tree = h.join_tree()
        if tree is not None:
            assert tree.is_valid()
            seen += 1
    assert seen > 20


def test_running_intersection_order_property():
    rng = random.Random(7)
    for _ in range(200):
        h = random_hypergraph(rng)
        order = h.running_intersection_order()
        if order is None:
            continue
        assert sorted(i for i, _ in order) == list(range(len(h.edges)))
        placed = []
        for pos, (idx, wit) in enumerate(order):
            prior = set().union(*[h.edges[j] for j in placed]) if placed else set()
            overlap = h.edges[idx] & prior
            if pos == 0:
                assert wit is None
            else:
                assert wit is not None and wit < pos
                assert overlap <= h.edges[order[wit][0]]
            placed.append(idx)


def test_safe_deletion_ops():
    h = cycle_hypergraph(3)
    h2 = apply_safe_deletion(h, SafeDeletionOp(VERTEX_DELETION, vertex="A3"))
    assert h2.vertices == ("A1", "A2")
    e = frozenset(["A1", "A2"])
    h3 = apply_safe_deletion(
        h2, SafeDeletionOp(COVERED_EDGE_DELETION, edge=frozenset(["A1"]),
                           cover=e))
    assert h3 is not None
    with pytest.raises(HypergraphError):
        SafeDeletionOp(COVERED_EDGE_DELETION, edge=frozenset(["A1", "A3"]),
                       cover=frozenset(["A1"]))


def test_find_bad_witness_shapes():
    assert find_bad_witness(path_hypergraph(6)) is None
    for n in range(4, 8):
        bad = find_bad_witness(cycle_hypergraph(n))
        assert bad is not None and bad.shape == SHAPE_CYCLE
        assert len(bad.w) >= 4
    for n in range(4, 7):
        bad = find_bad_witness(clique_complement_hypergraph(n))
        assert bad is not None and bad.shape == SHAPE_CLIQUE_COMPLEMENT
        assert len(bad.w) >= 3
    # triangles report clique-complement (C_3 = H_3 preference)
    bad = find_bad_witness(cycle_hypergraph(3))
    assert bad is not None and bad.shape == SHAPE_CLIQUE_COMPLEMENT


def test_find_bad_witness_ops_replay():
    rng = random.Random(31337)
    checked = 0
    for _ in range(300):
        h = random_hypergraph(rng)
        bad = find_bad_witness(h)
        assert (bad is None) == h.is_acyclic()
        if bad is None:
            continue
        reduced = replay_ops(h, bad.ops).reduce()
        n = len(bad.w)
        assert set(reduced.vertices) == bad.w
        edges = {frozenset(e) for e in reduced.edges}
        assert len(edges) == len(reduced.edges) == n
        degree = {v: sum(v in e for e in edges) for v in reduced.vertices}
        if bad.shape == SHAPE_CYCLE:
            # n distinct binary edges, every vertex in exactly two of them
            assert all(len(e) == 2 for e in edges)
            assert all(d == 2 for d in degree.values())
        else:
            # n distinct (n-1)-edges: each vertex missed by exactly one
            assert all(len(e) == n - 1 for e in edges)
            assert all(d == n - 1 for d in degree.values())
        checked += 1
    assert checked > 30


def test_hypergraph_json_round_trip():
    h = cycle_hypergraph(4)
    assert Hypergraph.from_json_dict(h.to_json_dict()) == h
    with pytest.raises(HypergraphError):
        Hypergraph.from_json_dict({"vertices": ["A"]})
