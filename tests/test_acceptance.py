"""The acceptance gate: one test per criterion.

A summary hook in conftest.py prints one PASS/FAIL line per criterion at
the end of the run.
"""
import itertools
import math
import random
import time

import pytest

from bagconsist import (
    EXHAUSTED,
    Bag,
    BagDatabase,
    Hypergraph,
    acyclic_global_witness,
    check_witness,
    clique_hardness_lift,
    cycle_hardness_lift,
    enumerate_witnesses,
    minimal_two_bag_witness,
    pairwise_consistent,
    solve_feasibility,
    tseitin_counterexample,
    two_bag_witness,
    verify_bounds,
)
from bagconsist.hypergraph import clique_complement_hypergraph, cycle_hypergraph, path_hypergraph

from conftest import (
    assert_flow_minimal,
    pair_database,
    random_acyclic_database,
    random_hypergraph,
    witness_family,
)

CRITERIA = {
    1: "two-bag paper example: 2 witnesses, minimal support 2",
    2: "witness-count family: exactly 2^(n-1) incomparable witnesses",
    3: "triangle separation: pairwise consistent, globally inconsistent",
    4: "acyclicity equivalence suite over random hypergraphs",
    5: "local-to-global witnesses on random acyclic databases",
    6: "counterexample generator: consistent pairs, inconsistent whole",
    7: "hardness lifts preserve the oracle verdict",
    8: "binary-size scaling: 128-bit chain witness under 5 s",
    9: "witness-bound suite on every minimal witness produced",
    10: "flow-vs-oracle agreement on random two-bag instances",
}

# minimal witnesses produced while the module runs, checked by criterion 9
_MINIMAL_WITNESSES = []


def _note_minimal(db, witness):
    if witness is not None:
        _MINIMAL_WITNESSES.append((db, witness))


def test_criterion_01_two_bag_paper_example(paper_pair):
    start = time.monotonic()
    r, s = paper_pair
    db = pair_database(r, s)
    witnesses = enumerate_witnesses(db)
    t1 = Bag(("A", "B", "C"), {("1", "2", "2"): 1, ("2", "2", "1"): 1})
    t2 = Bag(("A", "B", "C"), {("1", "2", "1"): 1, ("2", "2", "2"): 1})
    assert set(witnesses) == {t1, t2}
    w = minimal_two_bag_witness(r, s)
    assert len(w) == 2
    _note_minimal(db, w)
    assert time.monotonic() - start < 1.0


def test_criterion_02_witness_count_family():
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        r, s = witness_family(n)
        db = pair_database(r, s)
        witnesses = enumerate_witnesses(db)
        assert len(witnesses) == 2 ** (n - 1)
        assert len(set(witnesses)) == len(witnesses)
        for a, b in itertools.permutations(witnesses, 2):
            assert not a.contained_in(b)
        join_support = set(r.join(s).support().entries)
        for w in witnesses:
            assert set(w.support().entries) < join_support
        _note_minimal(db, minimal_two_bag_witness(r, s))
    assert time.monotonic() - start < 10.0


def test_criterion_03_triangle_separation(triangle_relations):
    start = time.monotonic()
    for i, j in itertools.combinations(range(3), 2):
        assert pairwise_consistent(triangle_relations.bags[i],
                                   triangle_relations.bags[j])
    assert solve_feasibility(triangle_relations) is None
    assert time.monotonic() - start < 1.0


def test_criterion_04_acyclicity_equivalence_suite():
    start = time.monotonic()
    rng = random.Random(0xACCE9)
    for _ in range(500):
        h = random_hypergraph(rng, max_vertices=8, max_edges=8)
        acyclic = h.is_acyclic()
        assert acyclic == (h.is_chordal() and h.is_conformal())
        assert acyclic == (h.join_tree() is not None)
        assert acyclic == (h.running_intersection_order() is not None)
    for n in range(2, 9):
        assert path_hypergraph(n).is_acyclic()
    for n in range(3, 9):
        assert not cycle_hypergraph(n).is_acyclic()
        assert not clique_complement_hypergraph(n).is_acyclic()
    assert cycle_hypergraph(3).is_chordal()
    assert not cycle_hypergraph(3).is_conformal()
    for n in range(4, 9):
        assert cycle_hypergraph(n).is_conformal()
        assert not cycle_hypergraph(n).is_chordal()
        assert clique_complement_hypergraph(n).is_chordal()
        assert not clique_complement_hypergraph(n).is_conformal()
    assert time.monotonic() - start < 30.0


def test_criterion_05_local_to_global_acyclic():
    start = time.monotonic()
    rng = random.Random(0x10CA1)
    for _ in range(200):
        db = random_acyclic_database(rng, max_edges=5, max_edge_size=4,
                                     max_mult=8)
        w = acyclic_global_witness(db)
        assert w is not None
        assert check_witness(w, db)
        assert len(w) <= sum(len(bag) for bag in db.bags)
        _note_minimal(db, w)
    assert time.monotonic() - start < 60.0


def test_criterion_06_counterexample_generator():
    start = time.monotonic()
    shapes = [cycle_hypergraph(n) for n in range(3, 7)]
    shapes += [clique_complement_hypergraph(n) for n in (3, 4)]
    for h in shapes:
        db = tseitin_counterexample(h)
        k = len(h.edges[0])
        d = sum(1 for e in h.edges if next(iter(h.vertices)) in e)
        for i, j in itertools.combinations(range(len(db.bags)), 2):
            shared = sorted(set(db.bags[i].schema) & set(db.bags[j].schema))
            constant = d ** (k - len(shared) - 1)
            mi = db.bags[i].marginal(shared)
            mj = db.bags[j].marginal(shared)
            assert mi == mj
            assert all(m == constant for m in mi.entries.values())
        assert solve_feasibility(db) is None
    assert time.monotonic() - start < 60.0


def test_criterion_07_hardness_lifts_preserve_answer():
    start = time.monotonic()
    c3 = cycle_hypergraph(3)
    h3 = clique_complement_hypergraph(3)
    inconsistent_c = tseitin_counterexample(c3)
    inconsistent_h = tseitin_counterexample(h3)
    consistent_c = BagDatabase(c3, tuple(
        Bag(tuple(sorted(e)), {("0", "0"): 2, ("1", "1"): 1})
        for e in c3.edges))
    consistent_h = BagDatabase(h3, tuple(
        Bag(tuple(sorted(e)), {("0", "0"): 2, ("1", "1"): 1})
        for e in h3.edges))
    for seed, expected in ((inconsistent_c, False), (consistent_c, True)):
        assert (solve_feasibility(seed) is not None) == expected
        c4 = cycle_hardness_lift(seed)
        assert (solve_feasibility(c4) is not None) == expected
        c5 = cycle_hardness_lift(c4)
        assert (solve_feasibility(c5) is not None) == expected
    for seed, expected in ((inconsistent_h, False), (consistent_h, True)):
        assert (solve_feasibility(seed) is not None) == expected
        h4 = clique_hardness_lift(seed)
        assert (solve_feasibility(h4) is not None) == expected
    assert time.monotonic() - start < 60.0


def test_criterion_08_binary_size_scaling():
    start = time.monotonic()
    n = 64
    h = path_hypergraph(n)
    mult = 2 ** n
    bags = tuple(
        Bag(tuple(sorted(e)), {(a, b): mult for a in "01" for b in "01"})
        for e in h.edges)
    db = BagDatabase(h, bags)
    w = acyclic_global_witness(db)
    elapsed = time.monotonic() - start
    assert w is not None
    assert check_witness(w, db)
    assert len(w) <= 4 * (n - 1)
    assert w.norms().multiplicity_bound <= 2 ** 64
    _note_minimal(db, w)
    assert elapsed < 5.0


def test_criterion_09_witness_bound_suite():
    if not _MINIMAL_WITNESSES:  # self-sufficient when run in isolation
        rng = random.Random(0xB009D)
        while len(_MINIMAL_WITNESSES) < 50:
            r = _random_bag(rng, ("A", "B"))
            s = _random_bag(rng, ("B", "C"))
            w = minimal_two_bag_witness(r, s)
            if w is not None:
                _note_minimal(pair_database(r, s), w)
    assert _MINIMAL_WITNESSES
    for db, w in _MINIMAL_WITNESSES:
        report = verify_bounds(db, w)
        assert report.mult_bound_ok
        assert report.unary_ok
        assert report.binary_ok  # 1e-9 relative tolerance inside the report
        if len(db.bags) == 2:
            r, s = db.bags
            assert len(w) <= len(r) + len(s)
            assert_flow_minimal(r, s, w)


def test_criterion_10_flow_vs_oracle_agreement():
    start = time.monotonic()
    rng = random.Random(0xF10A)
    attrs = ["A", "B", "C", "D"]
    for trial in range(500):
        x = tuple(sorted(rng.sample(attrs, rng.randint(1, 3))))
        y = tuple(sorted(rng.sample(attrs, rng.randint(1, 3))))
        r = _random_bag(rng, x)
        s = _random_bag(rng, y)
        if trial % 2 == 0 and set(x) == set(y):
            s = r  # force plenty of consistent same-schema cases
        db = pair_database(r, s)
        via_flow = two_bag_witness(r, s) is not None
        assert (minimal_two_bag_witness(r, s) is not None) == via_flow
        oracle_result = solve_feasibility(db)
        assert oracle_result is not EXHAUSTED
        via_oracle = oracle_result is not None
        shared = sorted(set(x) & set(y))
        via_marginals = r.marginal(shared) == s.marginal(shared)
        assert via_flow == via_oracle == via_marginals
        if via_flow:
            _note_minimal(db, minimal_two_bag_witness(r, s))
    assert time.monotonic() - start < 60.0


def _random_bag(rng, schema):
    entries = {}
    for _ in range(rng.randint(0, 6)):
        row = tuple(str(rng.randint(0, 2)) for _ in schema)
        entries[row] = rng.randint(1, 10)
    return Bag(schema, entries)
