"""Relations every answer of ``global_consistent`` must keep, checked
without a second decider.

- Renaming: renaming the attributes, relabelling each attribute's values
  and reordering the edges with their bags keeps the answer and maps the
  inconsistent pairs across; a witness of the renamed database, renamed
  back, is a witness of the original.
- Scaling: a witness W of B makes kW a witness of kB, so YES on B implies
  YES on kB and NO on kB implies NO on B. The converses fail in general:
  witnesses must be integral.
- Ears: an edge whose bag is a marginal of an existing bag keeps the
  answer.

Relabelling changes the oracle's tie-breaks, so only decided answers are
compared, under a node budget, and the pairs with an undecided side are
counted.
"""
import random

import pytest

from bagconsist import (
    Bag,
    BagDatabase,
    Hypergraph,
    OracleBudget,
    check_witness,
    global_consistent,
    inconsistent_pairs,
    tseitin_counterexample,
)
from bagconsist.consistency import GLOBAL_NO, GLOBAL_UNKNOWN, GLOBAL_YES
from bagconsist.hypergraph import clique_complement_hypergraph, cycle_hypergraph

from conftest import (
    cyclic_variants,
    database_of,
    random_acyclic_schema,
    random_global_bag,
    random_hypergraph,
)

BUDGET = OracleBudget(max_nodes=20_000)


def _moved(rng, db):
    """``db`` with one unit of one bag moved to another row, whose cells
    are drawn from 0, 1 and 2."""
    i = rng.choice([k for k, bag in enumerate(db.bags) if bag])
    bag = db.bags[i]
    entries = dict(bag.entries)
    source = rng.choice(sorted(entries))
    entries[source] -= 1
    if not entries[source]:
        del entries[source]
    row = tuple(str(rng.randint(0, 2)) for _ in bag.schema)
    entries[row] = entries.get(row, 0) + 1
    return BagDatabase(db.hypergraph, db.bags[:i] + (Bag(bag.schema, entries),)
                       + db.bags[i + 1:])


def _databases():
    """Marginals of random global bags over random hypergraphs and over
    tree schemas with a chord or a hung triangle, and the Tseitin
    databases over C_3, C_4 and H_4; each also with one unit moved."""
    rng = random.Random(0x17)
    out = [tseitin_counterexample(h) for h in (
        cycle_hypergraph(3), cycle_hypergraph(4), cycle_hypergraph(5),
        cycle_hypergraph(6), clique_complement_hypergraph(4),
        clique_complement_hypergraph(5))]
    for _ in range(200):
        h = random_hypergraph(rng, max_vertices=6, max_edges=6)
        edges = [sorted(e) for e in h.edges]
        out.append(database_of(edges, random_global_bag(
            rng, h.vertices, rng.randint(1, 6), max_mult=4)))
    for _ in range(100):
        tree = random_acyclic_schema(rng, rng.randint(3, 8))
        for edges in cyclic_variants(rng, tree):
            if edges is not None:
                out.append(database_of(edges, random_global_bag(
                    rng, {v for e in edges for v in e}, rng.randint(1, 6),
                    max_mult=4)))
    return out + [_moved(rng, db) for db in out if any(db.bags)]


def _renamed(bag, names, labels):
    """``bag`` with each attribute a named ``names[a]`` and its values
    relabelled by ``labels[a]``, each row permuted into the new sorted
    schema."""
    new = [names[a] for a in bag.schema]
    order = sorted(range(len(new)), key=new.__getitem__)
    return Bag([new[k] for k in order], {
        tuple(labels[bag.schema[k]][row[k]] for k in order): mult
        for row, mult in bag.entries.items()})


def _relabelling(rng, db):
    """A random renaming of ``db``: (the renamed database, the new position
    of each edge, the attribute names, the value labels)."""
    vertices = db.hypergraph.vertices
    names = dict(zip(vertices, ("N%03d" % k for k in
                                rng.sample(range(1000), len(vertices)))))
    labels = {}
    for a in vertices:
        values = sorted({row[bag.schema.index(a)] for bag in db.bags
                         if a in bag.schema for row in bag.entries})
        labels[a] = dict(zip(values, ("v%03d" % k for k in
                                      rng.sample(range(1000), len(values)))))
    order = rng.sample(range(len(db.bags)), len(db.bags))
    bags = [_renamed(db.bags[i], names, labels) for i in order]
    renamed = BagDatabase(
        Hypergraph(names.values(), [bag.schema for bag in bags]), bags)
    return renamed, {i: k for k, i in enumerate(order)}, names, labels


def _inverse(names, labels):
    back = {new: old for old, new in names.items()}
    return back, {names[a]: {new: old for old, new in lab.items()}
                  for a, lab in labels.items()}


def _scaled(bag, k):
    return Bag(bag.schema, {row: k * mult for row, mult in bag.entries.items()})


def _tally(counts, first, second):
    """Count the pair of answers; True iff both are decided."""
    decided = GLOBAL_UNKNOWN not in (first, second)
    counts["decided" if decided else "undecided"] += 1
    return decided


def _assert_enough(counts, answers):
    """Most pairs decided, and both answers seen often."""
    assert counts["undecided"] <= counts["decided"] // 20
    assert answers[GLOBAL_YES] >= 100 and answers[GLOBAL_NO] >= 100


@pytest.fixture(scope="module")
def cases():
    """Each database with its answer under ``BUDGET``."""
    return [(db, global_consistent(db, BUDGET)) for db in _databases()]


def test_renaming_keeps_answers_pairs_and_witnesses(cases):
    rng = random.Random(0x17A)
    counts = {"decided": 0, "undecided": 0}
    seen = {GLOBAL_YES: 0, GLOBAL_NO: 0}
    for db, report in cases:
        pairs = inconsistent_pairs(db)
        for _ in range(2):
            renamed, at, names, labels = _relabelling(rng, db)
            got = global_consistent(renamed, BUDGET)
            assert ({frozenset((at[i], at[j])) for i, j in pairs}
                    == set(map(frozenset, inconsistent_pairs(renamed))))
            if got.witness is not None:
                back, back_labels = _inverse(names, labels)
                assert check_witness(
                    _renamed(got.witness, back, back_labels), db)
            if _tally(counts, report.global_status, got.global_status):
                assert got.global_status == report.global_status
                seen[got.global_status] += 1
    _assert_enough(counts, seen)


@pytest.mark.parametrize("k", [2, 3])
def test_scaling_keeps_yes_upward_and_no_downward(cases, k):
    counts = {"decided": 0, "undecided": 0}
    seen = {GLOBAL_YES: 0, GLOBAL_NO: 0}
    for db, report in cases:
        scaled = BagDatabase(db.hypergraph,
                             [_scaled(bag, k) for bag in db.bags])
        if report.witness is not None:
            assert check_witness(_scaled(report.witness, k), scaled)
        got = global_consistent(scaled, BUDGET)
        if _tally(counts, report.global_status, got.global_status):
            # yes on B gives yes on kB; no on kB gives no on B
            assert (report.global_status, got.global_status) != (
                GLOBAL_YES, GLOBAL_NO)
            seen[got.global_status] += 1
    _assert_enough(counts, seen)


def test_a_marginal_ear_keeps_the_answer(cases):
    rng = random.Random(0x17E)
    counts = {"decided": 0, "undecided": 0}
    seen = {GLOBAL_YES: 0, GLOBAL_NO: 0}
    for db, report in cases:
        host = rng.choice(db.bags)
        ear = host.marginal(rng.sample(host.schema,
                                       rng.randint(1, len(host.schema))))
        at = rng.randint(0, len(db.bags))
        bags = db.bags[:at] + (ear,) + db.bags[at:]
        eared = BagDatabase(
            Hypergraph(db.hypergraph.vertices, [bag.schema for bag in bags]),
            bags)
        got = global_consistent(eared, BUDGET)
        if _tally(counts, report.global_status, got.global_status):
            assert got.global_status == report.global_status
            seen[got.global_status] += 1
    _assert_enough(counts, seen)
