import gc
import hashlib
import itertools
import random
import time

import pytest

from bagconsist import (
    EXHAUSTED,
    Bag,
    BagDatabase,
    DatabaseError,
    Hypergraph,
    HypergraphError,
    OracleBudget,
    check_witness,
    clique_hardness_lift,
    cycle_hardness_lift,
    encode_3dct,
    enumerate_witnesses,
    find_bad_witness,
    global_consistent,
    inconsistent_pairs,
    lift_collection,
    minimal_two_bag_witness,
    pairwise_consistent,
    solve_feasibility,
    tseitin_counterexample,
)
from bagconsist import consistency, hypergraph
from bagconsist.hypergraph import (
    COVERED_EDGE_DELETION,
    _peel,
    clique_complement_hypergraph,
    cycle_hypergraph,
)

from conftest import (
    cyclic_variants,
    database_of,
    pair_database,
    path_hypergraph,
    random_acyclic_database,
    random_acyclic_schema,
    random_global_bag,
    random_hypergraph,
    replay_ops,
    witness_family,
)
from reference import (
    reference_find_bad_witness,
    reference_lift,
    reference_northwest_glue,
    reference_replay_ops,
    two_bag_witness,
)


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
    w = global_consistent(db).witness
    assert w is not None
    assert check_witness(w, db)
    assert len(w) <= sum(len(b) for b in bags)


def test_acyclic_global_witness_none_on_inconsistent():
    h = path_hypergraph(3)
    db = BagDatabase(h, (Bag(("A1", "A2"), {("0", "0"): 1}),
                         Bag(("A2", "A3"), {("1", "1"): 1})))
    assert global_consistent(db).witness is None


def test_global_consistent_acyclic(rng):
    for _ in range(40):
        db = random_acyclic_database(rng)
        report = global_consistent(db)
        assert report.pairwise_ok
        assert report.global_status == "yes"
        assert check_witness(report.witness, db)


def test_global_consistent_classifies_once_and_memoises_marginals(monkeypatch):
    """One peel per hypergraph, and no (bag, shared set) marginal summed
    twice, on the yes and on the no path: every marginal the deciders
    compare is a plain dict from the one summing routine, and no
    ``Bag.marginal`` call is made. The no reuses the yes's hypergraph, so
    it peels no more."""
    rng = random.Random(0x40)
    edges = random_acyclic_schema(rng, 40)
    db = database_of(edges, random_global_bag(
        rng, {v for e in edges for v in e}, 12))
    trees = []
    peel = hypergraph._peel

    def counting_peel(edges):
        trees.append(edges)
        return peel(edges)

    computed = []
    derived = []
    summed = consistency._summed

    def recording_summed(positions, entries):
        i = index.get(id(entries))
        if i is None:
            derived.append(tuple(positions))
        else:
            schema = bags[i].schema
            computed.append((i, frozenset(schema[k] for k in positions)))
        return summed(positions, entries)

    marginal_calls = []
    marginal = Bag.marginal

    def counting_marginal(self, attrs):
        marginal_calls.append(attrs)
        return marginal(self, attrs)

    def decide(database):
        monkeypatch.setattr(hypergraph, "_peel", counting_peel)
        monkeypatch.setattr(consistency, "_summed", recording_summed)
        monkeypatch.setattr(Bag, "marginal", counting_marginal)
        try:
            return global_consistent(database)
        finally:
            monkeypatch.undo()

    bags = db.bags
    index = {id(bag.entries): i for i, bag in enumerate(bags)}
    report = decide(db)
    assert report.global_status == "yes"
    assert check_witness(report.witness, db)
    assert len(trees) == 1
    assert computed and len(computed) == len(set(computed))
    # the table sums only the database's own bags; the exact check sums
    # the witness's rows outside it, and no Bag.marginal runs
    assert derived == [] and marginal_calls == []
    # a no is classified once, lists the same pairs as the full pass, and
    # computes no (bag, shared set) marginal twice: the pair pass reuses
    # the ears' marginals
    first = db.bags[0]
    row = min(first.entries)
    bumped = Bag(first.schema, {**first.entries, row: first.entries[row] + 1})
    perturbed = BagDatabase(db.hypergraph, (bumped,) + db.bags[1:])
    expected = tuple(inconsistent_pairs(perturbed))
    bags = perturbed.bags
    index = {id(bag.entries): i for i, bag in enumerate(bags)}
    trees.clear()
    computed.clear()
    report = decide(perturbed)
    assert report.global_status == "no" and report.witness is None
    assert expected and report.inconsistent_pairs == expected
    assert trees == []
    assert computed and len(computed) == len(set(computed))
    assert derived == [] and marginal_calls == []


def test_chained_witness_within_bound():
    """Chained witnesses pass the exact check and keep at most
    sum |supp B_i| - (m - 1) rows, on wide shuffled schemas and on small
    random ones."""
    rng = random.Random(0xC4A1)
    dbs = []
    for num_edges in (30, 45, 60, 75, 90):
        edges = random_acyclic_schema(rng, num_edges)
        dbs.append(database_of(edges, random_global_bag(
            rng, {v for e in edges for v in e}, 10)))
    dbs += [random_acyclic_database(rng) for _ in range(200)]
    for db in dbs:
        # consistent bags are all empty or all non-empty
        bound = max(0, sum(len(bag) for bag in db.bags) - (len(db.bags) - 1))
        w = global_consistent(db).witness
        assert check_witness(w, db)
        assert len(w) <= bound


def test_chained_witness_rechecked(monkeypatch):
    """A chained yes goes out only after the exact witness check."""
    db = pair_database(Bag(("A", "B"), {("0", "0"): 1, ("1", "0"): 1}),
                       Bag(("B", "C"), {("0", "0"): 1, ("0", "1"): 1}))
    assert check_witness(global_consistent(db).witness, db)
    wrong = Bag(("A", "B", "C"), {("0", "0", "0"): 2})
    monkeypatch.setattr(consistency, "_northwest_glue", lambda bags: wrong)
    with pytest.raises(AssertionError):
        global_consistent(db)


def test_glue_matches_reference(monkeypatch):
    """The glue builds the reference glue's witness, entries in the same
    order, on every collection ``global_consistent`` hands it: random
    acyclic databases whose cells split, ones with an empty overlap (a new
    component) or with empty bags, and cyclic variants of them, whose ears
    glue onto the oracle's witness."""
    glue, calls = consistency._northwest_glue, []

    def recorded(bags):
        calls.append((bags, glue(bags)))
        return calls[-1][1]

    monkeypatch.setattr(consistency, "_northwest_glue", recorded)
    rng = random.Random(0x61BE)
    seen = {"split": 0, "new component": 0, "empty": 0, "oracle core": 0}
    for n in range(300):
        # a chord needs two attributes at distance three: longer schemas
        cyclic = n % 3 == 0
        edges = random_acyclic_schema(rng, rng.randint(20, 30) if cyclic
                                      else rng.randint(2, 7))
        rows = 0 if n % 10 == 0 else rng.randint(1, 10)
        g = random_global_bag(rng, {v for e in edges for v in e} | {"T"},
                              rows, max_mult=4)
        variants = cyclic_variants(rng, edges) if cyclic else ()
        for k, schema in enumerate([edges, *variants]):
            del calls[:]
            report = global_consistent(database_of(schema, g))
            assert report.global_status == "yes"
            for bags, witness in calls:
                expected = reference_northwest_glue(bags)
                assert witness.schema == expected.schema
                assert witness.entries == expected.entries
                assert list(witness.entries) == list(expected.entries)
                seen["split"] += len(witness) > len(bags[0])
                seen["empty"] += not witness
                seen["oracle core"] += k > 0
                union = set(bags[0].schema)
                for bag in bags[1:]:
                    seen["new component"] += union.isdisjoint(bag.schema)
                    union.update(bag.schema)
    assert min(seen.values()) >= 20, seen


_GLUED_WITNESS_DIGEST = ("cc1cc6ee52b5b46830f67c418d448b85"
                         "82e5b545ac358f01cf5fa082077751ef")


def test_glued_witness_pinned():
    """The witness glued on one seeded 12-edge acyclic database, as a
    digest of its sorted rows. Its cells split (53 rows, against at most
    20 in a bag), so a glue that pairs the masses another way changes it."""
    rng = random.Random(0x6105)
    edges = random_acyclic_schema(rng, 12)
    db = database_of(edges, random_global_bag(
        rng, {v for e in edges for v in e}, 30, max_mult=6))
    w = global_consistent(db).witness
    assert len(w) > max(map(len, db.bags))
    digest = hashlib.sha256(repr(sorted(w.entries.items())).encode())
    assert digest.hexdigest() == _GLUED_WITNESS_DIGEST


def test_glue_is_near_linear():
    """A 20,000-edge chain of 9-row bags answers yes in well under 5 s: a
    row's last cell extends it in place, so no row is copied at its full
    width at every step (the witness has 9 rows over 20,001 attributes;
    copying every row at every step took 6.8 s on a 2-vCPU Xeon VM, and
    the glue that extends rows in place 0.8 s)."""
    m = 20_000
    names = ["X%d" % i for i in range(m + 1)]
    full = {(a, b): 1 for a in "012" for b in "012"}
    db = BagDatabase(Hypergraph(names, [names[i:i + 2] for i in range(m)]),
                     tuple(Bag(names[i:i + 2], full) for i in range(m)))
    start = time.monotonic()
    report = global_consistent(db)
    assert time.monotonic() - start < 5.0
    assert report.global_status == "yes" and len(report.witness) == 9


def _move_one_unit(rng, bag):
    """The bag with one unit of mass moved to a random row: same total
    mass, other marginals."""
    entries = dict(bag.entries)
    if not entries:
        return bag
    row = rng.choice(sorted(entries))
    entries[row] -= 1
    to = tuple(str(rng.randint(0, 2)) for _ in bag.schema)
    entries[to] = entries.get(to, 0) + 1
    return Bag(bag.schema, entries)


def test_inconsistent_pairs_matches_naive_loop():
    rng = random.Random(0x9A1)
    seen = {True: 0, False: 0}
    for _ in range(80):
        h = random_hypergraph(rng)
        db = database_of([sorted(e) for e in h.edges], random_global_bag(
            rng, h.vertices, rng.randint(0, 6)))
        bags = list(db.bags)
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(bags))
            bags[k] = _move_one_unit(rng, bags[k])
        db = BagDatabase(db.hypergraph, tuple(bags))
        naive = []
        for i, j in itertools.combinations(range(len(bags)), 2):
            ok = pairwise_consistent(bags[i], bags[j])
            seen[ok] += 1
            if not ok:
                naive.append((i, j))
            # the witness builder answers None exactly on inconsistent pairs
            assert (minimal_two_bag_witness(bags[i], bags[j]) is None) == (not ok)
        assert inconsistent_pairs(db) == naive
    assert seen[True] > 100 and seen[False] > 100


def _glue_must_not_run(bags):
    raise AssertionError("glued an inconsistent collection")


def test_glue_decides_exactly_when_a_pair_disagrees(monkeypatch):
    """The glue never decides: the join tree's parent links answer no iff
    some pair of bags is inconsistent, before any glue, and
    ``global_consistent`` reports what a check of every pair reports. On a
    no, ``global_consistent`` and ``minimal_two_bag_witness`` on each
    inconsistent pair answer with a glue that raises. Cases: consistent
    databases, ones with one unit added to a bag, and ones with a unit of
    mass moved inside one bag (same totals, so only a shared marginal can
    tell)."""
    rng = random.Random(0x61E)
    moved = {True: 0, False: 0}
    for trial in range(600):
        if trial % 2:
            db = random_acyclic_database(rng)
        else:
            edges = random_acyclic_schema(rng, rng.randint(5, 40))
            db = database_of(edges, random_global_bag(
                rng, {v for e in edges for v in e}, rng.randint(1, 12)))
        bags = list(db.bags)
        k = rng.randrange(len(bags))
        change = trial % 3
        if change == 1:
            # one more unit on a random row, which may be new to the bag
            row = tuple(str(rng.randint(0, 2)) for _ in bags[k].schema)
            entries = bags[k].entries
            bags[k] = Bag(bags[k].schema,
                          {**entries, row: entries.get(row, 0) + 1})
        elif change == 2:
            bags[k] = _move_one_unit(rng, bags[k])
        db = BagDatabase(db.hypergraph, tuple(bags))
        pairs = inconsistent_pairs(db)
        bad = bool(pairs)
        with monkeypatch.context() as patched:
            if bad:
                patched.setattr(consistency, "_northwest_glue",
                                _glue_must_not_run)
            # global lists every pair for a no: the same report as
            # checking every pair first
            report = global_consistent(db)
            for i, j in pairs:
                assert minimal_two_bag_witness(bags[i], bags[j]) is None
        witness, report = report.witness, report.to_json_dict()
        assert (witness is None) == bad
        if witness is not None:
            assert check_witness(witness, db)
        assert report.pop("witness", None) == (
            None if bad else witness.to_json_dict())
        assert report == {
            "pairwise": {"consistent": not pairs,
                         "inconsistent_pairs": [list(p) for p in pairs]},
            "global": "no" if pairs else "yes",
            "oracle_exhausted": False}
        if change == 2:
            moved[bad] += 1
    # moves inside one bag give both answers
    assert moved[True] > 50 and moved[False] > 50


def test_global_consistent_triangle(triangle_relations):
    report = global_consistent(triangle_relations)
    assert report.pairwise_ok
    assert report.global_status == "no"
    assert report.witness is None


def test_global_consistent_single_bag():
    b = Bag(("A1",), {("x",): 3})
    db = BagDatabase(Hypergraph(["A1"], [["A1"]]), (b,))
    report = global_consistent(db)
    assert report.global_status == "yes" and report.witness == b


def test_global_consistent_auto_cutoff():
    """A pairwise-consistent triangle whose bag sizes' product, 101³, is
    above ``max_join_support`` goes to the oracle like any cyclic core: its
    join has 101 rows, and it answers yes with a witness that checks."""
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    diag = Bag(("A", "B", "C"), {(str(i), str(i), str(i)): 1
                                 for i in range(101)})
    db = BagDatabase(h, tuple(diag.marginal(sorted(e)) for e in h.edges))
    report = global_consistent(db)
    assert report.pairwise_ok and report.global_status == "yes"
    assert not report.oracle_exhausted and check_witness(report.witness, db)


def test_auto_cutoff_reads_the_join_support_budget(monkeypatch):
    """``max_join_support`` caps the join itself: the 3-value diagonal
    triangle's join has 3 rows, so at a cap of 3 the oracle decides yes, and
    at 2 the budget is spent, each in one oracle call."""
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    diag = Bag(("A", "B", "C"), {(str(i), str(i), str(i)): 1
                                 for i in range(3)})
    db = BagDatabase(h, tuple(diag.marginal(sorted(e)) for e in h.edges))
    calls = []
    solve = consistency.solve_feasibility

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(consistency, "solve_feasibility", counting_solve)
    fits = global_consistent(db, OracleBudget(max_join_support=3))
    assert fits.global_status == "yes" and check_witness(fits.witness, db)
    assert not fits.oracle_exhausted and len(calls) == 1
    over = global_consistent(db, OracleBudget(max_join_support=2))
    assert over.global_status == "unknown-cyclic" and over.witness is None
    assert over.oracle_exhausted and len(calls) == 2


def _hang_ears(rng, hypergraph, bags, count):
    """``count`` ears hung on the database, each on a random earlier edge:
    part of that edge plus one or two fresh attributes, its bag the host's
    marginal on the part with every row given fresh values (some split in
    two), so each ear agrees with its host and the answer stays the core's."""
    edges, bags = [sorted(e) for e in hypergraph.edges], list(bags)
    for k in range(count):
        host = rng.randrange(len(edges))
        part = sorted(rng.sample(edges[host], rng.randint(0, len(edges[host]))))
        fresh = ["E%d_%d" % (k, f) for f in range(rng.randint(1, 2))]
        schema = sorted(part + fresh)
        entries: dict = {}
        for row, mult in bags[host].marginal(part).entries.items():
            cut = rng.randint(0, mult)
            for share in (cut, mult - cut):
                values = dict(zip(part, row))
                values.update((f, str(rng.randint(0, 1))) for f in fresh)
                key = tuple(values[a] for a in schema)
                if share:
                    entries[key] = entries.get(key, 0) + share
        edges.append(schema)
        bags.append(Bag(schema, entries))
    vertices = {v for e in edges for v in e}
    return BagDatabase(Hypergraph(vertices, edges), tuple(bags))


def _nudged(rng, db):
    """``db`` with one unit added to, or moved within, one bag."""
    i = rng.randrange(len(db.bags))
    bag = db.bags[i]
    entries = dict(bag.entries)
    row = tuple(str(rng.randint(0, 2)) for _ in bag.schema)
    if entries and rng.random() < 0.5:
        source = rng.choice(sorted(entries))
        entries[source] -= 1
        if not entries[source]:
            del entries[source]
    entries[row] = entries.get(row, 0) + 1
    return BagDatabase(db.hypergraph, db.bags[:i] + (Bag(bag.schema, entries),)
                       + db.bags[i + 1:])


def test_decider_matches_oracle_on_cyclic_databases_with_ears():
    """On small cyclic databases with ears hung on their core, consistent
    ones, pairwise-consistent Tseitin ones and ones with a unit added or
    moved, the decider's answer (the oracle on the core only) equals the
    oracle's on the whole database wherever the latter decides, a no lists
    every inconsistent pair, and every witness passes the exact check."""
    rng = random.Random(0xEA25)
    budget = OracleBudget(max_nodes=200_000, max_seconds=5.0)
    seen = {"yes": 0, "no": 0, "no-pairwise-ok": 0}
    cores = [cycle_hypergraph(3), cycle_hypergraph(4),
             clique_complement_hypergraph(4)]
    for n in range(240):
        h = cores[n % 3]
        if n % 2:
            core = tseitin_counterexample(h)
        else:
            core = database_of([sorted(e) for e in h.edges], random_global_bag(
                rng, h.vertices, rng.randint(1, 4), max_mult=3))
        db = _hang_ears(rng, core.hypergraph, core.bags, rng.randint(1, 4))
        for case in (db, _nudged(rng, db)):
            expected = solve_feasibility(case, budget)
            if expected is EXHAUSTED:
                continue
            report = global_consistent(case, budget)
            assert report.global_status == ("no" if expected is None else "yes")
            assert report.inconsistent_pairs == tuple(inconsistent_pairs(case))
            if report.witness is not None:
                assert check_witness(report.witness, case)
            seen[report.global_status if report.global_status == "yes"
                 or report.inconsistent_pairs else "no-pairwise-ok"] += 1
    assert sum(seen.values()) >= 400 and min(seen.values()) >= 50


def test_tree_plus_chord_is_decided():
    """A pairwise-consistent 90-edge tree with a chord goes to the oracle
    on the core its peel leaves, and answers yes with a witness that
    checks."""
    rng = random.Random(0xC0DE)
    chord, _ = cyclic_variants(rng, random_acyclic_schema(rng, 90))
    db = database_of(chord, random_global_bag(
        rng, {v for e in chord for v in e}, 12))
    report = global_consistent(db)
    assert report.pairwise_ok and report.global_status == "yes"
    assert check_witness(report.witness, db)


def test_global_consistent_rechecks_oracle_witness(monkeypatch):
    """A yes from the oracle goes out only after the exact witness check."""
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    full = Bag(("A", "B", "C"), {("0", "0", "0"): 2, ("1", "0", "1"): 1})
    db = BagDatabase(h, tuple(full.marginal(sorted(e)) for e in h.edges))
    assert global_consistent(db).witness == full
    wrong = Bag(("A", "B", "C"), {("0", "0", "0"): 3})
    monkeypatch.setattr(consistency, "solve_feasibility", lambda db, budget: wrong)
    with pytest.raises(AssertionError):
        global_consistent(db)


def test_no_library_call_touches_the_gc(monkeypatch, paper_pair,
                                       triangle_relations):
    """The library leaves the cyclic GC as its caller has it: with the GC
    on, no decider, witness builder, oracle call or lift turns it off or
    on (``cli.run`` is the one place that does)."""
    rng = random.Random(0x6C)
    path = [sorted(e) for e in path_hypergraph(5).edges]
    yes = database_of(path, random_global_bag(rng, path_hypergraph(5).vertices,
                                              40))
    no = _nudged(rng, yes)
    ring = [sorted(e) for e in cycle_hypergraph(4).edges] + [["A1", "X"]]
    cyclic = database_of(ring, random_global_bag(
        rng, {v for e in ring for v in e}, 6))
    # the yes glues three ears onto one bag, the cyclic one an ear onto
    # the oracle's witness of a four-edge core
    assert len(_peel(yes.hypergraph.edges)[0]) == 3
    assert len(_peel(cyclic.hypergraph.edges)[1]) == 4
    target = Hypergraph(["A", "B", "C", "D"],
                        [["A", "B"], ["B", "C"], ["A", "C"], ["C", "D"]])
    bad = find_bad_witness(target)
    reduced = replay_ops(target, bad.ops)
    lowered = database_of([sorted(e) for e in reduced.edges],
                          random_global_bag(rng, reduced.vertices, 5))
    calls = []
    was = gc.isenabled()
    gc.enable()
    try:
        with monkeypatch.context() as m:
            m.setattr(gc, "disable", lambda: calls.append("disable"))
            m.setattr(gc, "enable", lambda: calls.append("enable"))
            assert global_consistent(yes).global_status == "yes"
            assert global_consistent(no).global_status == "no"
            assert global_consistent(cyclic).global_status == "yes"
            assert minimal_two_bag_witness(*paper_pair) is not None
            assert solve_feasibility(triangle_relations) is None
            assert solve_feasibility(cyclic) is not None
            assert len(enumerate_witnesses(pair_database(*paper_pair))) == 2
            lifted = lift_collection(lowered, target, bad.ops)
            assert lifted.hypergraph == target
            assert gc.isenabled()
    finally:
        if not was:
            gc.disable()
    assert calls == []


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
    with pytest.raises(HypergraphError, match=r"^hypergraph is not regular$"):
        tseitin_counterexample(path_hypergraph(4))


@pytest.mark.parametrize("edges, fault", [
    ([], "need at least one hyperedge"),
    ([["A", "B"], ["B", "C", "D"]], "hypergraph is not uniform"),
    # every vertex in one edge: regular, at degree 1
    ([["A", "B"], ["C", "D"]], "regularity degree must be at least 2"),
], ids=["no-edges", "non-uniform", "degree-1"])
def test_tseitin_refuses_other_hypergraphs(edges, fault):
    h = Hypergraph({v for e in edges for v in e}, edges)
    with pytest.raises(HypergraphError) as exc:
        tseitin_counterexample(h)
    assert str(exc.value) == fault


def test_tseitin_row_limit_is_inclusive(monkeypatch):
    """The library counts the rows before it builds one: C_5 has 10 rows
    and H_5 has 5 * 4^3 = 320, built at exactly the limit and refused one
    row under it."""
    for h, rows, count in ((cycle_hypergraph(5), 10, "5 * 2^1"),
                           (clique_complement_hypergraph(5), 320, "5 * 4^3")):
        monkeypatch.setattr(consistency, "MAX_BUILT_ROWS", rows - 1)
        with pytest.raises(DatabaseError) as exc:
            tseitin_counterexample(h)
        assert str(exc.value) == ("the counterexample has %s rows, more "
                                  "than %d" % (count, rows - 1))
        monkeypatch.setattr(consistency, "MAX_BUILT_ROWS", rows)
        assert sum(map(len, tseitin_counterexample(h).bags)) == rows


def test_tseitin_refuses_h9_at_once():
    """H_9 would have 9 * 8^7, about 18.9M, rows: refused before any row is
    built."""
    h = clique_complement_hypergraph(9)
    start = time.monotonic()
    with pytest.raises(DatabaseError, match=r"9 \* 8\^7 rows, more than "
                                            r"1000000"):
        tseitin_counterexample(h)
    assert time.monotonic() - start < 1


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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_replay_and_lift_match_reference():
    """Replaying by original edge index gives what the replay with a
    snapshot per op gave: the same certificate, reduced hypergraph and
    lifted database, and the same error type and message on shuffled,
    truncated and repeated op sequences."""
    rng = random.Random(7)
    checked = 0
    while checked < 400:
        h = random_hypergraph(rng)
        bad = find_bad_witness(h)
        ref = reference_find_bad_witness(h)
        if bad is None:
            assert ref is None
            continue
        assert bad.to_json_dict() == ref.to_json_dict()
        reduced = replay_ops(h, bad.ops)
        assert reduced == reference_replay_ops(h, bad.ops)
        d0 = database_of([sorted(e) for e in reduced.edges], random_global_bag(
            rng, reduced.vertices, rng.randint(0, 5)))
        assert lift_collection(d0, h, bad.ops) == reference_lift(d0, h, bad.ops)
        ops = list(bad.ops)
        for _ in range(3):
            rng.shuffle(ops)
            prefix = ops[:rng.randint(0, len(ops))]
            for seq in (ops, prefix, prefix + ops):
                assert (_outcome(replay_ops, h, seq)
                        == _outcome(reference_replay_ops, h, seq))
                assert (_outcome(lift_collection, d0, h, seq)
                        == _outcome(reference_lift, d0, h, seq))
        checked += 1


def test_lift_builds_each_bag_once(monkeypatch):
    """Lifting along the ops that expose a chordless cycle in a 90-edge
    tree with a chord builds one bag per edge of the target and one
    marginal per deleted covered edge, however many deleted vertices a bag
    held."""
    rng = random.Random(90)
    chord, _ = cyclic_variants(rng, random_acyclic_schema(rng, 90))
    h = Hypergraph(sorted({v for e in chord for v in e}), chord)
    bad = find_bad_witness(h)
    reduced = replay_ops(h, bad.ops)
    d0 = database_of([sorted(e) for e in reduced.edges], random_global_bag(
        rng, reduced.vertices, 6))
    expected = reference_lift(d0, h, bad.ops)
    built = []
    init, trusted = Bag.__init__, Bag._trusted.__func__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_trusted(cls, *args):
        built.append(cls)
        return trusted(cls, *args)

    monkeypatch.setattr(Bag, "__init__", counted_init)
    monkeypatch.setattr(Bag, "_trusted", classmethod(counted_trusted))
    lifted = lift_collection(d0, h, bad.ops)
    monkeypatch.undo()
    assert lifted == expected
    covered = sum(op.kind == COVERED_EDGE_DELETION for op in bad.ops)
    assert len(built) <= len(h.edges) + covered


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
    for entry in (2.5, 2.0, True, "3"):
        with pytest.raises(ValueError):
            encode_3dct([[entry]], [[1]], [[1]])


@pytest.mark.parametrize("cell", [True, False, 2.0, 0.0, None, "3", "", -1],
                         ids=["true", "false", "float", "zero-float", "null",
                              "string", "empty-string", "negative"])
@pytest.mark.parametrize("table", ["R", "C", "F"])
def test_encode_3dct_refuses_a_bad_cell(table, cell):
    """Every cell reaches the bag constructor, a zero-valued one too, and
    its refusal names the table and the cell."""
    tables = {name: [[1, 0], [0, 1]] for name in "RCF"}
    tables[table] = [[1, 0], [cell, 1]]
    with pytest.raises(ValueError) as exc:
        encode_3dct(tables["R"], tables["C"], tables["F"])
    fault = ("negative multiplicity for ('2', '1')" if cell == -1 else
             "multiplicity %r for ('2', '1') is not an int" % (cell,))
    assert str(exc.value) == "table %s: %s" % (table, fault)


def test_encode_3dct_reports_the_first_fault():
    """R, C and F are read in that order, each checked for shape and then
    for its cells: a bad cell in R comes before a bad shape in C."""
    with pytest.raises(ValueError, match="^table R: negative multiplicity"):
        encode_3dct([[-1]], [[1, 1]], [[1]])
    with pytest.raises(ValueError, match="^table C is not an n x n grid$"):
        encode_3dct([[1]], [[1, 1]], [[None]])
    with pytest.raises(ValueError, match="^table R is not an n x n grid$"):
        encode_3dct([[1], [1]], [["x"]], [[1]])
