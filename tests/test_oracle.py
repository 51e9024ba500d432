import hashlib
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagconsist import (
    EXHAUSTED,
    Bag,
    BagDatabase,
    Hypergraph,
    OracleBudget,
    check_witness,
    encode_3dct,
    enumerate_witnesses,
    global_consistent,
    solve_feasibility,
)
from bagconsist import oracle
from bagconsist.bags import SchemaMismatchError
from bagconsist.consistency import tseitin_counterexample
from bagconsist.hypergraph import clique_complement_hypergraph, cycle_hypergraph

from conftest import (
    database_of,
    pair_database,
    random_acyclic_database,
    random_acyclic_schema,
    random_global_bag,
    witness_family,
)
from reference import (
    _pad_with_default,
    reference_branch_row,
    reference_check_witness,
    reference_search,
    reference_support_join,
    verify_bounds,
)


def test_budget_validation():
    for limits in ({"max_nodes": 0}, {"max_seconds": -1},
                   {"max_join_support": 0},
                   # NaN never trips the deadline; a fraction breaks the
                   # join's slice
                   {"max_seconds": float("nan")}, {"max_join_support": 0.5},
                   {"max_nodes": True}, {"max_nodes": 2.5},
                   {"max_join_support": False},
                   # only an int or a float is a number of seconds
                   {"max_seconds": True}, {"max_seconds": "5"},
                   {"max_seconds": None}):
        with pytest.raises(ValueError):
            OracleBudget(**limits)


def _check_outcome(check, w, db):
    try:
        return check(w, db)
    except Exception as exc:
        return type(exc), str(exc)


def test_check_witness_matches_reference():
    """The exact check answers as one Bag.marginal per bag does, on
    witnesses of random acyclic databases as they are, with one
    multiplicity bumped, with one cell of one row changed, and over a
    schema with one attribute too many or too few."""
    rng = random.Random(0xC4EC)
    seen = {}
    for trial in range(300):
        if trial % 2:
            db = random_acyclic_database(rng)
        else:
            edges = random_acyclic_schema(rng, rng.randint(2, 20))
            db = database_of(edges, random_global_bag(
                rng, {v for e in edges for v in e}, rng.randint(0, 8)))
        w = global_consistent(db).witness
        candidates = [w, _pad_with_default(w, "ZZ", "0")]
        if len(w.schema) > 1:
            candidates.append(w.marginal(w.schema[1:]))
        if w:
            row = rng.choice(sorted(w.entries))
            entries = dict(w.entries)
            entries[row] += 1
            candidates.append(Bag(w.schema, entries))
            entries = dict(w.entries)
            mult = entries.pop(row)
            k = rng.randrange(len(row))
            moved = row[:k] + (str(rng.randint(0, 3)),) + row[k + 1:]
            entries[moved] = entries.get(moved, 0) + mult
            candidates.append(Bag(w.schema, entries))
        for c in candidates:
            got = _check_outcome(check_witness, c, db)
            assert got == _check_outcome(reference_check_witness, c, db)
            kind = got if isinstance(got, bool) else got[0]
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {True, False, SchemaMismatchError}
    assert min(seen.values()) > 100


def test_check_witness_paper_example(paper_pair):
    r, s = paper_pair
    db = pair_database(r, s)
    t1 = Bag(("A", "B", "C"), {("1", "2", "2"): 1, ("2", "2", "1"): 1})
    assert check_witness(t1, db)
    # the bag join is NOT a witness (multiplicities double up)
    assert not check_witness(r.join(s), db)
    with pytest.raises(SchemaMismatchError):
        check_witness(r, db)


def test_solve_feasibility_two_bags(paper_pair):
    r, s = paper_pair
    witness = solve_feasibility(pair_database(r, s))
    assert witness is not None
    assert check_witness(witness, pair_database(r, s))
    assert len(witness) == 2


def test_solve_feasibility_triangle_is_none(triangle_relations):
    assert solve_feasibility(triangle_relations) is None


def test_enumerate_paper_pair(paper_pair):
    r, s = paper_pair
    ws = enumerate_witnesses(pair_database(r, s))
    expected = {
        Bag(("A", "B", "C"), {("1", "2", "2"): 1, ("2", "2", "1"): 1}),
        Bag(("A", "B", "C"), {("1", "2", "1"): 1, ("2", "2", "2"): 1}),
    }
    assert set(ws) == expected


def test_enumerate_matches_feasibility(rng):
    for _ in range(60):
        db = random_acyclic_database(rng)
        ws = enumerate_witnesses(db, OracleBudget(max_nodes=10 ** 6))
        feas = solve_feasibility(db, OracleBudget(max_nodes=10 ** 6))
        if ws is EXHAUSTED or feas is EXHAUSTED:
            continue
        assert (feas is None) == (not ws)
        for w in ws:
            assert check_witness(w, db)
        if feas is not None:
            assert feas in ws


def test_enumerate_rechecks_every_witness(paper_pair, monkeypatch):
    """Enumerated witnesses go out only after the exact witness check."""
    r, s = paper_pair
    db = pair_database(r, s)
    ws = enumerate_witnesses(db)
    wrong = Bag(("A", "B", "C"), {("1", "2", "2"): 2})
    monkeypatch.setattr(oracle, "_search",
                        lambda db, budget, want_all: ws + [wrong])
    with pytest.raises(AssertionError):
        enumerate_witnesses(db)


def test_empty_database():
    db = BagDatabase(Hypergraph(["A"], [["A"]]), (Bag(("A",), {}),))
    w = solve_feasibility(db)
    assert w is not None and len(w) == 0


def test_enumerate_refuses_a_database_with_no_bags():
    """With no bags, every bag over the empty schema is a witness, so the
    enumeration is refused; with bags that are all empty, the empty bag is
    the one witness."""
    none = BagDatabase(Hypergraph([], []), ())
    with pytest.raises(ValueError, match="infinitely many witnesses"):
        enumerate_witnesses(none)
    assert solve_feasibility(none) == Bag((), {})
    empty = BagDatabase(Hypergraph(["A", "B"], [["A"], ["A", "B"]]),
                        (Bag(("A",), {}), Bag(("A", "B"), {})))
    assert enumerate_witnesses(empty) == [Bag(("A", "B"), {})]


def test_budget_exhaustion_returns_sentinel():
    r, s = witness_family(5)
    db = pair_database(r, s)
    assert solve_feasibility(db, OracleBudget(max_nodes=3)) is EXHAUSTED
    assert enumerate_witnesses(db, OracleBudget(max_nodes=3)) is EXHAUSTED


def _wide_join_triangle(n):
    """XZ and YZ with one Z value, XY diagonal: the supports' first join
    step has n^2 rows, the full join n."""
    xs = [str(i) for i in range(n)]
    return BagDatabase(
        Hypergraph(["X", "Y", "Z"], [["X", "Z"], ["Y", "Z"], ["X", "Y"]]),
        (Bag(("X", "Z"), {(x, "0"): 1 for x in xs}),
         Bag(("Y", "Z"), {(x, "0"): 1 for x in xs}),
         Bag(("X", "Y"), {(x, x): 1 for x in xs})))


@pytest.mark.parametrize("budget", [
    OracleBudget(max_join_support=10 ** 5, max_seconds=1),
    OracleBudget(max_join_support=10 ** 7, max_seconds=0.05),
], ids=["join-support", "seconds"])
def test_join_budget_stops_the_join(budget):
    """Both budgets stop the join while it is built: neither the 1.44M-row
    first step nor its memory is paid in full."""
    db = _wide_join_triangle(1200)
    tracemalloc.start()
    try:
        assert solve_feasibility(db, budget) is EXHAUSTED
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20


def _bags(*bags):
    """A stand-in database: the join reads only the bags, so a bag over no
    attributes, which no hypergraph edge can hold, can be joined too."""
    return SimpleNamespace(bags=bags)


def _random_bags(rng):
    """Up to four bags over up to three of A..E (none, too) with up to six
    random rows each, so joins can be empty, disconnected or wide."""
    bags = []
    for _ in range(rng.randint(0, 4)):
        schema = rng.sample("ABCDE", rng.randint(0, 3))
        bags.append(Bag(schema, {
            tuple(str(rng.randint(0, 2)) for _ in schema): rng.randint(1, 3)
            for _ in range(rng.randint(0, 6))}))
    return _bags(*bags)


def test_join_matches_reference(monkeypatch):
    """The join of plain rows gives the same system as the supports
    joined with ``Bag.join`` and sorted, and runs out of join support on
    the same inputs under small caps."""
    def both(db, budget):
        got = oracle._build_system(db, budget, float("inf"))
        with monkeypatch.context() as m:
            m.setattr(oracle, "_support_join", reference_support_join)
            want = oracle._build_system(db, budget, float("inf"))
        assert got == want
        return got

    ab = Bag(("A", "B"), {("0", "1"): 2, ("1", "1"): 1})
    unit = Bag((), {(): 3})
    # no bags, a bag over no attributes, an empty bag, a single bag, and
    # disconnected bags (a cross product)
    edges = [
        (_bags(), []),
        (_bags(unit), [()]),
        (_bags(Bag((), {})), []),
        (_bags(ab, Bag(("B", "C"), {})), []),
        (_bags(ab), [("0", "1"), ("1", "1")]),
        (_bags(unit, ab, unit), [("0", "1"), ("1", "1")]),
        (_bags(ab, Bag(("C",), {("0",): 1, ("1",): 4})),
         [("0", "1", "0"), ("0", "1", "1"), ("1", "1", "0"), ("1", "1", "1")]),
    ]
    for db, rows in edges:
        assert both(db, OracleBudget()).join_rows == rows
    rng = random.Random(2412)
    outcomes = {}
    for _ in range(600):
        db = _random_bags(rng)
        for cap in (10 ** 6, rng.randint(1, 8)):
            sys_ = both(db, OracleBudget(max_join_support=cap))
            kind = "exhausted" if sys_ is EXHAUSTED else len(sys_.join_rows) > 0
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert min(outcomes.values()) >= 50 and len(outcomes) == 3


def test_join_memory_pinned():
    """Building the system on the all-ones 40 x 40 x 40 triangle (64,000
    join rows) peaks below 12 MiB under tracemalloc: about 165 bytes per
    join row (the join of ``Bag`` supports peaked at 13.8 MB)."""
    ones = [[1] * 40 for _ in range(40)]
    db = encode_3dct(ones, ones, ones)
    tracemalloc.start()
    try:
        sys_ = oracle._build_system(db, OracleBudget(), float("inf"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sys_.join_rows) == 64000
    assert peak < 12 * 2 ** 20


def _margins(t):
    """The XZ, YZ and XY margins of an n x n x n table t[x][y][z]."""
    ix = range(len(t))
    return ([[sum(t[x][y][z] for y in ix) for z in ix] for x in ix],
            [[sum(t[x][y][z] for x in ix) for z in ix] for y in ix],
            [[sum(t[x][y][z] for z in ix) for y in ix] for x in ix])


def _feasible_3dct(n, seed, density):
    """The margins of a seeded random 0-1 table over X, Y, Z: a feasible
    3DCT instance."""
    rng = random.Random(seed)
    t = [[[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    return encode_3dct(*_margins(t))


def _dense_3dct(n, seed, max_cell):
    """The margins of a seeded random table over X, Y, Z with cells in
    0..max_cell: a feasible 3DCT instance."""
    rng = random.Random(seed)
    t = [[[rng.randint(0, max_cell) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    return encode_3dct(*_margins(t))


# (database, nodes to the first witness or proof of none, nodes to
# enumerate every witness or None where there are too many); a change to the
# search's node accounting, propagation, branching or value order moves
# these counts
_NODE_COUNTS = {
    "paper-pair": (lambda: pair_database(
        Bag(("A", "B"), {("1", "2"): 1, ("2", "2"): 1}),
        Bag(("B", "C"), {("2", "1"): 1, ("2", "2"): 1})), 1, 2),
    "witness-family-4": (lambda: pair_database(*witness_family(4)), 3, 14),
    "3dct-n3": (lambda: _feasible_3dct(3, 3, 0.5), 2, 6),
    "3dct-n4": (lambda: _feasible_3dct(4, 4, 0.25), 3, 4),
    # pairwise consistent (one unit of F moved around a 2x2 cycle),
    # infeasible; propagation refutes it before any branch
    "3dct-infeasible": (lambda: encode_3dct(
        [[2, 1, 2], [0, 3, 0], [1, 1, 1]],
        [[0, 2, 1], [1, 2, 1], [2, 1, 1]],
        [[2, 2, 1], [0, 1, 2], [1, 1, 1]]), 0, 0),
    # this seed's count also moves when the free join rows' room check is
    # left out of the propagation
    "3dct-dense-n7": (lambda: _dense_3dct(7, 6, 3), 219, None),
    # the shapes the cyclic-oracle benchmark times: a 0/1 table with n = 5,
    # and the Tseitin databases on C_5 and H_4, which propagation refutes
    "3dct-01-n5": (lambda: _dense_3dct(5, 3, 1), 48, None),
    "tseitin-c5": (lambda: tseitin_counterexample(cycle_hypergraph(5)), 0, 0),
    "tseitin-h4": (lambda: tseitin_counterexample(
        clique_complement_hypergraph(4)), 0, 0),
}


@pytest.mark.parametrize("make,first,every", list(_NODE_COUNTS.values()),
                         ids=list(_NODE_COUNTS))
def test_node_counts_pinned(make, first, every):
    db = make()
    for search, nodes in ((solve_feasibility, first),
                          (enumerate_witnesses, every)):
        if nodes is None:
            continue
        # the smallest budget is one node, so a count of 0 is checked there
        assert search(db, OracleBudget(max_nodes=max(nodes, 1))) is not EXHAUSTED
        if nodes > 1:
            assert search(db, OracleBudget(max_nodes=nodes - 1)) is EXHAUSTED


_FIRST_WITNESS_DIGEST = ("e9fcb1c4cf2b0e3d6bdbad30c5e775c6"
                         "0840c4a44eb1613a64179bb0498d8037")


def test_first_witness_pinned():
    """The first witness of 3dct-dense-n7, as a digest of its sorted rows:
    a tie in the branching broken another way changes it, even where the
    node count holds."""
    w = solve_feasibility(_dense_3dct(7, 6, 3))
    digest = hashlib.sha256(repr(sorted(w.entries.items())).encode())
    assert digest.hexdigest() == _FIRST_WITNESS_DIGEST


def test_decider_returns_the_pinned_witness():
    """The triangle is a whole core, so the decider hands the database to
    the oracle as it is and returns that same first witness, unglued."""
    w = global_consistent(_dense_3dct(7, 6, 3)).witness
    digest = hashlib.sha256(repr(sorted(w.entries.items())).encode())
    assert digest.hexdigest() == _FIRST_WITNESS_DIGEST


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                min_size=1, max_size=30),
       st.integers(0, 2))
@example([(2, 1)], 0)  # a single row
@example([(0, 0), (0, 2), (0, 1)], 0)  # every row at 0 free
@example([(2, 3), (1, 2), (2, 0), (1, 2), (1, 2)], 1)  # ties on both
def test_branch_row_matches_two_scans(rows, spare):
    """The pick from the buckets of rows keyed by free count equals the two
    scans over every row, on random free counts and demands left; the
    buckets above the largest count are empty, as they become in the search
    once rows lose free join rows."""
    free = [k for k, _ in rows]
    rem = [d for _, d in rows]
    by_free = [set() for _ in range(max(free) + 1 + spare)]
    for r, k in enumerate(free):
        by_free[k].add(r)
    assert oracle._branch_row(by_free, rem) == reference_branch_row(free, rem)


def _perturbed_3dct(rng, n):
    """The margins of a random table over X, Y, Z with cells in 0..2; one
    in three has one unit of F moved around a 2x2 cycle (pairwise
    consistent, maybe infeasible) or, where the cycle has no unit to move,
    one cell bumped (pairwise inconsistent)."""
    t = [[[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    r, c, f = _margins(t)
    if not rng.randrange(3):
        x0, x1 = rng.sample(range(n), 2)
        y0, y1 = rng.sample(range(n), 2)
        if f[x0][y1] and f[x1][y0]:
            for x, y, step in ((x0, y0, 1), (x1, y1, 1), (x0, y1, -1),
                               (x1, y0, -1)):
                f[x][y] += step
        else:
            rng.choice((r, c, f))[x0][y0] += 1
    return encode_3dct(r, c, f)


def _first(sols):
    """``solve_feasibility``'s answer from a list of solutions."""
    if sols is EXHAUSTED:
        return sols
    return sols[0] if sols else None


# positions among 300 seed-808 instances with n = 2..5 where the reference
# DFS spends 10^6 nodes without an answer
_DFS_EXHAUSTS = (161, 212, 298)


def test_search_matches_reference():
    """The search branches fail-first, so it visits other nodes than the
    reference DFS; it must give the same answers. Wherever neither
    exhausts, both find a witness or both prove there is none, and both
    enumerate the same set of witnesses, each once and each passing the
    exact check. The search also decides the instances the DFS exhausts
    on and refutes the Tseitin databases on C_5 and H_4."""
    rng = random.Random(808)
    # enumerating costs the search far more per node than the DFS
    budget = OracleBudget(max_nodes=10 ** 3)
    ref_budget = OracleBudget(max_nodes=10 ** 4)
    seen = {}
    for _ in range(120):
        db = _perturbed_3dct(rng, rng.randint(2, 4))
        first = solve_feasibility(db)
        assert first is None or check_witness(first, db)
        ref_first = _first(reference_search(db, ref_budget, False))
        if ref_first is not EXHAUSTED:
            assert (first is None) == (ref_first is None)
            kind = "none" if first is None else "witness"
            seen[kind] = seen.get(kind, 0) + 1
        every = enumerate_witnesses(db, budget)
        if every is not EXHAUSTED:
            assert len(set(every)) == len(every)
            assert all(check_witness(w, db) for w in every)
            if every:
                assert first in every
            else:
                assert first is None
            ref_every = reference_search(db, ref_budget, True)
            if ref_every is not EXHAUSTED:
                assert set(every) == set(ref_every)
                seen["enumerated"] = seen.get("enumerated", 0) + 1
    assert min(seen.values()) >= 5 and len(seen) == 3

    rng = random.Random(808)
    for k in range(max(_DFS_EXHAUSTS) + 1):
        db = _perturbed_3dct(rng, rng.randint(2, 5))
        if k in _DFS_EXHAUSTS:
            assert reference_search(
                db, OracleBudget(max_nodes=10 ** 5), False) is EXHAUSTED
            w = solve_feasibility(db)
            assert isinstance(w, Bag) and check_witness(w, db)

    for h in (cycle_hypergraph(5), clique_complement_hypergraph(4)):
        assert solve_feasibility(tseitin_counterexample(h)) is None


def test_join_support_budget_bounds_the_witnesses_held():
    """An enumeration ends EXHAUSTED once the witnesses it holds pass
    ``max_join_support`` rows in all, even when the join fits: this table
    has a 125-row join and more witnesses than two seconds enumerate."""
    db = _dense_3dct(5, 7, 2)
    budget = OracleBudget(max_join_support=1000, max_seconds=2)
    assert isinstance(solve_feasibility(db, budget), Bag)
    tracemalloc.start()
    try:
        assert enumerate_witnesses(db, budget) is EXHAUSTED
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_seconds_budget_stops_the_search():
    """Enumerating the witnesses of a dense n = 7 table outlasts 0.1 s (it
    has astronomically many); the clock check at every search node ends it
    long before the node budget would."""
    db = _feasible_3dct(7, 0, 0.7)
    start = time.monotonic()
    assert enumerate_witnesses(
        db, OracleBudget(max_nodes=10 ** 9, max_seconds=0.1)) is EXHAUSTED
    assert time.monotonic() - start < 2


def test_deadline_checked_after_the_join(monkeypatch):
    """A deadline that passes once the join is done ends the search before
    the marginal-equation system is built, so before any search node."""
    passed = []
    support_join, system = oracle._support_join, oracle._System

    def join_then_pass(*args):
        joined = support_join(*args)
        passed.append(True)
        return joined

    def clock():
        return 10.0 ** 9 if passed else 0.0

    built = []

    def counting_system(*args):
        built.append(True)
        return system(*args)

    monkeypatch.setattr(oracle, "_support_join", join_then_pass)
    monkeypatch.setattr(oracle, "_System", counting_system)
    monkeypatch.setattr(oracle.time, "monotonic", clock)
    db = _dense_3dct(7, 6, 3)
    assert solve_feasibility(db, OracleBudget(max_seconds=1)) is EXHAUSTED
    assert passed and not built


def _build_with_clock(monkeypatch, clock):
    """``solve_feasibility`` on a dense three-bag 3DCT instance, with
    ``time.monotonic`` replaced by ``clock(keys)``, where ``keys`` lists the
    row keys made after the join, one per bag's column (the join's own row
    keys are not counted): the answer, the keys, and whether the system was
    built."""
    keys, joined, built = [], [], []
    row_key, support_join = oracle._row_key, oracle._support_join
    system = oracle._System

    def join_then_count(*args):
        rows = support_join(*args)
        joined.append(True)
        return rows

    def counting_row_key(positions):
        if joined:
            keys.append(positions)
        return row_key(positions)

    def counting_system(*args):
        built.append(True)
        return system(*args)

    monkeypatch.setattr(oracle, "_support_join", join_then_count)
    monkeypatch.setattr(oracle, "_row_key", counting_row_key)
    monkeypatch.setattr(oracle, "_System", counting_system)
    monkeypatch.setattr(oracle.time, "monotonic", lambda: clock(keys))
    answer = solve_feasibility(_dense_3dct(7, 6, 3), OracleBudget(max_seconds=1))
    return answer, keys, bool(built)


def test_deadline_checked_while_the_incidence_lists_are_built(monkeypatch):
    """A deadline that passes while the first bag's column is built ends the
    search before the next bag's column, so before the system is whole."""
    answer, keys, built = _build_with_clock(
        monkeypatch, lambda keys: 10.0 ** 9 if keys else 0.0)
    assert answer is EXHAUSTED and len(keys) == 1 and not built


def test_deadline_checked_while_the_per_row_lists_are_filled(monkeypatch):
    """A deadline that passes once every bag's column is built ends the
    search while each constraint row's list of join rows is filled, so
    before the system is whole: the clock read after the last column
    passes, the first one in the filling loop trips."""
    reads = []

    def clock(keys):
        if len(keys) < 3:
            return 0.0
        reads.append(True)
        return 0.0 if len(reads) == 1 else 10.0 ** 9

    answer, keys, built = _build_with_clock(monkeypatch, clock)
    assert answer is EXHAUSTED and len(keys) == 3 and len(reads) == 2
    assert not built


def test_deadline_checked_after_the_first_propagation(monkeypatch):
    """A deadline that passes once the system is built ends the search at
    the first propagation's first clock read, before its first branch
    point, so before any search node."""
    passed = []
    system, values = oracle._System, oracle._values

    def system_then_pass(*args):
        built = system(*args)
        passed.append(True)
        return built

    def clock():
        return 10.0 ** 9 if passed else 0.0

    nodes = []

    def counting_values(*args):
        for v in values(*args):
            nodes.append(v)
            yield v

    monkeypatch.setattr(oracle, "_System", system_then_pass)
    monkeypatch.setattr(oracle, "_values", counting_values)
    monkeypatch.setattr(oracle.time, "monotonic", clock)
    # propagation alone does not decide this table: it takes 219 nodes
    db = _dense_3dct(7, 6, 3)
    assert solve_feasibility(db, OracleBudget(max_seconds=1)) is EXHAUSTED
    assert passed and not nodes


def test_verify_bounds_paper_example(paper_pair):
    r, s = paper_pair
    db = pair_database(r, s)
    w = Bag(("A", "B", "C"), {("1", "2", "2"): 1, ("2", "2", "1"): 1})
    # multiplicity 1 <= 1, support 2 <= mass 4 and 2 <= 4 bits
    assert verify_bounds(db, w) == (True, True, True)


def test_verify_bounds_rejects_non_witness(paper_pair):
    r, s = paper_pair
    db = pair_database(r, s)
    with pytest.raises(ValueError):
        verify_bounds(db, r.join(s))
