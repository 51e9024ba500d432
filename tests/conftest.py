"""Shared fixtures and random-instance generators, the path schema P_n and
a safe-deletion replay, plus the acceptance summary hook (one PASS/FAIL
line per criterion at the end of a run)."""
import itertools
import random
import re

import pytest

from bagconsist import Bag, BagDatabase, Hypergraph, HypergraphError
from bagconsist.flow import build_network, max_flow, suppress_middle_arc
from bagconsist.hypergraph import _attr_names, _replay


def path_hypergraph(n: int) -> Hypergraph:
    """P_n: the path A1-A2-...-An as consecutive binary edges."""
    if n < 2:
        raise HypergraphError("P_n needs n >= 2")
    vs = _attr_names(n)
    return Hypergraph(vs, [[vs[i], vs[i + 1]] for i in range(n - 1)])


def replay_ops(h: Hypergraph, ops) -> Hypergraph:
    """The hypergraph a safe-deletion sequence leaves of ``h``: the
    vertices and the non-empty edges that ``hypergraph._replay`` leaves."""
    vertices, edges, _ = _replay(h, ops)
    return Hypergraph(vertices, [e for e in edges.values() if e])


def random_hypergraph(rng: random.Random, max_vertices: int = 8,
                      max_edges: int = 8) -> Hypergraph:
    """A random hypergraph whose vertex set is exactly the union of its
    edges (no isolated vertices)."""
    n = rng.randint(1, max_vertices)
    pool = ["V%d" % i for i in range(1, n + 1)]
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        size = rng.randint(1, min(4, n))
        edges.append(rng.sample(pool, size))
    vertices = sorted({v for e in edges for v in e})
    return Hypergraph(vertices, edges)


def random_acyclic_database(rng: random.Random, max_edges: int = 5,
                            max_edge_size: int = 4, max_mult: int = 8
                            ) -> BagDatabase:
    """A pairwise-consistent database over a random acyclic hypergraph,
    obtained by taking marginals of a random global bag."""
    n = rng.randint(2, 6)
    pool = ["V%d" % i for i in range(1, n + 1)]
    # grow edges along a running-intersection order: each new edge's overlap
    # with the previous union sits inside one earlier edge
    m = rng.randint(1, max_edges)
    first = rng.sample(pool, rng.randint(1, min(max_edge_size, n)))
    edges = [first]
    used = set(first)
    for _ in range(m - 1):
        host = rng.choice(edges)
        overlap = rng.sample(host, rng.randint(1, min(len(host),
                                                      max_edge_size)))
        # only never-used vertices may extend the edge, which keeps the
        # construction a running-intersection order
        fresh_pool = [v for v in pool if v not in used]
        fresh = rng.sample(fresh_pool,
                           rng.randint(0, min(2, len(fresh_pool),
                                              max_edge_size - len(overlap))))
        edges.append(overlap + fresh)
        used.update(fresh)
    vertices = sorted({v for e in edges for v in e})
    h = Hypergraph(vertices, edges)
    assert h.join_tree() is not None
    # global bag over the union schema with small support
    schema = tuple(vertices)
    support = set()
    for _ in range(rng.randint(0, 6)):
        support.add(tuple(str(rng.randint(0, 2)) for _ in schema))
    entries = {row: rng.randint(1, max_mult) for row in support}
    global_bag = Bag(schema, entries)
    bags = tuple(global_bag.marginal(sorted(e)) for e in h.edges)
    return BagDatabase(h, bags)


def random_acyclic_schema(rng: random.Random, num_edges: int) -> list:
    """A shuffled acyclic edge list of exactly ``num_edges`` edges. Each
    edge is grown from part of an earlier one plus fresh vertices, so some
    order of the edges has the running intersection property. Half the
    hosts are recent edges, which stretches the schema; a rare empty
    overlap starts a new component, and no fresh vertex leaves a covered
    or duplicate edge."""
    edges = [["V0", "V1"]]
    fresh = 2
    while len(edges) < num_edges:
        host = rng.choice(edges[-4:] if rng.random() < 0.5 else edges)
        low = 0 if rng.random() < 0.1 else 1
        edge = rng.sample(host, rng.randint(low, len(host)))
        for _ in range(rng.randint(0 if edge else 1, 2)):
            edge.append("V%d" % fresh)
            fresh += 1
        edges.append(edge)
    rng.shuffle(edges)
    return edges


def cyclic_variants(rng, edges):
    """The edges plus one edge joining two attributes at primal distance
    three or more (a chordless cycle), and the edges plus a fresh attribute
    T tied to two attributes of one edge (a triangle no edge covers); either
    is None when the tree has no such pair or no such edge."""
    adj = {}
    for e in edges:
        for a in e:
            adj.setdefault(a, set()).update(e)
    chord = None
    for a in rng.sample(sorted(adj), len(adj)):
        dist, frontier = {a: 0}, [a]
        while frontier:
            nxt = []
            for u in frontier:
                for w in sorted(adj[u] - set(dist)):
                    dist[w] = dist[u] + 1
                    nxt.append(w)
            frontier = nxt
        far = sorted(b for b, d in dist.items() if d >= 3)
        if far:
            chord = edges + [[a, rng.choice(far)]]
            break
    hosts = [e for e in edges if len(e) >= 2]
    if not hosts:
        return chord, None
    x, y = rng.sample(rng.choice(hosts), 2)
    return chord, edges + [[x, "T"], [y, "T"]]


def database_of(edges: list, global_bag: Bag) -> BagDatabase:
    """The database of ``global_bag``'s marginals on the edges."""
    vertices = sorted({v for e in edges for v in e})
    bags = tuple(global_bag.marginal(e) for e in edges)
    return BagDatabase(Hypergraph(vertices, edges), bags)


def random_global_bag(rng: random.Random, schema, rows: int,
                      max_mult: int = 8) -> Bag:
    """A bag of up to ``rows`` random 0/1/2 rows over ``schema``."""
    schema = sorted(schema)
    return Bag(schema, {tuple(str(rng.randint(0, 2)) for _ in schema):
                        rng.randint(1, max_mult) for _ in range(rows)})


@pytest.fixture
def rng():
    return random.Random(0xBA6C0)


@pytest.fixture
def paper_pair():
    """R1(AB), S1(BC) from the two-bag witness example."""
    r = Bag(("A", "B"), {("1", "2"): 1, ("2", "2"): 1})
    s = Bag(("B", "C"), {("2", "1"): 1, ("2", "2"): 1})
    return r, s


@pytest.fixture
def triangle_relations():
    """The pairwise-consistent, globally inconsistent triangle database."""
    h = Hypergraph(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    return BagDatabase(h, (
        Bag(("A", "B"), {("0", "0"): 1, ("1", "1"): 1}),
        Bag(("B", "C"), {("0", "1"): 1, ("1", "0"): 1}),
        Bag(("A", "C"), {("0", "0"): 1, ("1", "1"): 1}),
    ))


def witness_family(n: int):
    """The R_{n-1}(A,B), S_{n-1}(B,C) family with 2^{n-1} witnesses."""
    r = {}
    s = {}
    for j in range(2, n + 1):
        r[("1", str(j))] = 1
        r[(str(j), str(j))] = 1
        s[(str(j), "1")] = 1
        s[(str(j), str(j))] = 1
    return Bag(("A", "B"), r), Bag(("B", "C"), s)


def pair_database(r: Bag, s: Bag) -> BagDatabase:
    vertices = sorted(set(r.schema) | set(s.schema))
    return BagDatabase(Hypergraph(vertices, [r.schema, s.schema]), (r, s))


def assert_flow_minimal(r: Bag, s: Bag, w: Bag) -> None:
    """Certify with the max-flow reference that ``w`` has inclusion-minimal
    support among the witnesses of (r, s): the network restricted to the
    middle arcs of supp(w) still saturates, and losing any one of them
    drops the flow."""
    net = build_network(r, s)
    target = net.total_source_capacity()
    support = set(w.entries)
    for _, _, jrow in net.middles:
        if jrow not in support:
            net = suppress_middle_arc(net, jrow)
    assert {jrow for _, _, jrow in net.middles} == support
    assert max_flow(net).value == target
    for jrow in support:
        assert max_flow(suppress_middle_arc(net, jrow)).value < target


# -- acceptance summary ----------------------------------------------------

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            if status != "passed":
                outcomes[number] = "FAIL"
            elif getattr(report, "when", "call") == "call":
                outcomes.setdefault(number, "PASS")
    if not outcomes:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(outcomes):
        title = CRITERIA.get(number, "")
        terminalreporter.write_line(
            "  criterion %2d [%s] %s" % (number, outcomes[number], title))
