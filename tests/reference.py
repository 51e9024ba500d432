"""Test-only reference implementations.

``reference_search`` is the oracle's earlier depth-first search: join rows
in canonical order, values from high to low within the bounds the
remaining demands allow, a ``pending`` count per constraint row, updated on
every placement and undo, and the bounds set by a ``push`` closure. The
production search branches fail-first and visits other nodes, so the tests
compare answers: wherever neither exhausts its budget, both find a witness
or both prove there is none, and both enumerate the same set of witnesses.

``reference_support_join`` is the oracle's join as it was before it grew
plain rows: the supports joined with ``Bag.join``, then sorted; EXHAUSTED
when some step's join has more than ``max_join_support`` rows. With either
join, ``_build_system`` must build the same system.

``reference_lift`` and ``reference_replay_ops`` replay safe deletions as
they did before the replay named edges by their original index: a copy of
the vertex and edge lists at every op, edge positions that shift after each
deletion, and a lift that re-inserts refilled bags at those positions and
pads every bag holding a deleted vertex at that vertex's op, one vertex at
a time, through its own ``_pad_with_default``.
``reference_find_bad_witness`` checks its ops by that replay. Classify and
lift must give the same outputs and the same errors as these.
``reference_find_bad_witness`` also minimises the obstruction as it did
before the badness tests returned certificates: ``_minimize`` runs one
test per vertex, a full chordality search (``_graph_is_chordal``) on the
cycle shape and ``reference_join_tree`` on the clique-complement shape.

``reference_check_witness`` is the exact witness check as it was written
before it summed the witness's rows itself: one ``Bag.marginal`` per bag,
compared with the bag. The production check must give the same answers
and raise the same errors.

``reference_branch_row`` is the oracle's pick of the constraint row to
branch on as it was before the rows were bucketed by their count of free
join rows: one scan of every row for the fewest free join rows (at least
one), then one scan of the rows with that many for the smallest demand
left, the lowest index first. ``oracle._branch_row`` must return the same
pair.

``reference_northwest_glue`` is the acyclic glue as it was before its rows
became lists extended in place: each cell a new tuple ``lrow + rrow``, so
every row is copied at its full width at every step, and both sides
grouped by ``bags._row_key`` through ``dict.setdefault``. The production
glue must build the same witness, entries in the same order.

``two_bag_witness`` decides two-bag consistency by the max-flow
characterisation: some witness from a saturated integral max flow, checked
exactly. It shares no code with the northwest-corner glue, so the tests use
it to cross-check ``minimal_two_bag_witness``.

``join_tree_is_valid`` checks a join tree from its definition: n - 1
distinct links between distinct nodes that connect them all, and every
vertex's holders connected through links between holders.

``reference_join_tree`` is the edge maximum-cardinality search that built
join trees before the GYO peel did: an independent linear acyclicity test,
whose verdict must equal the peel's, and whose trees must stay valid.
Gilmore's criterion with chordality is the other independent check.

``induced`` is the sub-hypergraph on a vertex subset: each edge's trace on
it, empty and repeated traces dropped. ``reference_find_bad_witness`` and
the minimality checks test acyclicity on it.

``verify_bounds`` evaluates criterion 9's three witness-size checks on a
witness: its largest multiplicity is at most the largest in the database,
and its support is at most the database's total mass (unary size) and at
most its summed bit sizes log2(m + 1) (binary size, which only
support-minimal witnesses must meet; a 1e-9 relative tolerance absorbs
the float sum).
"""
import itertools
import math
import time
from heapq import heappop, heappush
from typing import Optional

from bagconsist import Bag, BagDatabase, DatabaseError, check_witness
from bagconsist.flow import build_network, is_saturated, max_flow
from bagconsist.hypergraph import (
    COVERED_EDGE_DELETION,
    SHAPE_CLIQUE_COMPLEMENT,
    SHAPE_CYCLE,
    VERTEX_DELETION,
    BadWitness,
    Hypergraph,
    HypergraphError,
    JoinTree,
    SafeDeletionOp,
    _connected,
    _matches_shape,
    _maximal,
)
from bagconsist.bags import SchemaMismatchError, _row_key, make_schema
from bagconsist.oracle import EXHAUSTED, _build_system


def reference_check_witness(w: Bag, db) -> bool:
    """True iff the bag's marginals reproduce every bag of the database."""
    union = set()
    for bag in db.bags:
        union |= set(bag.schema)
    if set(w.schema) != union:
        raise SchemaMismatchError(
            "witness schema %r != union schema %r" % (w.schema, tuple(sorted(union))))
    return all(w.marginal(bag.schema) == bag for bag in db.bags)


def reference_support_join(db, budget, deadline):
    """The sorted rows of the join of the supports, or EXHAUSTED; the
    deadline is not read."""
    joined = None
    for bag in db.bags:
        rel = bag.support()
        joined = rel if joined is None else joined.join(rel)
        if len(joined) > budget.max_join_support:
            return EXHAUSTED
    return [] if joined is None else joined.rows()


def join_tree_is_valid(tree) -> bool:
    """True iff ``tree``'s links form a tree on its nodes in which every
    vertex's holders induce a connected subtree."""
    n = len(tree.nodes)
    if len(tree.links) != max(n - 1, 0):
        return False
    adj = {i: set() for i in range(n)}
    for a, b in tree.links:
        if a == b or b in adj[a]:
            return False
        adj[a].add(b)
        adj[b].add(a)
    if n and not _connected(adj, set(range(n))):
        return False
    for v in {u for e in tree.nodes for u in e}:
        holders = {i for i in range(n) if v in tree.nodes[i]}
        sub = {i: adj[i] & holders for i in holders}
        if not _connected(sub, holders):
            return False
    return True


def reference_join_tree(h) -> Optional[JoinTree]:
    """A join tree by maximum cardinality search over the edges (Tarjan and
    Yannakakis, SIAM J. Comput. 13(3), 1984), or None when ``h`` is cyclic.

    The search repeatedly picks the unchosen edge with the most marked
    vertices (ties to the smallest index) and marks its vertices. An edge's
    already-marked vertices S must lie in the latest chosen edge that first
    marked a vertex of S; the edge is linked to that one, and the
    hypergraph is cyclic iff the containment fails for some edge. An edge
    with empty S is linked to the first chosen edge, edge 0, the root.
    """
    edges = h.edges
    holders: dict = {}
    for i, e in enumerate(edges):
        for v in e:
            holders.setdefault(v, []).append(i)
    marked = [0] * len(edges)
    chosen = [False] * len(edges)
    first: dict = {}  # vertex -> choice step that marked it
    picks: list = []
    links: list = []
    # min-heap on (-marked count, index); stale entries are skipped
    heap = [(0, i) for i in range(len(edges))]
    while heap:
        neg, i = heappop(heap)
        if chosen[i] or -neg != marked[i]:
            continue
        chosen[i] = True
        e = edges[i]
        sep = [v for v in e if v in first]
        if sep:
            parent = picks[max(first[v] for v in sep)]
            if not edges[parent].issuperset(sep):
                return None
            links.append((i, parent))
        elif picks:
            links.append((i, picks[0]))
        step = len(picks)
        picks.append(i)
        for v in e:
            if v not in first:
                first[v] = step
                for j in holders[v]:
                    if not chosen[j]:
                        marked[j] += 1
                        heappush(heap, (-marked[j], j))
    return JoinTree(nodes=edges, links=tuple(links))


def induced(h, w) -> Hypergraph:
    """The sub-hypergraph of ``h`` on the vertex subset ``w``."""
    w = {str(v) for v in w}
    if not w <= set(h.vertices):
        raise HypergraphError("W is not a subset of the vertex set")
    return Hypergraph(w, filter(None, dict.fromkeys(e & w for e in h.edges)))


def verify_bounds(db, w: Bag):
    """(multiplicity bound holds, unary bound holds, binary bound holds)
    for the witness ``w`` of ``db``; ValueError when ``w`` is no witness."""
    if not check_witness(w, db):
        raise ValueError("bag is not a witness for the database")
    mults = [m for bag in db.bags for m in bag.entries.values()]
    binary = math.fsum(math.log2(m + 1) for m in mults)
    return (max(w.entries.values(), default=0) <= max(mults, default=0),
            len(w) <= sum(mults),
            len(w) <= binary + 1e-9 * max(1.0, binary))


def two_bag_witness(r: Bag, s: Bag) -> Optional[Bag]:
    """Some witness from a saturated integral max flow, or None."""
    net = build_network(r, s)
    flow = max_flow(net)
    if not is_saturated(net, flow):
        return None
    entries = {jrow: f for (_, _, jrow), f in zip(net.middles, flow.middle_flows)
               if f}
    witness = Bag(net.join_schema, entries)
    if witness.marginal(r.schema) != r or witness.marginal(s.schema) != s:
        raise AssertionError("constructed an invalid two-bag witness")
    return witness


def reference_northwest_glue(bags) -> Bag:
    """Glue the bags, in order, onto one growing list of (row, mult) pairs.
    Each bag must agree with the rows so far on their shared marginal; the
    callers check that first, and check the result exactly.

    Each step groups both sides by their value on the shared attributes,
    keeping the rows so far as the immutable pairs they are, and fills
    every group by one northwest-corner merge: the left rows in order
    against one iterator over the right rows, the two masses left in two
    counters (each bag's rows come in canonical order, the rows so far in
    the order they were made). Each cell appends the bag's new attributes
    to its left row. Rows are permuted into schema order once, at the end.
    Along a running-intersection order each step is a minimal two-bag
    witness, so the result has at most sum |supp B_i| - (m - 1) rows. No
    bags glue to the empty bag.
    """
    if not bags:
        return Bag((), {})
    first = bags[0]
    at = {a: k for k, a in enumerate(first.schema)}
    cells = sorted(first.entries.items())
    for bag in bags[1:]:
        key = _row_key([at[a] for a in bag.schema if a in at])
        bag_key = _row_key([k for k, a in enumerate(bag.schema) if a in at])
        new = [k for k, a in enumerate(bag.schema) if a not in at]
        new_cells = _row_key(new)
        groups: dict = {}
        for cell in cells:
            groups.setdefault(key(cell[0]), ([], []))[0].append(cell)
        for row, mult in sorted(bag.entries.items()):
            groups[bag_key(row)][1].append((new_cells(row), mult))
        cells = []
        for left, right in groups.values():
            right = iter(right)
            rmass = 0
            for lrow, lmass in left:
                while lmass:
                    if not rmass:
                        rrow, rmass = next(right)
                    mult = min(lmass, rmass)
                    cells.append((lrow + rrow, mult))
                    lmass -= mult
                    rmass -= mult
        for k in new:
            at[bag.schema[k]] = len(at)
    schema = make_schema(at)
    pick = _row_key([at[a] for a in schema])
    return Bag._trusted(schema, {pick(row): mult for row, mult in cells})


def reference_branch_row(free, rem):
    """(k, r): the constraint row r with the fewest free join rows k >= 1,
    then the smallest demand left, then the lowest index; (0, None) when no
    row has a free join row."""
    k = min(filter(None, free), default=0)
    if not k:
        return 0, None
    return k, min(itertools.compress(range(len(free)), map(k.__eq__, free)),
                  key=rem.__getitem__)


def reference_search(db, budget, want_all):
    """Complete DFS over join-row multiplicities: the solutions found (the
    first one only, unless ``want_all``), or EXHAUSTED."""
    deadline = time.monotonic() + budget.max_seconds
    sys_ = _build_system(db, budget, deadline)
    if sys_ is EXHAUSTED:
        return EXHAUSTED
    demands = sys_.demands
    if not sys_.join_rows:
        if all(d == 0 for d in demands):
            return [Bag(sys_.union_schema, {})]
        return []
    incident = [len(u) for u in sys_.users]
    if any(d > 0 and c == 0 for d, c in zip(demands, incident)):
        return []
    totals = {sum(bag.entries.values()) for bag in db.bags}
    if len(totals) > 1:
        return []

    cap = max(demands, default=0)
    n = len(sys_.join_rows)
    # per join row: the constraint rows it touches
    row_tuples = list(zip(*sys_.columns))
    rem = list(demands)
    # per constraint row: how many join rows at position >= p still touch it
    pending = incident
    assignment = [0] * n
    solutions = []
    nodes = 0

    # iterative DFS, descending value order: the next value to try at each
    # depth, and the lowest value the slack still allows there
    value_stack = []
    lb_stack = []

    def push(p):
        ub = cap
        lb = 0
        for r in row_tuples[p]:
            if rem[r] < ub:
                ub = rem[r]
            floor = rem[r] - (pending[r] - 1) * cap
            if floor > lb:
                lb = floor
        value_stack.append(ub)
        lb_stack.append(lb)

    push(0)
    while value_stack:
        nodes += 1
        if nodes > budget.max_nodes or (nodes % 1024 == 0
                                        and time.monotonic() > deadline):
            return EXHAUSTED
        p = len(value_stack) - 1
        val = value_stack[p]
        if val < lb_stack[p]:
            # no value left at this depth: take back the parent's
            value_stack.pop()
            lb_stack.pop()
            if not p:
                break
            p -= 1
            val = assignment[p]
        else:
            assignment[p] = val
            for r in row_tuples[p]:
                rem[r] -= val
                pending[r] -= 1
            if p + 1 < n:
                push(p + 1)
                continue
            if all(x == 0 for x in rem):
                solutions.append(Bag(sys_.union_schema, {
                    row: m for row, m in zip(sys_.join_rows, assignment)
                    if m}))
                if not want_all:
                    break
        # take back val at depth p and step to the next lower value
        for r in row_tuples[p]:
            rem[r] += val
            pending[r] += 1
        assignment[p] = 0
        value_stack[p] -= 1
    return solutions


def _tracked_replay(vertices, edges, ops):
    """Run ops over an edge *list*; returns the per-step states.

    Each state is (vertices, edges, record); the record describes how the
    following op acted: ("vertex", v) or ("edge", removed_pos, cover_pos)
    with cover_pos indexing the post-removal list.
    """
    states = [(list(vertices), list(edges), None)]
    for op in ops:
        vertices, edges, _ = states[-1]
        if op.kind == VERTEX_DELETION:
            if op.vertex not in vertices:
                raise HypergraphError("vertex %r not present" % (op.vertex,))
            vertices = [v for v in vertices if v != op.vertex]
            edges = [e - {op.vertex} for e in edges]
            record = ("vertex", op.vertex)
        else:
            pos = next((i for i, e in enumerate(edges) if e == op.edge), None)
            if pos is None:
                raise HypergraphError("edge %r not present" % (sorted(op.edge),))
            cover_pos = next(
                (i for i, e in enumerate(edges)
                 if i != pos and op.edge <= e and e == op.cover), None)
            if cover_pos is None:
                raise HypergraphError(
                    "cover %r for %r not present" % (sorted(op.cover), sorted(op.edge)))
            edges = edges[:pos] + edges[pos + 1:]
            record = ("edge", pos, cover_pos if cover_pos < pos else cover_pos - 1)
        states[-1] = (states[-1][0], states[-1][1], record)
        states.append((vertices, edges, None))
    return states


def reference_replay_ops(h, ops):
    states = _tracked_replay(list(h.vertices), list(h.edges), ops)
    vertices, edges, _ = states[-1]
    return Hypergraph(vertices, [e for e in edges if e])


def reference_lift(d0, h1, ops):
    """Bags over ``h1`` from bags over the hypergraph ``ops`` reduce it to:
    covered edges refilled with their cover's marginal, deleted vertices
    with the value "0"."""
    ops = list(ops)
    states = _tracked_replay(list(h1.vertices), list(h1.edges), ops)
    final_edges = states[-1][1]
    if any(not e for e in final_edges):
        raise DatabaseError(
            "ops leave empty edges; cannot align bags for lifting")
    if sorted(final_edges, key=sorted) != sorted(d0.hypergraph.edges, key=sorted):
        raise DatabaseError(
            "replaying ops on the target hypergraph does not yield the "
            "database's hypergraph")
    # align d0's bags with the final replay state by edge value
    pool = {}
    for bag, edge in zip(d0.bags, d0.hypergraph.edges):
        pool.setdefault(edge, []).append(bag)
    bags = [pool[e].pop(0) for e in final_edges]

    for t in range(len(ops) - 1, -1, -1):
        record = states[t][2]
        before_edges = states[t][1]
        if record[0] == "vertex":
            _, v = record
            bags = [
                _pad_with_default(bag, v, "0") if v in before_edges[i] else bag
                for i, bag in enumerate(bags)
            ]
        else:
            _, pos, cover_pos = record
            removed = before_edges[pos]
            refill = bags[cover_pos].marginal(removed)
            bags = bags[:pos] + [refill] + bags[pos:]
    return BagDatabase(h1, tuple(bags))


def _pad_with_default(bag, attr, value):
    """``bag`` with the attribute ``attr`` added, ``value`` in every row."""
    schema = make_schema(set(bag.schema) | {attr})
    pos = schema.index(attr)
    entries = {}
    for row, mult in bag.entries.items():
        entries[row[:pos] + (value,) + row[pos:]] = mult
    return Bag(schema, entries)


def _graph_is_chordal(adj):
    """Maximum-cardinality search (ties to the smallest name), checked on
    the fly: the reverse visit order is a perfect elimination order iff
    each vertex's earlier-visited neighbours all lie next to the latest
    of them."""
    step = {}  # vertex -> visit step
    weight = dict.fromkeys(adj, 0)
    # min-heap on (-weight, name); stale entries are skipped
    heap = sorted((0, v) for v in adj)
    while heap:
        neg, v = heappop(heap)
        if v in step or -neg != weight[v]:
            continue
        earlier = [w for w in adj[v] if w in step]
        if earlier:
            u = max(earlier, key=step.__getitem__)
            if not adj[u].issuperset(w for w in earlier if w != u):
                return False
        step[v] = len(step)
        for w in adj[v]:
            if w not in step:
                weight[w] += 1
                heappush(heap, (-weight[w], w))
    return True


def _minimize(h, bad):
    """Delete vertices in canonical order while the hypergraph induced by
    the remaining vertex set stays bad (``bad`` takes that set). Badness
    carries over to every superset of vertices, so a vertex kept once can
    never be deleted later and one pass suffices."""
    w = set(h.vertices)
    for v in h.vertices:
        if bad(w - {v}):
            w.remove(v)
    return w


def reference_find_bad_witness(h):
    """The minimal obstruction, its ops built edge by edge and checked by
    replaying them and reducing the result."""
    if reference_join_tree(h) is not None:
        return None
    adj = h.primal_graph()
    if not _graph_is_chordal(adj):
        w = _minimize(h, lambda w: not _graph_is_chordal(
            {u: adj[u] & w for u in w}))
        shape = SHAPE_CYCLE
    else:
        w = _minimize(h, lambda w: reference_join_tree(induced(h, w)) is None)
        shape = SHAPE_CLIQUE_COMPLEMENT
    ops = [SafeDeletionOp(VERTEX_DELETION, vertex=v)
           for v in sorted(set(h.vertices) - w)]
    edges = [e & w for e in h.edges]
    maximal = {e for e in edges if e and not any(e < f for f in edges)}
    kept = []
    victims = []
    for e in edges:
        if e in maximal and e not in kept:
            kept.append(e)
        else:
            victims.append(e)
    for e in victims:
        cover = next(f for f in kept if e <= f)
        ops.append(SafeDeletionOp(COVERED_EDGE_DELETION, edge=e, cover=cover))
    replayed = reference_replay_ops(h, ops)
    assert set(replayed.vertices) == w
    assert _matches_shape(_maximal(replayed.edges), w, shape)
    return BadWitness(w=frozenset(w), shape=shape, ops=tuple(ops))
