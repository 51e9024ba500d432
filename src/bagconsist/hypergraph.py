"""Schema hypergraphs and their structural classification.

Covers chordality (maximum-cardinality search over the vertices, from a
lazy heap), conformality (Gilmore's triple criterion), acyclicity by one
GYO ear peel, ``_peel``, which leaves at most one edge iff the hypergraph
is acyclic (its ears linked to their covers are ``join_tree()``, whose
root is the edge left), and extraction of minimal non-chordal /
non-conformal witness sets together with the safe-deletion sequences that
expose them. The extraction peels once and searches the core the peel
leaves, never the whole schema. A certificate of badness is a chordless
cycle from the chordality search on the core's primal graph, or the
vertices that two core edges or more hold. Minimising a witness set walks
the core's vertices, reuses the certificate, and searches again only when
the vertex it deletes lies in it. A safe-deletion sequence is replayed
once, with each edge named by its index in the input; lifting a database
back along it refills deleted covered edges with their cover's marginal
and deleted vertices with the value "0".
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Optional

from .bags import _is_name_list

Edge = frozenset


class HypergraphError(ValueError):
    pass


@dataclass(frozen=True, init=False, repr=False)
class Hypergraph:
    """A vertex set plus an ordered list of hyperedges.

    The edge list need not be reduced: covered and duplicate edges are
    allowed (bags in a database are aligned with edges by position). Every
    vertex must have a non-empty name and lie in some edge. A frozen
    dataclass, compared and hashed by both fields.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]]):
        vs = tuple(sorted(set(map(str, vertices))))
        es = tuple(frozenset(map(str, e)) for e in edges)
        vset = set(vs)
        if "" in vset:
            raise HypergraphError("vertex names must be non-empty")
        for e in es:
            if not e:
                raise HypergraphError("hyperedges must be non-empty")
            if not e <= vset:
                raise HypergraphError("edge %r not within vertex set" % (sorted(e),))
        bare = vset.difference(*es)
        if bare:
            raise HypergraphError("vertices %r lie in no edge" % (sorted(bare),))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)

    def __repr__(self):
        return "Hypergraph(%r, %r)" % (list(self.vertices),
                                       [sorted(e) for e in self.edges])

    # -- derived structure -------------------------------------------------

    def primal_graph(self) -> dict[str, set[str]]:
        """Adjacency of the primal graph: vertices co-occurring in a
        hyperedge are adjacent."""
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            for u in e:
                adj[u] |= e - {u}
        return adj

    # -- classification ----------------------------------------------------

    def is_chordal(self) -> bool:
        return _mcs_certificate(self.primal_graph()) is None

    def is_conformal(self) -> bool:
        """Gilmore's criterion on the reduced edge set."""
        edges = _maximal(self.edges)
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                eij = edges[i] & edges[j]
                for k in range(j + 1, n):
                    need = eij | (edges[i] & edges[k]) | (edges[j] & edges[k])
                    if not any(need <= f for f in edges):
                        return False
        return True

    @cached_property
    def _peeled(self) -> tuple[list[tuple[int, int]], list[int]]:
        """:func:`_peel` of the edges, peeled once per hypergraph: the
        join tree, the bad-witness search and ``global_consistent`` read
        it, so ``classify`` and ``global`` each peel one schema once. Not a
        field: equality and hashing ignore it."""
        return _peel(self.edges)

    def join_tree(self) -> Optional["JoinTree"]:
        """A join tree from :func:`_peel`, or None when the hypergraph is
        cyclic: each ear linked to its cover, last removed first."""
        ears, left = self._peeled
        if len(left) > 1:
            return None
        return JoinTree(nodes=self.edges, links=tuple(reversed(ears)))

    def running_intersection_order(self) -> Optional[list[tuple[int, Optional[int]]]]:
        """The join tree's running-intersection order; None when cyclic."""
        tree = self.join_tree()
        return None if tree is None else tree.running_intersection_order()

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [sorted(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Hypergraph":
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise HypergraphError("hypergraph JSON needs 'vertices' and 'edges'")
        edges = data["edges"]
        if not (_is_name_list(data["vertices"]) and isinstance(edges, list)
                and all(_is_name_list(e) for e in edges)):
            raise HypergraphError(
                "hypergraph JSON needs a list of vertex names and a list of "
                "edges, each a list of vertex names")
        # the constructor would merge a repeated name; the JSON refuses it,
        # as a bag's schema does (an edge may still repeat)
        for names in (data["vertices"], *edges):
            if len(set(names)) != len(names):
                raise HypergraphError("duplicate vertex names: %r" % (names,))
        return cls(data["vertices"], edges)


@dataclass(frozen=True)
class JoinTree:
    """Tree on hyperedge positions; every vertex's occurrences induce a
    connected subtree. The root is the edge the peel leaves (edge 0 when
    there are no links), and links are (child, parent) pairs in order from
    it: each child's overlap with the root and all earlier children lies in
    its parent."""
    nodes: tuple[Edge, ...]
    links: tuple[tuple[int, int], ...]

    def running_intersection_order(self) -> list[tuple[int, Optional[int]]]:
        """An edge listing with the running intersection property, as
        (edge_index, witness_position) pairs: the root, then the children
        in link order.

        The witness position points at the earlier listing slot whose edge
        contains the overlap with everything before (the parent's slot).
        """
        if not self.nodes:
            return []
        root = self.links[0][1] if self.links else 0
        slot = {child: k for k, (child, _) in enumerate(self.links, 1)}
        slot[root] = 0
        return [(root, None)] + [(child, slot[p]) for child, p in self.links]

    def to_json_dict(self) -> dict:
        return {"nodes": [sorted(e) for e in self.nodes],
                "links": [list(l) for l in self.links]}


def _maximal(edges) -> list:
    """The edges no other edge strictly contains, each once, in the order
    of their first occurrence."""
    distinct = dict.fromkeys(edges)
    return [e for e in distinct if not any(e < f for f in distinct)]


def _peel(edges) -> tuple[list[tuple[int, int]], list[int]]:
    """GYO ear removal over a list of vertex sets: the (ear, cover) index
    pairs in removal order, and the ascending indices of the edges left (the
    ear-free core), at most one iff the hypergraph is acyclic (Beeri, Fagin,
    Maier and Yannakakis, J. ACM 30(3), 1983). An ear's vertices that other
    live edges hold all lie in its cover: the lowest live edge holding them
    all, read from the live end of a least-held one's holders (every cover
    holds it). An ear that shares nothing takes the lowest live edge. Edges
    are tried lowest index first, and again (by that vertex's name) once one
    of their vertices is left in no other edge: only that can make an ear.
    """
    holders: dict = {}  # vertex -> its edges, lowest index last
    for i in reversed(range(len(edges))):
        for v in edges[i]:
            holders.setdefault(v, []).append(i)
    count = {v: len(hs) for v, hs in holders.items()}
    live, queued = [True] * len(edges), [True] * len(edges)
    queue, ears, low = list(range(len(edges))), [], 0  # no live edge below low

    def live_end(v):  # v's holders, the dead ones at the end popped off
        hs = holders[v]
        while not live[hs[-1]]:
            hs.pop()
        return hs

    for i in queue:  # grows while it is walked; only live edges are queued
        queued[i] = False
        if len(ears) == len(edges) - 1:
            break
        shared = [v for v in edges[i] if count[v] > 1]
        if shared:
            u = min(shared, key=count.__getitem__)
            for cover in reversed(live_end(u)):
                if cover != i and live[cover] and edges[cover].issuperset(shared):
                    break
            else:
                continue
        else:
            while not live[low]:
                low += 1
            cover = next(j for j in range(low, len(edges)) if j != i and live[j])
        live[i] = False
        ears.append((i, cover))
        for v in sorted(edges[i]):
            count[v] -= 1
            if count[v] == 1 and not queued[j := live_end(v)[-1]]:
                queued[j] = True
                queue.append(j)
    return ears, [i for i, alive in enumerate(live) if alive]


def _core_vertices(edges, s) -> Optional[set]:
    """The vertices held twice in the core :func:`_peel` leaves of the edges'
    traces on ``s`` (None if none): they induce a cyclic hypergraph, since a
    peeled trace meets them inside its cover and the core stays ear-free.
    ``find_bad_witness`` passes the core's own edges and a set of core
    vertices, so the peel here sees a handful of traces."""
    traces = [t for t in (e & s for e in edges) if t]
    held = Counter(v for i in _peel(traces)[1] for v in traces[i])
    return {v for v, n in held.items() if n > 1} or None


def _connected(adj: dict, nodes: set) -> bool:
    seen = set()
    stack = [next(iter(sorted(nodes)))]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    return seen == nodes


def _mcs_certificate(adj: dict[str, set[str]]) -> Optional[set]:
    """Maximum-cardinality search over the graph ``adj`` (ties to the
    smallest name), checked on the fly. Returns a chordless cycle of the
    graph, or None when it is chordal.

    The reverse visit order is a perfect elimination order iff each
    vertex's earlier-visited neighbours all lie next to the latest of them,
    u. When that fails at v for an earlier neighbour x, the certificate is
    v plus a shortest u–x path through visited vertices outside v's other
    neighbours (Tarjan and Yannakakis, SIAM J. Comput. 13(3), 1984, and the
    1985 addendum). Should no such path exist, the visited vertices plus v
    would still induce a non-chordal graph, since the search replays its
    steps on it.
    """
    step: dict[str, int] = {}  # vertex -> visit step
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
                x = max((w for w in earlier if w != u and w not in adj[u]),
                        key=step.__getitem__)
                return _chordless_cycle(adj, step, v, u, x)
        step[v] = len(step)
        for w in adj[v]:
            if w not in step:
                weight[w] += 1
                heappush(heap, (-weight[w], w))
    return None


def _chordless_cycle(adj, step, v, u, x) -> set:
    """v plus a shortest u–x path whose inner vertices are visited and not
    next to v; u and x are v's non-adjacent earlier neighbours. Neighbours
    are scanned in name order, so the path does not depend on set order."""
    inner = {y for y in step if y not in adj[v]}
    inner.add(x)
    parent = {u: u}
    frontier = [u]
    while frontier and x not in parent:
        nxt = []
        for y in frontier:
            for z in sorted(adj[y] & inner):
                if z not in parent:
                    parent[z] = y
                    nxt.append(z)
        frontier = nxt
    if x not in parent:
        return set(step) | {v}
    cycle = {v, u}
    while x != u:
        cycle.add(x)
        x = parent[x]
    return cycle


# -- safe deletions --------------------------------------------------------

VERTEX_DELETION = "vertex-deletion"
COVERED_EDGE_DELETION = "covered-edge-deletion"


@dataclass(frozen=True)
class SafeDeletionOp:
    """A vertex deletion or a covered-edge deletion, identified by value.

    ``cover`` names the covering edge for a covered-edge deletion; for
    duplicate edges the cover may equal the target. Both are taken as sets
    of vertex names, and ``vertex`` as a name, as a ``Hypergraph`` takes
    its vertices and edges.
    """
    kind: str
    vertex: Optional[str] = None
    edge: Optional[Edge] = None
    cover: Optional[Edge] = None

    def __post_init__(self):
        if self.kind == VERTEX_DELETION:
            if self.vertex is None:
                raise HypergraphError("vertex-deletion needs a vertex")
            object.__setattr__(self, "vertex", str(self.vertex))
        elif self.kind == COVERED_EDGE_DELETION:
            if self.edge is None or self.cover is None:
                raise HypergraphError("covered-edge-deletion needs edge and cover")
            object.__setattr__(self, "edge", frozenset(map(str, self.edge)))
            object.__setattr__(self, "cover", frozenset(map(str, self.cover)))
            if not self.edge <= self.cover:
                raise HypergraphError("cover does not contain the deleted edge")
        else:
            raise HypergraphError("unknown safe-deletion kind %r" % (self.kind,))

    def to_json_dict(self) -> dict:
        if self.kind == VERTEX_DELETION:
            return {"kind": self.kind, "vertex": self.vertex}
        return {"kind": self.kind, "edge": sorted(self.edge),
                "cover": sorted(self.cover)}


def _replay(h: Hypergraph, ops: Iterable[SafeDeletionOp]):
    """Run ops over ``h``'s edges, each named by its index in ``h.edges``.
    A vertex deletion shrinks each edge in place without deduplicating, so
    the trailing covered-edge deletions of a witness sequence stay
    applicable and the sequence is invertible, which lifting relies on.

    Returns the vertices left, the edges left (index -> current vertex
    set, in index order) and one record per op: None for a vertex deletion,
    (removed index, cover index) for a covered-edge deletion. An op's edge
    and cover are matched by value to the first edge left that equals them.
    """
    vertices = set(h.vertices)
    edges = dict(enumerate(h.edges))
    records = []
    for op in ops:
        if op.kind == VERTEX_DELETION:
            v = op.vertex
            if v not in vertices:
                raise HypergraphError("vertex %r not present" % (v,))
            vertices.remove(v)
            for i, e in edges.items():
                if v in e:
                    edges[i] = e - {v}
            records.append(None)
            continue
        pos = next((i for i, e in edges.items() if e == op.edge), None)
        if pos is None:
            raise HypergraphError("edge %r not present" % (sorted(op.edge),))
        cover = next((i for i, e in edges.items()
                      if i != pos and e == op.cover), None)
        if cover is None:
            raise HypergraphError(
                "cover %r for %r not present" % (sorted(op.cover), sorted(op.edge)))
        del edges[pos]
        records.append((pos, cover))
    return vertices, edges, records


# -- bad-witness extraction ------------------------------------------------

SHAPE_CYCLE = "cycle"
SHAPE_CLIQUE_COMPLEMENT = "clique-complement"


@dataclass(frozen=True)
class BadWitness:
    """A vertex set W whose reduced induced hypergraph is a minimal cyclic
    obstruction (a cycle C_n or a clique complement H_n), plus the
    safe-deletion sequence exposing it."""
    w: frozenset
    shape: str
    ops: tuple[SafeDeletionOp, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {"W": sorted(self.w), "shape": self.shape,
                "ops": [op.to_json_dict() for op in self.ops]}


def find_bad_witness(h: Hypergraph) -> Optional[BadWitness]:
    """None iff the peel leaves at most one edge (the hypergraph is
    acyclic); otherwise a minimal obstruction, preferring the non-chordal
    (cycle) shape. Both searches run on the core the peel leaves: on any
    vertex set S the ears' traces peel off in the same order, so H[S] is
    cyclic iff the core's traces on S are, and an ear adds only vertices
    whose neighbours form a clique, so H[S]'s primal graph has the core's
    chordless cycles. A failed chordality search certifies the cycle shape;
    else the core's doubly held vertices certify the clique complement,
    since every cyclic induced sub-hypergraph of a chordal one fails
    conformality.
    """
    left = h._peeled[1]
    if len(left) < 2:
        return None
    core_edges = [h.edges[i] for i in left]
    core = Hypergraph(set().union(*core_edges), core_edges)
    adj = core.primal_graph()
    cert = _mcs_certificate(adj)
    if cert is not None:
        shape = SHAPE_CYCLE
        # on core vertices, H[S]'s primal graph is the core's induced on S
        certify = lambda s: _mcs_certificate({u: adj[u] & s for u in s})
    else:
        shape = SHAPE_CLIQUE_COMPLEMENT
        certify = lambda s: _core_vertices(core.edges, s)
        cert = certify(set(core.vertices))
    w = _minimize(core.vertices, cert, certify)
    ops, kept = _normalizing_ops(h, w)
    if not _matches_shape(kept, w, shape):
        raise AssertionError(
            "witness minimization did not reach a %s on %r" % (shape, sorted(w)))
    return BadWitness(w=frozenset(w), shape=shape, ops=tuple(ops))


def _minimize(vertices, cert: set, certify) -> set:
    """Delete vertices in canonical order while the set left stays bad.

    ``cert`` is a bad subset of ``vertices``, and ``certify(s)`` returns a
    bad subset of ``s`` or None when ``s`` is not bad. Badness carries over
    to every superset, so a vertex outside the current certificate goes
    without a search; a search runs only for a vertex inside it, and a bad
    answer becomes the new certificate. A vertex kept once can never be
    deleted later, so one pass suffices, and every deletion is the one a
    search per vertex would make.
    """
    w = set(vertices)
    for v in vertices:
        if v in cert:
            found = certify(w - {v})
            if found is None:
                continue
            cert = found
        w.remove(v)
    return w


def _normalizing_ops(h: Hypergraph, w: set):
    """Vertex deletions of V \\ W followed by covered-edge deletions down to
    the reduced induced hypergraph, valid under multiset replay; also the
    edges that replay leaves, which are that hypergraph's edges."""
    ops = [SafeDeletionOp(VERTEX_DELETION, vertex=v)
           for v in sorted(set(h.vertices) - w)]
    # track the edge list through the vertex deletions (no dedup, no drops);
    # the traces on W are few once deduplicated
    victims = [e & w for e in h.edges]
    kept = _maximal(victims)
    for e in kept:  # the victims: all but each kept edge's first copy
        victims.remove(e)
    for e in victims:
        cover = next((f for f in kept if e <= f), None)
        if cover is None:
            raise AssertionError("no cover available for %r" % (sorted(e),))
        ops.append(SafeDeletionOp(COVERED_EDGE_DELETION, edge=e, cover=cover))
    return ops, kept


def _matches_shape(edges: list[Edge], w: set, shape: str) -> bool:
    """Whether distinct edges within W form the named shape on all of W."""
    n = len(w)
    edges = set(edges)
    if shape == SHAPE_CLIQUE_COMPLEMENT:
        return n >= 3 and edges == {frozenset(w - {v}) for v in w}
    if n < 4 or len(edges) != n or any(len(e) != 2 for e in edges):
        return False
    adj = {v: set() for v in w}
    for e in edges:
        a, b = e
        adj[a].add(b)
        adj[b].add(a)
    # distinct binary edges: a vertex's degree is its neighbour count
    return all(len(nb) == 2 for nb in adj.values()) and _connected(adj, w)


# -- named generators ------------------------------------------------------

def _attr_names(n: int) -> list[str]:
    return ["A%d" % i for i in range(1, n + 1)]


def cycle_hypergraph(n: int) -> Hypergraph:
    """C_n: the cycle on A1..An as binary edges."""
    if n < 3:
        raise HypergraphError("C_n needs n >= 3")
    vs = _attr_names(n)
    return Hypergraph(vs, [[vs[i], vs[(i + 1) % n]] for i in range(n)])


def clique_complement_hypergraph(n: int) -> Hypergraph:
    """H_n: one edge V \\ {A_i} per vertex A_i."""
    if n < 3:
        raise HypergraphError("H_n needs n >= 3")
    vs = _attr_names(n)
    return Hypergraph(vs, [[v for v in vs if v != a] for a in vs])
