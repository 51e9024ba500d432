"""Schema hypergraphs and their structural classification.

Covers chordality (maximum-cardinality search), conformality (Gilmore's
triple criterion), acyclicity via ear/GYO reduction, join trees, running
intersection orderings, and extraction of minimal non-chordal / non-conformal
witness sets together with the safe-deletion sequences that expose them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bags import _is_name_list

Edge = frozenset


class HypergraphError(ValueError):
    pass


class Hypergraph:
    """A vertex set plus an ordered list of hyperedges.

    The edge list need not be reduced: covered and duplicate edges are
    allowed (bags in a database are aligned with edges by position). Every
    vertex must lie in some edge.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]]):
        vs = tuple(sorted({str(v) for v in vertices}))
        es = tuple(frozenset(str(v) for v in e) for e in edges)
        vset = set(vs)
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

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

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

    def reduce(self) -> "Hypergraph":
        """Drop edges strictly contained in another edge; collapse
        duplicates to one copy."""
        kept: list[Edge] = []
        for e in self.edges:
            if any(e < f for f in self.edges) or e in kept:
                continue
            kept.append(e)
        return Hypergraph(self.vertices, kept)

    def induced(self, w: Iterable[str]) -> "Hypergraph":
        w = {str(v) for v in w}
        if not w <= set(self.vertices):
            raise HypergraphError("W is not a subset of the vertex set")
        kept: list[Edge] = []
        for e in self.edges:
            cut = e & w
            if cut and cut not in kept:
                kept.append(cut)
        return Hypergraph(w, kept)

    # -- classification ----------------------------------------------------

    def is_chordal(self) -> bool:
        return _graph_is_chordal(self.primal_graph())

    def is_conformal(self) -> bool:
        """Gilmore's criterion on the reduced edge set."""
        edges = self.reduce().edges
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                eij = edges[i] & edges[j]
                for k in range(j + 1, n):
                    need = eij | (edges[i] & edges[k]) | (edges[j] & edges[k])
                    if not any(need <= f for f in edges):
                        return False
        return True

    def is_acyclic(self) -> bool:
        """GYO reducibility: the ear reduction empties the edge set."""
        return self.join_tree() is not None

    def join_tree(self) -> Optional["JoinTree"]:
        """A join tree built from the ear (GYO) reduction trace, or None
        when the hypergraph is cyclic."""
        edges = self.edges
        alive = list(range(len(edges)))
        links: list[tuple[int, int]] = []
        while len(alive) > 1:
            ear = None
            for pos, i in enumerate(alive):
                # vertices of edge i shared with some other alive edge
                sep = set()
                for j in alive:
                    if j != i:
                        sep |= edges[i] & edges[j]
                for j in sorted((j for j in alive if j != i),
                                key=lambda j: (tuple(sorted(edges[j])), j)):
                    if sep <= edges[j]:
                        ear = (pos, i, j)
                        break
                if ear:
                    break
            if ear is None:
                return None
            pos, i, j = ear
            links.append((i, j))
            del alive[pos]
        return JoinTree(nodes=edges, links=tuple(links))

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
        return cls(data["vertices"], edges)


@dataclass(frozen=True)
class JoinTree:
    """Tree on hyperedge positions; every vertex's occurrences induce a
    connected subtree."""
    nodes: tuple[Edge, ...]
    links: tuple[tuple[int, int], ...]

    def is_valid(self) -> bool:
        n = len(self.nodes)
        if len(self.links) != max(n - 1, 0):
            return False
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for a, b in self.links:
            if a == b or b in adj[a]:
                return False
            adj[a].add(b)
            adj[b].add(a)
        if n and not _connected(adj, set(range(n))):
            return False
        for v in {u for e in self.nodes for u in e}:
            holders = {i for i in range(n) if v in self.nodes[i]}
            sub = {i: adj[i] & holders for i in holders}
            if not _connected(sub, holders):
                return False
        return True

    def running_intersection_order(self) -> list[tuple[int, Optional[int]]]:
        """An edge listing with the running intersection property, as
        (edge_index, witness_position) pairs, by breadth-first search from
        the canonically smallest edge.

        The witness position points at the earlier listing slot whose edge
        contains the overlap with everything before.
        """
        if not self.nodes:
            return []
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for a, b in self.links:
            adj[a].append(b)
            adj[b].append(a)
        root = min(range(len(self.nodes)),
                   key=lambda i: (tuple(sorted(self.nodes[i])), i))
        order: list[tuple[int, Optional[int]]] = [(root, None)]
        placed = {root: 0}
        frontier = [root]
        while frontier:
            cur = frontier.pop(0)
            kids = sorted((j for j in adj[cur] if j not in placed),
                          key=lambda j: (tuple(sorted(self.nodes[j])), j))
            for j in kids:
                placed[j] = len(order)
                order.append((j, placed[cur]))
                frontier.append(j)
        return order

    def to_json_dict(self) -> dict:
        return {"nodes": [sorted(e) for e in self.nodes],
                "links": [list(l) for l in self.links]}


def _connected(adj: dict[int, set[int]], nodes: set[int]) -> bool:
    if not nodes:
        return True
    seen = set()
    stack = [next(iter(sorted(nodes)))]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    return seen == nodes


def _graph_is_chordal(adj: dict[str, set[str]]) -> bool:
    """Maximum-cardinality search followed by perfect-elimination
    verification."""
    order: list[str] = []
    weight = {v: 0 for v in adj}
    remaining = set(adj)
    while remaining:
        v = min(remaining, key=lambda u: (-weight[u], u))
        order.append(v)
        remaining.remove(v)
        for w in adj[v] & remaining:
            weight[w] += 1
    order.reverse()  # elimination order
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = {w for w in adj[v] if pos[w] > i}
        if later:
            u = min(later, key=lambda w: pos[w])
            if not (later - {u}) <= adj[u]:
                return False
    return True


# -- safe deletions --------------------------------------------------------

VERTEX_DELETION = "vertex-deletion"
COVERED_EDGE_DELETION = "covered-edge-deletion"


@dataclass(frozen=True)
class SafeDeletionOp:
    """A vertex deletion or a covered-edge deletion, identified by value.

    ``cover`` names the covering edge for a covered-edge deletion; for
    duplicate edges the cover may equal the target.
    """
    kind: str
    vertex: Optional[str] = None
    edge: Optional[Edge] = None
    cover: Optional[Edge] = None

    def __post_init__(self):
        if self.kind == VERTEX_DELETION:
            if self.vertex is None:
                raise HypergraphError("vertex-deletion needs a vertex")
        elif self.kind == COVERED_EDGE_DELETION:
            if self.edge is None or self.cover is None:
                raise HypergraphError("covered-edge-deletion needs edge and cover")
            if not self.edge <= self.cover:
                raise HypergraphError("cover does not contain the deleted edge")
        else:
            raise HypergraphError("unknown safe-deletion kind %r" % (self.kind,))

    def to_json_dict(self) -> dict:
        if self.kind == VERTEX_DELETION:
            return {"kind": self.kind, "vertex": self.vertex}
        return {"kind": self.kind, "edge": sorted(self.edge),
                "cover": sorted(self.cover)}


def apply_safe_deletion(h: Hypergraph, op: SafeDeletionOp) -> Hypergraph:
    """Apply one safe-deletion operation, with set semantics: vertex
    deletion is the induced sub-hypergraph on the remaining vertices."""
    if op.kind == VERTEX_DELETION:
        if op.vertex not in h.vertices:
            raise HypergraphError("vertex %r not present" % (op.vertex,))
        return h.induced(set(h.vertices) - {op.vertex})
    positions = [i for i, e in enumerate(h.edges) if e == op.edge]
    if not positions:
        raise HypergraphError("edge %r not present" % (sorted(op.edge),))
    covers = [i for i, e in enumerate(h.edges)
              if op.edge <= e and (e != op.edge or i != positions[0])]
    if not covers:
        raise HypergraphError("edge %r has no cover" % (sorted(op.edge),))
    kept = [e for i, e in enumerate(h.edges) if i != positions[0]]
    return Hypergraph(h.vertices, kept)


def replay_ops(h: Hypergraph, ops: Iterable[SafeDeletionOp]) -> Hypergraph:
    """Replay a safe-deletion sequence with multiset edge tracking.

    Unlike :func:`apply_safe_deletion`, a vertex deletion here shrinks each
    edge in place without deduplicating, so the trailing covered-edge
    deletions of a witness sequence stay applicable and the sequence is
    invertible (which database lifting relies on).
    """
    states = _tracked_replay(list(h.vertices), list(h.edges), ops)
    vertices, edges, _ = states[-1]
    return Hypergraph(vertices, [e for e in edges if e])


def _tracked_replay(vertices: list[str], edges: list[Edge],
                    ops: Iterable[SafeDeletionOp]):
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
    """None iff the hypergraph is chordal and conformal; otherwise a
    minimal obstruction, preferring the non-chordal (cycle) shape."""
    if not h.is_chordal():
        w = _minimize(h, lambda g: not g.is_chordal())
        shape = SHAPE_CYCLE
    elif not h.is_conformal():
        w = _minimize(h, lambda g: not g.is_conformal())
        shape = SHAPE_CLIQUE_COMPLEMENT
    else:
        return None
    ops = _normalizing_ops(h, w)
    reduced = replay_ops(h, ops).reduce()
    if not _matches_shape(reduced, w, shape):
        raise AssertionError(
            "witness minimization did not reach a %s on %r" % (shape, sorted(w)))
    return BadWitness(w=frozenset(w), shape=shape, ops=tuple(ops))


def _minimize(h: Hypergraph, bad) -> set:
    """Greedily delete vertices (canonical order, restart on success) while
    the induced hypergraph stays bad."""
    w = set(h.vertices)
    changed = True
    while changed:
        changed = False
        for v in sorted(w):
            if bad(h.induced(w - {v})):
                w.remove(v)
                changed = True
                break
    return w


def _normalizing_ops(h: Hypergraph, w: set) -> list[SafeDeletionOp]:
    """Vertex deletions of V \\ W followed by covered-edge deletions down to
    the reduced induced hypergraph, valid under multiset replay."""
    ops = [SafeDeletionOp(VERTEX_DELETION, vertex=v)
           for v in sorted(set(h.vertices) - w)]
    # track the edge list through the vertex deletions (no dedup, no drops)
    edges = [e & w for e in h.edges]
    maximal = {e for e in edges if e and not any(e < f for f in edges)}
    kept: list[Edge] = []
    victims: list[Edge] = []
    for e in edges:
        if e in maximal and e not in kept:
            kept.append(e)
        else:
            victims.append(e)
    for e in victims:
        cover = next((f for f in kept if e <= f), None)
        if cover is None:
            raise HypergraphError("no cover available for %r" % (sorted(e),))
        ops.append(SafeDeletionOp(COVERED_EDGE_DELETION, edge=e, cover=cover))
    return ops


def _matches_shape(reduced: Hypergraph, w: set, shape: str) -> bool:
    n = len(w)
    edges = set(reduced.edges)
    if set(reduced.vertices) != w:
        return False
    if shape == SHAPE_CLIQUE_COMPLEMENT:
        if n < 3:
            return False
        return edges == {frozenset(w - {v}) for v in w}
    if n < 4 or len(edges) != n:
        return False
    if any(len(e) != 2 for e in edges):
        return False
    deg = {v: 0 for v in w}
    for e in edges:
        for v in e:
            deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return False
    adj = {v: set() for v in w}
    for e in edges:
        a, b = sorted(e)
        adj[a].add(b)
        adj[b].add(a)
    return _connected_str(adj, w)


def _connected_str(adj: dict[str, set[str]], nodes: set) -> bool:
    seen: set = set()
    stack = [next(iter(sorted(nodes)))]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    return seen == nodes


# -- named generators ------------------------------------------------------

def _attr_names(n: int) -> list[str]:
    return ["A%d" % i for i in range(1, n + 1)]


def path_hypergraph(n: int) -> Hypergraph:
    """P_n: the path A1-A2-...-An as consecutive binary edges."""
    if n < 2:
        raise HypergraphError("P_n needs n >= 2")
    vs = _attr_names(n)
    return Hypergraph(vs, [[vs[i], vs[i + 1]] for i in range(n - 1)])


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
