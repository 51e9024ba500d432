"""Consistency deciders and constructors for bag databases.

Two bags are consistent iff their marginals on the shared attributes agree;
the deciders compare them as plain dicts, summed by ``bags._summed`` once
per (bag, shared set), and build no ``Bag`` to compare. On one shared
attribute the dicts are keyed by bare cells, not rows: two bags are only
ever compared on the same set, where bare cells compare as 1-tuples do.
A minimal two-bag witness is filled in by the northwest-corner rule, one
shared-key group at a time. ``global_consistent`` is the one decider of
global consistency, on one path for every schema: the GYO peel splits the
schema into ears, each compared with its cover, and a core, compared
pairwise; the oracle decides a core of two edges or more within its budget,
and the ears are glued onto the core's witness, last removed first. The
glue extends its rows in place, so it runs in time linear in the witness it
builds. An acyclic schema is the case with at most one edge left. All pairs
are listed only to explain a no. Every finished witness is checked exactly
once. Also houses the mod-d counterexample generator, safe-deletion
lifting, and the hardness-reduction instance transformations. Nothing here
touches the cyclic GC: only ``cli.run`` changes process-wide state.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .bags import Bag, _group_key, _row_key, _summed, make_schema
# unused here: the benchmark's tracer wraps these three names in this module
from .flow import build_network, max_flow, suppress_middle_arc
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    SafeDeletionOp,
    _replay,
    clique_complement_hypergraph,
    cycle_hypergraph,
)
from .oracle import EXHAUSTED, OracleBudget, check_witness, solve_feasibility


class DatabaseError(ValueError):
    pass


GLOBAL_YES = "yes"
GLOBAL_NO = "no"
GLOBAL_UNKNOWN = "unknown-cyclic"

# the most grid cells clique_hardness_lift fills, and the most rows
# tseitin_counterexample builds
MAX_BUILT_ROWS = 10 ** 6


def check_built_rows(what: str, m: int, d: int, k: int) -> None:
    """Raise DatabaseError when m bags of d^(k - 1) rows each hold more
    than ``MAX_BUILT_ROWS`` rows in all. The count is multiplied up one
    factor at a time, so a huge k stops at once."""
    rows = m
    for _ in range(k - 1):
        if rows > MAX_BUILT_ROWS:
            break
        rows *= d
    if rows > MAX_BUILT_ROWS:
        raise DatabaseError("%s has %d * %d^%d rows, more than %d"
                            % (what, m, d, k - 1, MAX_BUILT_ROWS))


@dataclass(frozen=True)
class BagDatabase:
    """A hypergraph plus one bag per hyperedge, aligned by position."""
    hypergraph: Hypergraph
    bags: tuple

    def __post_init__(self):
        bags = tuple(self.bags)
        object.__setattr__(self, "bags", bags)
        if len(bags) != len(self.hypergraph.edges):
            raise DatabaseError("need exactly one bag per hyperedge")
        for bag, edge in zip(bags, self.hypergraph.edges):
            # a bag's schema is sorted and names no attribute twice
            if frozenset(bag.schema) != edge:
                raise DatabaseError(
                    "bag schema %r does not match edge %r"
                    % (bag.schema, sorted(edge)))

    def to_json_dict(self) -> dict:
        out = self._json_layout()
        out["bags"] = [bag.to_json_dict() for bag in self.bags]
        return out

    def _json_layout(self) -> dict:
        """``to_json_dict`` with the bags left ``Bag`` objects, for writers
        that write bags themselves."""
        return {"hypergraph": self.hypergraph.to_json_dict(),
                "bags": list(self.bags)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BagDatabase":
        if not isinstance(data, dict) or "hypergraph" not in data or "bags" not in data:
            raise DatabaseError("database JSON needs 'hypergraph' and 'bags'")
        if not isinstance(data["bags"], list):
            raise DatabaseError("database 'bags' must be a list")
        return cls(Hypergraph.from_json_dict(data["hypergraph"]),
                   tuple(map(Bag.from_json_dict, data["bags"])))


@dataclass(frozen=True)
class ConsistencyReport:
    inconsistent_pairs: tuple
    global_status: str
    witness: Optional[Bag] = None

    @property
    def oracle_exhausted(self) -> bool:
        """Only a spent oracle budget leaves the answer unknown."""
        return self.global_status == GLOBAL_UNKNOWN

    @property
    def pairwise_ok(self) -> bool:
        return not self.inconsistent_pairs

    def to_json_dict(self) -> dict:
        out = self._json_layout()
        if "witness" in out:
            out["witness"] = self.witness.to_json_dict()
        return out

    def _json_layout(self) -> dict:
        """``to_json_dict`` with the witness left a ``Bag``, for writers
        that write bags themselves."""
        out = {
            "pairwise": {"consistent": self.pairwise_ok,
                         "inconsistent_pairs": [list(p) for p in
                                                self.inconsistent_pairs]},
            "global": self.global_status,
            "oracle_exhausted": self.oracle_exhausted,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# -- two bags --------------------------------------------------------------

def pairwise_consistent(r: Bag, s: Bag) -> bool:
    """Equal marginals on the shared attributes (total mass, when the
    schemas are disjoint)."""
    marginal = _marginal_memo((r, s))
    shared = frozenset(r.schema) & frozenset(s.schema)
    return marginal(0, shared) == marginal(1, shared)


def minimal_two_bag_witness(r: Bag, s: Bag) -> Optional[Bag]:
    """A witness with inclusion-minimal support, or None when the bags are
    inconsistent: the two-bag case of :func:`_northwest_glue`. Each
    shared-key group is a balanced transportation problem, and its
    northwest-corner support is a staircase tree, which makes the witness a
    vertex of the transportation polytope: no witness has a strictly
    smaller support, and it has at most |supp r| + |supp s| - 1 rows.
    """
    if not pairwise_consistent(r, s):
        return None
    witness = _northwest_glue((r, s))
    # re-verify before handing out
    if witness.marginal(r.schema) != r or witness.marginal(s.schema) != s:
        raise AssertionError("constructed an invalid two-bag witness")
    return witness


def _northwest_glue(bags) -> Bag:
    """Glue the bags, in order, onto one growing list of rows and one of
    their multiplicities. Each bag must agree with the rows so far on their
    shared marginal; the callers check that first, and check the result
    exactly.

    Each step groups both sides by their value on the shared attributes,
    by one C-level getter each, and fills every group by one
    northwest-corner merge: the left rows in order against one iterator
    over the right rows, the two masses left in two counters (each bag's
    rows come in canonical order, the rows so far in the order they were
    made). The rows so far are lists. A left row's last cell extends it in
    place with the bag's new attributes, and only its earlier cells copy
    it, each copy a new witness row; so a step costs the rows so far plus
    the cells it writes, never the width of the rows so far, and the glue
    is linear in the witness it builds. The multiplicities live in their
    own list, so each row is the one container the cyclic GC tracks. The
    rows hold no reference cycles, and on 30k-54k-row witnesses the GC's
    passes over the live lists cost more than the copies saved, but the
    glue leaves the GC as its caller has it: ``cli.run`` turns it off for
    the whole verb, and a library caller that glues large witnesses can
    call ``gc.disable()`` around its calls. Rows are permuted into schema
    order, as tuples, once at the end. Along a running-intersection order
    each step is a minimal two-bag witness, so the result has at most
    sum |supp B_i| - (m - 1) rows. No bags glue to the empty bag.
    """
    if not bags:
        return Bag((), {})
    first = bags[0]
    at = {a: k for k, a in enumerate(first.schema)}
    cells = sorted(first.entries.items())
    rows = [list(row) for row, _ in cells]
    mults = [mult for _, mult in cells]
    for bag in bags[1:]:
        key = _group_key([at[a] for a in bag.schema if a in at])
        bag_key = _group_key([k for k, a in enumerate(bag.schema) if a in at])
        new = [k for k, a in enumerate(bag.schema) if a not in at]
        new_cells = _row_key(new)
        left = defaultdict(list)
        for i, k in enumerate(map(key, rows)):
            left[k].append(i)
        right: dict = {}
        for row, mult in sorted(bag.entries.items()):
            right.setdefault(bag_key(row), []).append((new_cells(row), mult))
        prev_rows, prev_mults = rows, mults
        rows, mults = [], []
        for k, group in left.items():
            rights = iter(right[k])
            rmass = 0
            for i in group:
                lrow, lmass = prev_rows[i], prev_mults[i]
                if not rmass:
                    rrow, rmass = next(rights)
                while lmass > rmass:
                    rows.append([*lrow, *rrow])
                    mults.append(rmass)
                    lmass -= rmass
                    rrow, rmass = next(rights)
                lrow += rrow
                rows.append(lrow)
                mults.append(lmass)
                rmass -= lmass
        for k in new:
            at[bag.schema[k]] = len(at)
    schema = make_schema(at)
    pick = _row_key([at[a] for a in schema])
    return Bag._trusted(schema, dict(zip(map(pick, rows), mults)))


# -- collections -----------------------------------------------------------

def _marginal_memo(bags):
    """``marginal(i, shared)``: bag i's rows summed onto ``shared`` in its
    sorted schema's order (so bags key a set alike), once per (bag, set);
    keyed as :func:`bags._summed` keys, a bare cell on one attribute."""
    return functools.cache(lambda i, shared: _summed(
        [k for k, a in enumerate(bags[i].schema) if a in shared], bags[i].entries))


def inconsistent_pairs(db: BagDatabase, _marginal=None) -> list:
    """Every pair (i, j), i < j, of bags whose marginals on their shared
    attributes differ. Each bag's marginal on each distinct shared set is
    computed once per call, or once per ``_marginal`` memo passed in."""
    marginal = _marginal or _marginal_memo(db.bags)
    edges = db.hypergraph.edges
    out = []
    for i, j in itertools.combinations(range(len(edges)), 2):
        shared = edges[i] & edges[j]
        if marginal(i, shared) != marginal(j, shared):
            out.append((i, j))
    return out


def global_consistent(db: BagDatabase,
                      budget: Optional[OracleBudget] = None) -> ConsistencyReport:
    """Peel the schema once, through ``Hypergraph._peeled``, which the
    join tree reads too. Unless each ear agrees with its cover and the
    core's bags pairwise, all pairs are listed to explain a no. A core of
    two edges or more goes to the oracle, whose ``budget`` (join rows,
    nodes, seconds) alone decides when to stop: a spent budget answers
    ``unknown-cyclic``. A yes glues the ears, last removed first, onto the
    core's witness or bag (each one's overlap with the rows so far lies in
    its cover), and the witness is checked exactly, once."""
    edges = db.hypergraph.edges
    ears, core = db.hypergraph._peeled
    marginal = _marginal_memo(db.bags)
    if not all(marginal(i, shared := edges[i] & edges[j]) == marginal(j, shared)
               for i, j in itertools.chain(ears, itertools.combinations(core, 2))):
        bad_pairs = tuple(inconsistent_pairs(db, marginal))
        if not bad_pairs:
            raise AssertionError("an ear or core pair disagrees, but no pair does")
        return ConsistencyReport(bad_pairs, GLOBAL_NO)
    parts = tuple(db.bags[i] for i in core)
    if len(core) > 1:
        core_edges = [edges[i] for i in core]
        witness = solve_feasibility(BagDatabase(
            Hypergraph(set().union(*core_edges), core_edges), parts), budget)
        if witness is EXHAUSTED:
            return ConsistencyReport((), GLOBAL_UNKNOWN)
        if witness is None:
            return ConsistencyReport((), GLOBAL_NO)
        parts = (witness,)
    parts += tuple(db.bags[ear] for ear, _ in reversed(ears))
    witness = parts[0] if len(parts) == 1 else _northwest_glue(parts)
    if not check_witness(witness, db):
        raise AssertionError("constructed an invalid global witness")
    return ConsistencyReport((), GLOBAL_YES, witness)


# -- counterexample generator ----------------------------------------------

def tseitin_counterexample(h: Hypergraph) -> BagDatabase:
    """Pairwise-consistent, globally inconsistent 0/1 bags over a k-uniform
    d-regular hypergraph: coordinate sums are 0 mod d on every edge except
    the last, where they are 1 mod d. Past ``MAX_BUILT_ROWS`` rows in all,
    DatabaseError is raised before any row is built."""
    if not h.edges:
        raise HypergraphError("need at least one hyperedge")
    sizes = {len(e) for e in h.edges}
    if len(sizes) != 1:
        raise HypergraphError("hypergraph is not uniform")
    k = sizes.pop()
    reg = set(Counter(v for e in h.edges for v in e).values())
    if len(reg) != 1:
        raise HypergraphError("hypergraph is not regular")
    d = reg.pop()
    if d < 2:
        raise HypergraphError("regularity degree must be at least 2")
    check_built_rows("the counterexample", len(h.edges), d, k)
    bags = []
    for pos, edge in enumerate(h.edges):
        schema = tuple(sorted(edge))
        residue = 1 if pos == len(h.edges) - 1 else 0
        entries = {}
        for values in itertools.product(range(d), repeat=k):
            if sum(values) % d == residue:
                entries[tuple(str(v) for v in values)] = 1
        bags.append(Bag(schema, entries))
    return BagDatabase(h, tuple(bags))


# -- lifting along safe deletions ------------------------------------------

def lift_collection(d0: BagDatabase, h1: Hypergraph,
                    ops: Iterable[SafeDeletionOp]) -> BagDatabase:
    """Invert a safe-deletion sequence: given bags over the reduced
    hypergraph, produce bags over the original one, preserving k-wise
    consistency in both directions.

    ``ops`` must transform ``h1`` into ``d0``'s hypergraph. Deleted covered
    edges are refilled, last first, with their cover's marginal on the
    vertices the ops leave; then each bag is padded once to its edge in
    ``h1``, every deleted vertex "0". Padding with a constant commutes with
    marginals, so this equals refilling and padding op by op.
    """
    ops = list(ops)
    vertices, edges, records = _replay(h1, ops)
    if not all(edges.values()):
        raise DatabaseError(
            "ops leave empty edges; cannot align bags for lifting")
    if sorted(edges.values(), key=sorted) != sorted(d0.hypergraph.edges, key=sorted):
        raise DatabaseError(
            "replaying ops on the target hypergraph does not yield the "
            "database's hypergraph")
    # align d0's bags with the edges left by edge value; bags are keyed by
    # their edge's index in h1
    pool: dict = {}
    for bag, edge in zip(d0.bags, d0.hypergraph.edges):
        pool.setdefault(edge, []).append(bag)
    bags = {i: pool[e].pop(0) for i, e in edges.items()}
    for op, record in zip(reversed(ops), reversed(records)):
        if record is not None:
            removed, cover = record
            bags[removed] = bags[cover].marginal(op.edge & vertices)
    return BagDatabase(h1, tuple(_reshaped(bags[i], {}, edge)
                                 for i, edge in enumerate(h1.edges)))


def _reshaped(bag: Bag, names: dict, edge=()) -> Bag:
    """``bag`` with its attributes renamed by ``names`` (old -> new) and
    those of ``edge`` it lacks added, "0" in every row: one permutation of
    each row into the sorted schema, stored as is (the cells are strings,
    and no two rows merge)."""
    at = {names.get(a, a): k for k, a in enumerate(bag.schema)}
    schema = make_schema(at.keys() | edge)
    pick = _row_key([at.get(a, len(bag.schema)) for a in schema])
    return Bag._trusted(schema, {pick(row + ("0",)): mult
                                 for row, mult in bag.entries.items()})


# -- hardness reductions ---------------------------------------------------

def cycle_hardness_lift(db: BagDatabase) -> BagDatabase:
    """One step of the cycle reduction: stretch a C_{n-1} instance into a
    C_n instance with the same global-consistency answer."""
    m = len(db.bags)
    if m < 3 or db.hypergraph != cycle_hypergraph(m):
        raise DatabaseError("input must be a database over C_%d (n >= 3)" % m)
    n = m + 1
    a_new = "A%d" % n
    old_last = db.bags[-1]  # schema {A1, A_{n-1}}
    stretched = _reshaped(old_last, {"A1": a_new})
    ring_marg = old_last.marginal(["A1"])
    closing = Bag(make_schema(["A1", a_new]),
                  {(a, a): mult for (a,), mult in ring_marg.entries.items()})
    return BagDatabase(cycle_hypergraph(n),
                       tuple(db.bags[:-1]) + (stretched, closing))


def clique_hardness_lift(db: BagDatabase) -> BagDatabase:
    """One step of the clique-complement reduction: lift an H_{n-1}
    instance to H_n over a new binary attribute, preserving the answer.
    Each bag is filled over the product of its attributes' active domains,
    and the new bag over all of them; past ``MAX_BUILT_ROWS`` such grid
    cells in all, DatabaseError is raised before any row is built."""
    m = len(db.bags)
    if m < 3 or db.hypergraph != clique_complement_hypergraph(m):
        raise DatabaseError("input must be a database over H_%d (n >= 3)" % m)
    n = m + 1
    a_new = "A%d" % n
    active: dict[str, set] = {v: set() for v in db.hypergraph.vertices}
    max_mult = 0
    for bag in db.bags:
        for row, mult in bag.entries.items():
            max_mult = max(max_mult, mult)
            for a, val in zip(bag.schema, row):
                active[a].add(val)
    old_attrs = tuple(sorted(db.hypergraph.vertices))
    if max_mult and not all(active.values()):
        raise DatabaseError("the lift to H_%d needs a value of every "
                            "attribute when a bag has rows" % n)
    cells = sum(math.prod(len(active[a]) for a in attrs)
                for attrs in [bag.schema for bag in db.bags] + [old_attrs])
    if cells > MAX_BUILT_ROWS:
        raise DatabaseError("the lift to H_%d has more than %d grid cells"
                            % (n, MAX_BUILT_ROWS))
    out_bags = []
    for i, bag in enumerate(db.bags):
        missing = "A%d" % (i + 1)
        schema = make_schema(set(bag.schema) | {a_new})
        pos = schema.index(a_new)
        dom_size = len(active[missing])
        grid_attrs = bag.schema
        entries = {}
        for values in itertools.product(*(sorted(active[a]) for a in grid_attrs)):
            base = bag.entries.get(values, 0)
            high = max_mult * dom_size - base
            if base:
                entries[values[:pos] + ("1",) + values[pos:]] = base
            if high:
                entries[values[:pos] + ("2",) + values[pos:]] = high
        out_bags.append(Bag(schema, entries))
    # the new bag covers the old attributes at constant multiplicity
    entries = {}
    if max_mult:
        for values in itertools.product(*(sorted(active[a]) for a in old_attrs)):
            entries[values] = max_mult
    out_bags.append(Bag(old_attrs, entries))
    return BagDatabase(clique_complement_hypergraph(n), tuple(out_bags))


def encode_3dct(r_table, c_table, f_table) -> BagDatabase:
    """Three n x n margin tables as a triangle database: globally consistent
    iff the contingency-table instance is feasible. The tables are read in
    the order R, C, F, each checked for shape and then made a bag, whose
    constructor refuses a count that is not a non-negative int; the first
    fault is raised with its table's name."""
    n = len(r_table) if isinstance(r_table, (list, tuple)) else -1
    schemas = (("X", "Z"), ("Y", "Z"), ("X", "Y"))
    bags = []
    for name, schema, tab in zip("RCF", schemas, (r_table, c_table, f_table)):
        if (not isinstance(tab, (list, tuple)) or len(tab) != n
                or any(not isinstance(row, (list, tuple)) or len(row) != n
                       for row in tab)):
            raise ValueError("table %s is not an n x n grid" % name)
        try:  # zero counts are passed too, so each cell is checked
            bags.append(Bag(schema, (((str(i), str(j)), count)
                                     for i, row in enumerate(tab, 1)
                                     for j, count in enumerate(row, 1))))
        except ValueError as exc:
            raise ValueError("table %s: %s" % (name, exc)) from None
    return BagDatabase(Hypergraph(["X", "Y", "Z"], schemas), tuple(bags))
