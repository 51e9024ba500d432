"""Consistency deciders and constructors for bag databases.

Two bags are consistent iff their marginals on the shared attributes agree;
a minimal two-bag witness is filled in by the northwest-corner rule, one
shared-key group at a time. Collections over acyclic schemas chain minimal
two-bag witnesses along a running-intersection order; cyclic schemas fall
back to the brute-force oracle. The max-flow characterisation survives only
as ``two_bag_witness``, an independent reference for the tests. Also houses
the mod-d counterexample generator, safe-deletion lifting, and the
hardness-reduction instance transformations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .bags import Bag, make_schema
# keep all four names, used or not: perfbench/tracer.py patches them here
from .flow import build_network, is_saturated, max_flow, suppress_middle_arc
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    SafeDeletionOp,
    _tracked_replay,
    clique_complement_hypergraph,
    cycle_hypergraph,
)
from .oracle import EXHAUSTED, OracleBudget, check_witness, solve_feasibility


class CyclicHypergraphError(ValueError):
    """Raised when an acyclic-only algorithm receives a cyclic schema."""


class OracleExhaustedError(RuntimeError):
    pass


class DatabaseError(ValueError):
    pass


GLOBAL_YES = "yes"
GLOBAL_NO = "no"
GLOBAL_UNKNOWN = "unknown-cyclic"

# auto mode hands cyclic instances to the oracle only below this join bound
AUTO_ORACLE_SUPPORT_LIMIT = 10 ** 6


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
            if bag.schema != tuple(sorted(edge)):
                raise DatabaseError(
                    "bag schema %r does not match edge %r"
                    % (bag.schema, sorted(edge)))

    def union_schema(self) -> tuple:
        return tuple(sorted({a for bag in self.bags for a in bag.schema}))

    def to_json_dict(self) -> dict:
        return {"hypergraph": self.hypergraph.to_json_dict(),
                "bags": [bag.to_json_dict() for bag in self.bags]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BagDatabase":
        if not isinstance(data, dict) or "hypergraph" not in data or "bags" not in data:
            raise DatabaseError("database JSON needs 'hypergraph' and 'bags'")
        if not isinstance(data["bags"], list):
            raise DatabaseError("database 'bags' must be a list")
        return cls(Hypergraph.from_json_dict(data["hypergraph"]),
                   tuple(Bag.from_json_dict(b) for b in data["bags"]))


@dataclass(frozen=True)
class ConsistencyReport:
    pairwise_ok: bool
    inconsistent_pairs: tuple
    global_status: str
    witness: Optional[Bag] = None
    oracle_exhausted: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "pairwise": {"consistent": self.pairwise_ok,
                         "inconsistent_pairs": [list(p) for p in
                                                self.inconsistent_pairs]},
            "global": self.global_status,
            "oracle_exhausted": self.oracle_exhausted,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


# -- two bags --------------------------------------------------------------

def pairwise_consistent(r: Bag, s: Bag) -> bool:
    """Equal marginals on the shared attributes (total mass, when the
    schemas are disjoint)."""
    shared = set(r.schema) & set(s.schema)
    return r.marginal(shared) == s.marginal(shared)


def two_bag_witness(r: Bag, s: Bag) -> Optional[Bag]:
    """Some witness from a saturated integral max flow, or None."""
    net = build_network(r, s)
    flow = max_flow(net)
    if not is_saturated(net, flow):
        return None
    return _witness_from_flow(net, flow, r, s)


def minimal_two_bag_witness(r: Bag, s: Bag) -> Optional[Bag]:
    """A witness with inclusion-minimal support, or None.

    Rows of both bags are grouped by their value on the shared attributes.
    Every left row of a group joins every right row of it, so each group is
    a balanced transportation problem, filled here by the northwest-corner
    rule in canonical row order. Each group's support is then a staircase
    tree, which makes the witness a vertex of the transportation polytope:
    no witness has a strictly smaller support, and it has at most
    |supp r| + |supp s| - 1 rows.
    """
    if not pairwise_consistent(r, s):
        return None
    shared = [a for a in r.schema if a in s.schema]
    r_key = [r.schema.index(a) for a in shared]
    s_key = [s.schema.index(a) for a in shared]
    join_schema = make_schema(set(r.schema) | set(s.schema))
    # positions of the join attributes in a left row followed by a right row
    both = r.schema + s.schema
    pick = [both.index(a) for a in join_schema]
    groups: dict = {}
    for row in r.rows():
        key = tuple(row[i] for i in r_key)
        groups.setdefault(key, ([], []))[0].append([row, r.entries[row]])
    for row in s.rows():
        key = tuple(row[i] for i in s_key)
        groups[key][1].append([row, s.entries[row]])
    entries = {}
    for left, right in groups.values():
        i = j = 0
        while i < len(left) and j < len(right):
            lcell, rcell = left[i], right[j]
            mult = min(lcell[1], rcell[1])
            joined = lcell[0] + rcell[0]
            entries[tuple(joined[k] for k in pick)] = mult
            lcell[1] -= mult
            rcell[1] -= mult
            if not lcell[1]:
                i += 1
            if not rcell[1]:
                j += 1
    return _checked_witness(Bag(join_schema, entries), r, s)


def _witness_from_flow(net, flow, r: Bag, s: Bag) -> Bag:
    entries = {jrow: f for (_, _, jrow), f in zip(net.middles, flow.middle_flows)
               if f}
    return _checked_witness(Bag(net.join_schema, entries), r, s)


def _checked_witness(witness: Bag, r: Bag, s: Bag) -> Bag:
    # re-verify before handing out
    if witness.marginal(r.schema) != r or witness.marginal(s.schema) != s:
        raise AssertionError("constructed an invalid two-bag witness")
    return witness


# -- collections -----------------------------------------------------------

def inconsistent_pairs(db: BagDatabase) -> list:
    out = []
    for i, j in itertools.combinations(range(len(db.bags)), 2):
        if not pairwise_consistent(db.bags[i], db.bags[j]):
            out.append((i, j))
    return out


def acyclic_global_witness(db: BagDatabase) -> Optional[Bag]:
    """Witness by running-intersection chaining of minimal two-bag
    witnesses; None iff some pair is inconsistent."""
    order = db.hypergraph.running_intersection_order()
    if order is None:
        raise CyclicHypergraphError(
            "schema is cyclic; use the oracle path instead")
    if inconsistent_pairs(db):
        return None
    return _chain_witness(db, order)


def _chain_witness(db: BagDatabase, order) -> Bag:
    """Chain minimal two-bag witnesses along a running-intersection order
    of a pairwise-consistent database."""
    if not db.bags:
        return Bag((), {})
    witness = db.bags[order[0][0]]
    for idx, _ in order[1:]:
        witness = minimal_two_bag_witness(witness, db.bags[idx])
        if witness is None:  # cannot happen for pairwise-consistent input
            raise AssertionError("chaining failed on a consistent collection")
    for bag in db.bags:
        if witness.marginal(bag.schema) != bag:
            raise AssertionError("chained witness fails a marginal check")
    return witness


def global_consistent(db: BagDatabase, mode: str = "auto",
                      budget: Optional[OracleBudget] = None) -> ConsistencyReport:
    """Check every pair and classify the schema once. An inconsistent pair
    answers no; an acyclic schema answers yes with a chained witness; a
    cyclic one goes to the oracle."""
    if mode not in ("auto", "oracle"):
        raise ValueError("mode must be 'auto' or 'oracle'")
    bad_pairs = tuple(inconsistent_pairs(db))
    pairwise_ok = not bad_pairs
    order = db.hypergraph.running_intersection_order()
    if not pairwise_ok:
        return ConsistencyReport(pairwise_ok, bad_pairs, GLOBAL_NO)
    if order is not None:
        return ConsistencyReport(pairwise_ok, bad_pairs, GLOBAL_YES,
                                 _chain_witness(db, order))
    join_bound = 1
    for bag in db.bags:
        join_bound *= max(len(bag), 1)
    if mode == "oracle" or join_bound <= AUTO_ORACLE_SUPPORT_LIMIT:
        result = solve_feasibility(db, budget)
        if result is EXHAUSTED:
            return ConsistencyReport(pairwise_ok, bad_pairs, GLOBAL_UNKNOWN,
                                     oracle_exhausted=True)
        if result is None:
            return ConsistencyReport(pairwise_ok, bad_pairs, GLOBAL_NO)
        return ConsistencyReport(pairwise_ok, bad_pairs, GLOBAL_YES, result)
    return ConsistencyReport(pairwise_ok, bad_pairs, GLOBAL_UNKNOWN)


def k_wise_consistent(db: BagDatabase, k: int,
                      budget: Optional[OracleBudget] = None) -> bool:
    """Every subcollection of size <= k is globally consistent."""
    m = len(db.bags)
    if not 1 <= k <= m:
        raise ValueError("k must be between 1 and the number of bags")
    for i, j in itertools.combinations(range(m), 2):
        if not pairwise_consistent(db.bags[i], db.bags[j]):
            return False
    for size in range(3, k + 1):
        for subset in itertools.combinations(range(m), size):
            sub = _sub_database(db, subset)
            if sub.hypergraph.is_acyclic():
                continue  # pairwise already verified, acyclic => consistent
            result = solve_feasibility(sub, budget)
            if result is EXHAUSTED:
                raise OracleExhaustedError(
                    "oracle budget exceeded on subset %r" % (subset,))
            if result is None:
                return False
    return True


def _sub_database(db: BagDatabase, indices: Iterable[int]) -> BagDatabase:
    indices = list(indices)
    edges = [db.hypergraph.edges[i] for i in indices]
    vertices = set().union(*edges) if edges else set()
    return BagDatabase(Hypergraph(vertices, edges),
                       tuple(db.bags[i] for i in indices))


# -- counterexample generator ----------------------------------------------

def tseitin_counterexample(h: Hypergraph) -> BagDatabase:
    """Pairwise-consistent, globally inconsistent 0/1 bags over a k-uniform
    d-regular hypergraph: coordinate sums are 0 mod d on every edge except
    the last, where they are 1 mod d."""
    if not h.edges:
        raise HypergraphError("need at least one hyperedge")
    sizes = {len(e) for e in h.edges}
    if len(sizes) != 1:
        raise HypergraphError("hypergraph is not uniform")
    k = sizes.pop()
    degrees = {v: 0 for v in h.vertices}
    for e in h.edges:
        for v in e:
            degrees[v] += 1
    reg = set(degrees.values())
    if len(reg) != 1:
        raise HypergraphError("hypergraph is not regular")
    d = reg.pop()
    if d < 2:
        raise HypergraphError("regularity degree must be at least 2")
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
                    ops: Iterable[SafeDeletionOp],
                    default_values: Optional[dict] = None) -> BagDatabase:
    """Invert a safe-deletion sequence: given bags over the reduced
    hypergraph, produce bags over the original one, preserving k-wise
    consistency in both directions.

    ``ops`` must transform ``h1`` into ``d0``'s hypergraph. Deleted covered
    edges are refilled with marginals of their cover's bag; deleted vertices
    are refilled with a default value at full carried-over multiplicity.
    """
    defaults = dict(default_values or {})
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
    pool: dict = {}
    for bag, edge in zip(d0.bags, d0.hypergraph.edges):
        pool.setdefault(edge, []).append(bag)
    bags = [pool[e].pop(0) for e in final_edges]

    for t in range(len(ops) - 1, -1, -1):
        record = states[t][2]
        before_edges = states[t][1]
        if record[0] == "vertex":
            _, v = record
            u0 = str(defaults.get(v, "0"))
            bags = [
                _pad_with_default(bag, v, u0) if v in before_edges[i] else bag
                for i, bag in enumerate(bags)
            ]
        else:
            _, pos, cover_pos = record
            removed = before_edges[pos]
            refill = bags[cover_pos].marginal(removed)
            bags = bags[:pos] + [refill] + bags[pos:]
    return BagDatabase(h1, tuple(bags))


def _pad_with_default(bag: Bag, attr: str, value: str) -> Bag:
    schema = make_schema(set(bag.schema) | {attr})
    pos = schema.index(attr)
    entries = {}
    for row, mult in bag.entries.items():
        entries[row[:pos] + (value,) + row[pos:]] = mult
    return Bag(schema, entries)


# -- hardness reductions ---------------------------------------------------

def _rename_attribute(bag: Bag, old: str, new: str) -> Bag:
    mapping = {a: (new if a == old else a) for a in bag.schema}
    schema = make_schema(mapping.values())
    src = {mapping[a]: i for i, a in enumerate(bag.schema)}
    entries = {tuple(row[src[a]] for a in schema): m
               for row, m in bag.entries.items()}
    return Bag(schema, entries)


def cycle_hardness_lift(db: BagDatabase) -> BagDatabase:
    """One step of the cycle reduction: stretch a C_{n-1} instance into a
    C_n instance with the same global-consistency answer."""
    m = len(db.bags)
    if m < 3 or db.hypergraph != cycle_hypergraph(m):
        raise DatabaseError("input must be a database over C_%d (n >= 3)" % m)
    n = m + 1
    a_last, a_new = "A%d" % m, "A%d" % n
    old_last = db.bags[-1]  # schema {A1, A_{n-1}}
    stretched = _rename_attribute(old_last, "A1", a_new)
    ring_marg = old_last.marginal(["A1"])
    closing = Bag(make_schema(["A1", a_new]),
                  {(a, a): mult for (a,), mult in ring_marg.entries.items()})
    return BagDatabase(cycle_hypergraph(n),
                       tuple(db.bags[:-1]) + (stretched, closing))


def clique_hardness_lift(db: BagDatabase) -> BagDatabase:
    """One step of the clique-complement reduction: lift an H_{n-1}
    instance to H_n over a new binary attribute, preserving the answer."""
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
    old_attrs = tuple(sorted(db.hypergraph.vertices))
    entries = {}
    if max_mult:
        for values in itertools.product(*(sorted(active[a]) for a in old_attrs)):
            entries[values] = max_mult
    out_bags.append(Bag(old_attrs, entries))
    return BagDatabase(clique_complement_hypergraph(n), tuple(out_bags))


def encode_3dct(r_table, c_table, f_table) -> BagDatabase:
    """Three n x n margin tables as a triangle database: globally consistent
    iff the contingency-table instance is feasible."""
    tables = {"R": r_table, "C": c_table, "F": f_table}
    n = len(r_table) if isinstance(r_table, (list, tuple)) else -1
    for name, tab in tables.items():
        if (not isinstance(tab, (list, tuple)) or len(tab) != n
                or any(not isinstance(row, (list, tuple)) or len(row) != n
                       for row in tab)):
            raise ValueError("table %s is not an n x n grid" % name)
        for row in tab:
            for v in row:
                try:
                    negative = int(v) < 0
                except TypeError:
                    raise ValueError("table %s has a non-numeric entry" % name)
                if negative:
                    raise ValueError("table %s has a negative entry" % name)
    tri = Hypergraph(["X", "Y", "Z"], [["X", "Z"], ["Y", "Z"], ["X", "Y"]])

    def to_bag(schema, tab):
        entries = {}
        for i in range(n):
            for j in range(n):
                if int(tab[i][j]):
                    entries[(str(i + 1), str(j + 1))] = int(tab[i][j])
        return Bag(schema, entries)

    return BagDatabase(tri, (
        to_bag(("X", "Z"), r_table),
        to_bag(("Y", "Z"), c_table),
        to_bag(("X", "Y"), f_table),
    ))
