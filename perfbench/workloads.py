"""Seeded input generators for the four benchmark workloads.

Every generator is the benchmark's own code: it writes database and schema
files in the CLI's JSON format and knows the right answer for each of them
from how it was built, never by asking ``bagconsist``.

A bag is a pair ``(schema, entries)``: a sorted tuple of attribute names and
a dict from value tuples (aligned with the schema) to positive ints.
"""
from __future__ import annotations

import itertools
import json
import os
import random

YES, NO = "yes", "no"

# Oracle jobs stop on a node budget, so whether they end EXHAUSTED does not
# depend on machine speed; the seconds budget is only a safety net.
ORACLE_NODES = 1_000_000
ORACLE_SECONDS = 120.0
# Budget of the dense tables expected to exhaust it: about 0.25 s of search,
# short enough for the calibration around each job to follow the host.
EXHAUST_NODES = 200_000


# -- bag helpers -------------------------------------------------------------

def marginal(bag, attrs):
    """The marginal of a bag on a sub-schema, summing agreeing rows."""
    schema, entries = bag
    sub = tuple(sorted(attrs))
    idx = [schema.index(a) for a in sub]
    out = {}
    for row, mult in entries.items():
        key = tuple(row[i] for i in idx)
        out[key] = out.get(key, 0) + mult
    return sub, out


def bag_json(bag):
    schema, entries = bag
    return {"schema": list(schema),
            "tuples": [{"values": dict(zip(schema, row)), "mult": str(m)}
                       for row, m in sorted(entries.items())]}


def db_json(vertices, bags):
    return {"hypergraph": {"vertices": sorted(vertices),
                           "edges": [list(b[0]) for b in bags]},
            "bags": [bag_json(b) for b in bags]}


def perturbed(bags, rng):
    """Raise one multiplicity of one bag by one. That bag's total mass then
    differs from every other bag's, so exactly its pairs are inconsistent."""
    k = rng.randrange(len(bags))
    schema, entries = bags[k]
    row = rng.choice(sorted(entries))
    entries = dict(entries)
    entries[row] += 1
    out = list(bags)
    out[k] = (schema, entries)
    return out, k


def all_pairs_with(k, m):
    return [sorted((k, j)) for j in range(m) if j != k]


def middle_arcs(left, right):
    """|supp left JOIN supp right|, counted per shared key."""
    shared = sorted(set(left[0]) & set(right[0]))
    lc = marginal((left[0], dict.fromkeys(left[1], 1)), shared)[1]
    rc = marginal((right[0], dict.fromkeys(right[1], 1)), shared)[1]
    return sum(n * rc.get(key, 0) for key, n in lc.items())


def global_bag(rng, attrs, rows, domain, max_mult):
    schema = tuple(sorted(attrs))
    entries = {}
    while len(entries) < rows:
        row = tuple(str(rng.randrange(domain)) for _ in schema)
        entries[row] = rng.randint(1, max_mult)
    return schema, entries


def tree_edges(rng, n_attrs, path, max_extra=0):
    """Edges of an acyclic schema: each new edge joins one fresh attribute
    to one or more attributes of a single earlier edge (a running
    intersection order)."""
    names = ["A%d" % i for i in range(n_attrs)]
    edges = [[names[0], names[1]]]
    for fresh in names[2:]:
        host = edges[-1] if path else rng.choice(edges)
        keep = rng.randint(1, min(len(host), 1 + max_extra))
        edges.append(sorted(rng.sample(host, keep) + [fresh]))
    return edges


# -- workloads ---------------------------------------------------------------

class Pool:
    """The jobs of one workload, plus the facts the checker needs."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.jobs = []
        self.descriptors = {"jobs": 0, "bags": 0, "edges": 0, "rows": 0,
                            "middle_arcs": 0, "mult_bits": 0}

    def write(self, name, data):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))  # dumps takes the C encoder, dump not
        return path

    def add_db(self, name, bags, vertices, expect, pairs,
               oracle=None, acyclic=True, arcs=0, verb="global"):
        """A ``global`` or ``pairwise`` job; ``oracle`` is the node budget of
        an ``--oracle`` job."""
        path = self.write(name, db_json(vertices, bags))
        argv = [verb, "--db", path]
        if oracle:
            argv += ["--oracle", "--budget-nodes", str(oracle),
                     "--budget-seconds", str(ORACLE_SECONDS)]
        self.jobs.append({"argv": argv, "verb": verb, "expect": expect,
                          "pairs": sorted(pairs), "oracle": bool(oracle),
                          "acyclic": acyclic, "bags": bags})
        d = self.descriptors
        d["bags"] += len(bags)
        d["edges"] += len(bags)
        d["rows"] += sum(len(b[1]) for b in bags)
        d["middle_arcs"] += arcs
        d["mult_bits"] = max([d["mult_bits"]] + [m.bit_length() for b in bags
                                                 for m in b[1].values()])

    def add_schema(self, name, edges, expect):
        vertices = sorted({v for e in edges for v in e})
        path = self.write(name, {"vertices": vertices, "edges": edges})
        self.jobs.append({"argv": ["classify", "--schema", path],
                          "verb": "classify", "expect": expect,
                          "edges": [sorted(e) for e in edges]})
        self.descriptors["edges"] += len(edges)


def tree_arcs(bags):
    """Middle arcs summed over consecutive bags that share attributes: a
    size descriptor, not a prediction of the flow work."""
    return sum(middle_arcs(a, b) for a, b in zip(bags, bags[1:])
               if set(a[0]) & set(b[0]))


# Each job slot has a fixed size and only its contents vary with the seed,
# so a run's median and tail move little from seed to seed. A pass over a
# pool takes about a third of a 20-second run: a run is whole passes, so
# every job weighs the same however fast the host is.

def gen_acyclic_witness(pool, rng):
    # the pairs are fewer than the ten samples beyond job_s.tail in a run
    # of three passes, so the tail falls among the chains
    for i in range(24):
        edges = tree_edges(rng, 13, path=(i % 2 == 0))
        g = global_bag(rng, {a for e in edges for a in e}, 45, 3, 20)
        bags = [marginal(g, e) for e in edges]
        if i % 4 == 3:
            bags, k = perturbed(bags, rng)
            pool.add_db("aw%d.json" % i, bags, g[0], NO,
                        all_pairs_with(k, len(bags)))
        else:
            pool.add_db("aw%d.json" % i, bags, g[0], YES, [],
                        arcs=tree_arcs(bags))
        if i % 12 == 5:
            left, right = transport_pair(rng, groups=6)
            pool.add_db("ap%d.json" % i, [left, right], ["A", "B", "C"],
                        YES, [], arcs=middle_arcs(left, right))


def transport_pair(rng, groups):
    """R(A,B), S(B,C) with equal B-marginals and 12 x 12 middle arcs per
    B-value group: 864 arcs for six groups."""
    left, right = {}, {}
    for b in range(groups):
        total = rng.randint(60, 150)
        for n, store, key in ((12, left, "a"), (12, right, "c")):
            cuts = sorted(rng.sample(range(1, total), n - 1))
            parts = [y - x for x, y in zip([0] + cuts, cuts + [total])]
            for j, mult in enumerate(parts):
                tag = "%s%d_%d" % (key, b, j)
                store[(tag, str(b)) if key == "a" else (str(b), tag)] = mult
    return (("A", "B"), left), (("B", "C"), right)


def gen_wide_schema(pool, rng):
    # three global jobs per classify pair keep the median among the global
    # jobs, the tightest class
    for i in range(12):
        edges = tree_edges(rng, 91, path=False, max_extra=1)
        rng.shuffle(edges)
        g = global_bag(rng, {a for e in edges for a in e}, 3, 3, 5)
        bags = [marginal(g, e) for e in edges]
        pool.add_db("ws%d.json" % i, bags, g[0], YES, [],
                    arcs=tree_arcs(bags))
        if i % 3 == 0:
            pool.add_schema("wa%d.json" % i, edges, YES)
        elif i % 3 == 1:
            pool.add_schema("wc%d.json" % i,
                            cyclic_variant(rng, edges, triangle=False), NO)
        if i % 9 == 8:
            # the conformality search is steep, so its schema is smaller
            small = tree_edges(rng, 31, path=False, max_extra=1)
            pool.add_schema("wt%d.json" % i,
                            cyclic_variant(rng, small, triangle=True), NO)


def cyclic_variant(rng, edges, triangle):
    """The edges plus what makes them cyclic. A triangle hangs a fresh
    attribute T off two attributes of one edge: chordal, but no edge covers
    the triangle. Otherwise one edge joins two attributes at primal distance
    three or more, which closes a chordless cycle."""
    if triangle:
        x, y = sorted(rng.sample(rng.choice(edges), 2))
        return edges + [[x, "T"], [y, "T"]]
    adj = {}
    for e in edges:
        for a in e:
            adj.setdefault(a, set()).update(e)
    attrs = sorted(adj)
    while True:
        a = rng.choice(attrs)
        near = set().union(*(adj[b] for b in adj[a]))
        far = sorted(set(attrs) - near)
        if far:
            return edges + [sorted([a, rng.choice(far)])]


def gen_cyclic_oracle(pool, rng):
    # dense n = 7 tables run into the node budget and are three in four, so
    # the median and the tail are budget-bound searches; the small tables
    # are 0/1 tables with n = 5, because denser or larger small tables
    # often spend a whole budget and make the mean jump (even these do in
    # about 1 of 100 tables, which then ends undecided on every run of
    # that seed)
    names = ["A%d" % i for i in range(1, 6)]
    for i in range(24):
        kind = i % 8
        if kind == 7:
            if i % 16 < 8:
                edges = [[a, b] for a, b in zip(names, names[1:] + names[:1])]
            else:
                edges = [[b for b in names[:4] if b != a] for a in names[:4]]
            bags = tseitin(edges)
            pool.add_db("tc%d.json" % i, bags, {a for e in edges for a in e},
                        NO, [], oracle=ORACLE_NODES, acyclic=False)
            continue
        n, cell = (5, 1) if kind == 3 else (7, 3)
        nodes = EXHAUST_NODES if n == 7 else ORACLE_NODES
        pool.add_db("ct%d.json" % i, table_3dct(rng, n, cell), ["X", "Y", "Z"],
                    YES, [], oracle=nodes, acyclic=False)


def table_3dct(rng, n, max_cell):
    """Margins of a random n x n x n table with cells in 0..max_cell over
    the triangle schema; feasible by construction."""
    cells = {(x, y, z): rng.randint(0, max_cell)
             for x, y, z in itertools.product(range(1, n + 1), repeat=3)}
    g = (("X", "Y", "Z"), {tuple(map(str, k)): v
                           for k, v in cells.items() if v})
    return [marginal(g, e) for e in (("X", "Z"), ("Y", "Z"), ("X", "Y"))]


def tseitin(edges):
    """Tseitin bags on a k-uniform, d-regular schema (C_5 and H_4 here):
    the values of every edge sum to 0 mod d, except the last edge's, which
    sum to 1. Pairwise consistent, globally inconsistent."""
    k = len(edges[0])
    d = sum(edges[0][0] in e for e in edges)
    bags = []
    for pos, edge in enumerate(edges):
        residue = 1 if pos == len(edges) - 1 else 0
        bags.append((tuple(sorted(edge)), {
            tuple(map(str, values)): 1
            for values in itertools.product(range(d), repeat=k)
            if sum(values) % d == residue}))
    return bags


def gen_pairwise_bulk(pool, rng):
    # eight sizes around 20k rows, so that the median moves smoothly with
    # the share of slow samples instead of jumping between two modes
    attrs = ["A1", "A2", "A3", "A4"]
    for i, rows in enumerate(range(12_000, 28_000, 2_000)):
        g = global_bag(rng, attrs, rows, 200, 2 ** 127)
        bags = [marginal(g, e) for e in (("A1", "A2"), ("A2", "A3"),
                                         ("A3", "A4"))]
        if i % 2 == 0:
            pool.add_db("pb%d.json" % i, bags, attrs, YES, [],
                        verb="pairwise")
            continue
        # raise a multiplicity of the middle bag: it disagrees with both
        # neighbours, while the outer bags still have equal total mass
        bump = dict(bags[1][1])
        bump[rng.choice(sorted(bump))] += 1
        pool.add_db("pg%d.json" % i, [bags[0], (bags[1][0], bump), bags[2]],
                    attrs, NO, [[0, 1], [1, 2]])


GENERATORS = {
    "acyclic-witness": gen_acyclic_witness,
    "wide-schema": gen_wide_schema,
    "cyclic-oracle": gen_cyclic_oracle,
    "pairwise-bulk": gen_pairwise_bulk,
}


def build(workload, seed, workdir):
    """Generate the workload's files under ``workdir``; the same seed gives
    the same files."""
    pool = Pool(workdir)
    GENERATORS[workload](pool, random.Random("%s:%d" % (workload, seed)))
    pool.descriptors["jobs"] = len(pool.jobs)
    return pool
