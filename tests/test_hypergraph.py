import itertools
import json
import random
import time

import pytest

from bagconsist import (
    Hypergraph, HypergraphError, JoinTree, SafeDeletionOp, find_bad_witness,
)
from bagconsist import cli, hypergraph
from bagconsist.cli import run
from bagconsist.hypergraph import (
    COVERED_EDGE_DELETION,
    SHAPE_CLIQUE_COMPLEMENT,
    SHAPE_CYCLE,
    VERTEX_DELETION,
    _core_vertices,
    _matches_shape,
    _maximal,
    _mcs_certificate,
    _peel,
    clique_complement_hypergraph,
    cycle_hypergraph,
)

from conftest import (
    cyclic_variants,
    database_of,
    path_hypergraph,
    random_acyclic_schema,
    random_global_bag,
    random_hypergraph,
    replay_ops,
)
from reference import induced, join_tree_is_valid, reference_find_bad_witness


def _hypergraph(edges):
    return Hypergraph({v for e in edges for v in e}, edges)


def _assert_running_intersection(h, order):
    assert sorted(i for i, _ in order) == list(range(len(h.edges)))
    prior = set()
    for pos, (idx, wit) in enumerate(order):
        if pos == 0:
            assert wit is None
        else:
            assert wit is not None and wit < pos
            assert h.edges[idx] & prior <= h.edges[order[wit][0]]
        prior |= h.edges[idx]


def test_constructor_validates():
    with pytest.raises(HypergraphError):
        Hypergraph(["A"], [[]])
    with pytest.raises(HypergraphError):
        Hypergraph(["A"], [["B"]])
    # a vertex in no edge made join_tree() and is_conformal() disagree,
    # and find_bad_witness crash
    with pytest.raises(HypergraphError):
        Hypergraph(["A", "B", "C"], [["A", "B"]])
    with pytest.raises(HypergraphError):
        Hypergraph(["A"], [])
    with pytest.raises(HypergraphError):
        Hypergraph(["", "A"], [["", "A"]])
    assert Hypergraph([], []).join_tree() is not None
    h = Hypergraph(["B", "A"], [["A", "B"], ["A", "B"]])
    assert h.vertices == ("A", "B")
    assert len(h.edges) == 2  # duplicates allowed


def test_generators():
    p = path_hypergraph(3)
    assert [sorted(e) for e in p.edges] == [["A1", "A2"], ["A2", "A3"]]
    c = cycle_hypergraph(3)
    assert [sorted(e) for e in c.edges] == [["A1", "A2"], ["A2", "A3"],
                                            ["A1", "A3"]]
    k = clique_complement_hypergraph(4)
    assert all(len(e) == 3 for e in k.edges)
    assert "A%d" % 1 not in k.edges[0]
    with pytest.raises(HypergraphError, match=r"^C_n needs n >= 3$"):
        cycle_hypergraph(2)
    with pytest.raises(HypergraphError, match=r"^H_n needs n >= 3$"):
        clique_complement_hypergraph(2)


def test_paper_classifications():
    for n in range(2, 9):
        assert path_hypergraph(n).join_tree() is not None
    for n in range(3, 9):
        assert cycle_hypergraph(n).join_tree() is None
        assert clique_complement_hypergraph(n).join_tree() is None
    # C_3: chordal but not conformal; C_{n>=4}: conformal but not chordal
    assert cycle_hypergraph(3).is_chordal()
    assert not cycle_hypergraph(3).is_conformal()
    for n in range(4, 9):
        assert cycle_hypergraph(n).is_conformal()
        assert not cycle_hypergraph(n).is_chordal()
        assert clique_complement_hypergraph(n).is_chordal()
        assert not clique_complement_hypergraph(n).is_conformal()


def test_single_edge_is_acyclic_and_conformal():
    h = Hypergraph(["A1", "A2", "A3"], [["A1", "A2", "A3"]])
    assert h.join_tree() is not None and h.is_chordal() and h.is_conformal()


def test_equivalence_on_random_hypergraphs():
    rng = random.Random(4242)
    for _ in range(200):
        h = random_hypergraph(rng)
        acyclic = h.join_tree() is not None
        assert acyclic == (h.is_chordal() and h.is_conformal())
        assert acyclic == (h.running_intersection_order() is not None)


def _has_chordless_cycle(adj):
    """Brute force: some set of four or more vertices induces a cycle, that
    is, a connected subgraph in which every vertex has two neighbours."""
    for size in range(4, len(adj) + 1):
        for sub in itertools.combinations(sorted(adj), size):
            inside = {v: adj[v] & set(sub) for v in sub}
            if any(len(n) != 2 for n in inside.values()):
                continue
            seen, stack = set(), [sub[0]]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(inside[v])
            if len(seen) == size:
                return True
    return False


def test_is_chordal_against_brute_force():
    rng = random.Random(0xC4D)
    seen = {True: 0, False: 0}
    for _ in range(400):
        vs = ["V%d" % i for i in range(rng.randint(3, 7))]
        p = rng.uniform(0.2, 0.7)
        pairs = [[a, b] for a, b in itertools.combinations(vs, 2)
                 if rng.random() < p]
        adj = {v: set() for v in vs}
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        # a singleton edge keeps each vertex in some edge
        h = Hypergraph(vs, pairs + [[v] for v in vs])
        chordal = h.is_chordal()
        assert chordal == (not _has_chordless_cycle(adj))
        seen[chordal] += 1
    assert seen[True] > 50 and seen[False] > 50


def _random_graph(rng):
    """A random graph on 3 to 8 vertices as binary edges, plus a singleton
    edge per vertex so that every vertex lies in some edge."""
    vs = ["V%d" % i for i in range(rng.randint(3, 8))]
    p = rng.uniform(0.2, 0.7)
    pairs = [[a, b] for a, b in itertools.combinations(vs, 2)
             if rng.random() < p]
    return Hypergraph(vs, pairs + [[v] for v in vs])


def _is_chordless_cycle(adj, t):
    """Whether t induces one cycle of four or more vertices in adj."""
    inside = {v: adj[v] & t for v in t}
    if len(t) < 4 or any(len(n) != 2 for n in inside.values()):
        return False
    seen, stack = set(), [min(t)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(inside[v])
    return seen == t


def test_cycle_certificates_are_chordless_cycles():
    """A failed chordality search names a chordless cycle of the graph it
    searched, and a passed one leaves no chordless cycle to find."""
    rng = random.Random(0xC1C)
    seen = {True: 0, False: 0}
    for _ in range(400):
        adj = _random_graph(rng).primal_graph()
        t = _mcs_certificate(adj)
        assert (t is None) == (not _has_chordless_cycle(adj))
        if t is not None:
            assert t <= set(adj)
            assert _is_chordless_cycle(adj, t)
        seen[t is None] += 1
    assert seen[True] > 50 and seen[False] > 50


def test_certificates_induce_cyclic_sub_hypergraphs():
    """On random vertex subsets S of random graphs and hypergraphs, the
    chordality search and then the peel's core on the traces over S return
    None iff H[S] is acyclic by brute-force chordality and Gilmore's
    criterion; otherwise a set T within S whose H[T] fails one of the two."""
    rng = random.Random(0xCE27)
    shapes = {"acyclic": 0, "cycle": 0, "clique": 0}
    for i in range(400):
        h = random_hypergraph(rng) if i % 2 else _random_graph(rng)
        adj = h.primal_graph()
        for k in (len(h.vertices), rng.randint(1, len(h.vertices))):
            s = set(rng.sample(h.vertices, k))
            t = _mcs_certificate({u: adj[u] & s for u in s})
            if t is None:
                t = _core_vertices(h.edges, s)
            g = induced(h, s)
            if t is None:
                assert not _has_chordless_cycle(g.primal_graph())
                assert g.is_conformal()
                shapes["acyclic"] += 1
                continue
            assert t <= s
            sub = induced(h, t)
            if _has_chordless_cycle(sub.primal_graph()):
                assert _is_chordless_cycle(adj, t)
                shapes["cycle"] += 1
            else:
                assert not sub.is_conformal()
                shapes["clique"] += 1
    assert min(shapes.values()) > 10


def test_join_tree_validity():
    rng = random.Random(99)
    seen = 0
    for _ in range(200):
        h = random_hypergraph(rng)
        tree = h.join_tree()
        if tree is not None:
            assert join_tree_is_valid(tree)
            seen += 1
    assert seen > 20


def _edges(*names):
    return tuple(frozenset(e) for e in names)


_PATH = _edges("AB", "BC", "CD")
_FORK = _edges("AB", "C", "A")


@pytest.mark.parametrize("nodes,links,valid", [
    (_PATH, ((1, 0), (2, 1)), True),
    (_PATH, ((1, 0),), False),                      # too few links
    (_PATH, ((1, 0), (2, 1), (2, 0)), False),       # too many
    (_PATH, ((1, 1), (2, 1)), False),               # a self-link
    (_PATH, ((1, 0), (0, 1)), False),               # a link twice
    (_PATH, ((1, 0), (1, 0)), False),
    # three links, but the fourth edge hangs on none of them
    (_edges("AB", "BC", "AC", "CD"), ((1, 0), (2, 1), (0, 2)), False),
    (_FORK, ((1, 0), (2, 0)), True),
    # A is held by edges 0 and 2, which meet only through edge 1
    (_FORK, ((1, 0), (2, 1)), False),
], ids=["path", "few-links", "many-links", "self-link", "reversed-duplicate",
        "duplicate", "disconnected", "fork", "holders-disconnected"])
def test_join_tree_is_valid(nodes, links, valid):
    assert join_tree_is_valid(JoinTree(nodes, links)) is valid


@pytest.mark.parametrize("edges,shape", [
    (_edges("A", "B"), SHAPE_CLIQUE_COMPLEMENT),            # H_2
    (_edges("ABC", "ABD", "ACD"), SHAPE_CLIQUE_COMPLEMENT),  # H_4 less BCD
    (_edges("AB", "BC", "AC"), SHAPE_CYCLE),                # C_3
    (_edges("AB", "BC", "CD", "AD", "AC"), SHAPE_CYCLE),    # C_4 + chord
    (_edges("ABC", "CD", "AD", "AB"), SHAPE_CYCLE),         # a 3-edge
    (_edges("AB", "BC", "AC", "AD"), SHAPE_CYCLE),          # A of degree 3
    (_edges("AB", "BC", "AC", "DE", "EF", "DF"), SHAPE_CYCLE),  # 2 triangles
], ids=["H2", "H4-missing-edge", "C3", "C4-chord", "non-binary",
        "degree-3", "two-triangles"])
def test_matches_shape_rejects_other_shapes(edges, shape):
    assert not _matches_shape(list(edges), set().union(*edges), shape)


def test_running_intersection_order_property():
    rng = random.Random(7)
    for _ in range(200):
        h = random_hypergraph(rng)
        order = h.running_intersection_order()
        if order is None:
            continue
        assert sorted(i for i, _ in order) == list(range(len(h.edges)))
        placed = []
        for pos, (idx, wit) in enumerate(order):
            prior = set().union(*[h.edges[j] for j in placed]) if placed else set()
            overlap = h.edges[idx] & prior
            if pos == 0:
                assert wit is None
            else:
                assert wit is not None and wit < pos
                assert overlap <= h.edges[order[wit][0]]
            placed.append(idx)


def test_join_tree_on_shuffled_wide_schemas():
    rng = random.Random(0x3C5)
    for _ in range(6):
        edges = random_acyclic_schema(rng, rng.randint(30, 60))
        h = _hypergraph(edges)
        tree = h.join_tree()
        assert tree is not None and join_tree_is_valid(tree)
        assert h.is_chordal() and h.is_conformal()
        _assert_running_intersection(h, h.running_intersection_order())
        chord, triangle = (_hypergraph(e) for e in cyclic_variants(rng, edges))
        assert not chord.is_chordal()
        assert triangle.is_chordal() and not triangle.is_conformal()
        for g in (chord, triangle):
            assert g.join_tree() is None
            assert g.running_intersection_order() is None


def _assert_peel(edges, ears, core):
    """Replay the peel by its definition: each ear, when it goes, has its
    vertices held by other live edges inside its live cover, and no edge of
    the core left is an ear of it."""
    live = set(range(len(edges)))
    for ear, cover in ears:
        assert ear in live and cover in live and ear != cover
        others = set().union(*(edges[j] for j in live if j != ear))
        assert edges[ear] & others <= edges[cover]
        live.remove(ear)
    assert sorted(live) == core
    if len(core) > 1:
        for i in core:
            shared = edges[i] & set().union(*(edges[j] for j in core if j != i))
            assert not any(shared <= edges[j] for j in core if j != i)


def test_peel_whole_cores():
    """C_4, C_5, H_4 and K_4 have no ear."""
    k4 = Hypergraph("ABCD", itertools.combinations("ABCD", 2))
    for h in (cycle_hypergraph(4), cycle_hypergraph(5),
              clique_complement_hypergraph(4), k4):
        assert _peel(h.edges) == ([], list(range(len(h.edges))))


def test_peel_cores_of_cyclic_variants():
    """A tree plus a chord peels to the chord and the tree edges on the
    cycle it closes: a core with no ear whose tree edges alone peel to one.
    A tree plus a hung triangle peels to three edges: the two new ones and
    a tree edge holding both attributes they hang from."""
    rng = random.Random(0x9EE1)
    for _ in range(40):
        edges = random_acyclic_schema(rng, rng.randint(20, 90))
        chord, hung = ([frozenset(e) for e in v]
                       for v in cyclic_variants(rng, edges))
        ears, core = _peel(chord)
        _assert_peel(chord, ears, core)
        assert len(chord) - 1 in core and len(core) >= 3
        assert len(_peel([chord[i] for i in core[:-1]])[1]) == 1
        ears, core = _peel(hung)
        _assert_peel(hung, ears, core)
        assert len(core) == 3 and core[1:] == [len(edges), len(edges) + 1]
        assert hung[core[0]] >= (hung[-2] | hung[-1]) - {"T"}


def test_cyclic_variants_of_small_trees():
    """On 2-7-edge trees a variant the tree cannot have is None, and every
    other one is cyclic: its peel leaves a core of two edges or more."""
    rng = random.Random(0x5A11)
    seen = {"chord": set(), "triangle": set()}
    for _ in range(300):
        edges = random_acyclic_schema(rng, rng.randint(2, 7))
        for name, v in zip(seen, cyclic_variants(rng, edges)):
            seen[name].add(v is None)
            if v is not None:
                assert len(_peel([frozenset(e) for e in v])[1]) >= 2
    # both outcomes of the chord's search were drawn
    assert seen["chord"] == {True, False} and False in seen["triangle"]


def test_peel_of_acyclic_and_random_schemas():
    """An acyclic schema peels to one edge, and its join tree is valid; on
    random hypergraphs every ear is one when it goes and the core left has
    none."""
    rng = random.Random(0x9EE2)
    for _ in range(20):
        h = _hypergraph(random_acyclic_schema(rng, rng.randint(1, 90)))
        ears, core = _peel(h.edges)
        _assert_peel(h.edges, ears, core)
        assert len(core) == 1
        assert join_tree_is_valid(h.join_tree())
        assert h.join_tree().running_intersection_order()[0] == (core[0], None)
    for _ in range(300):
        h = random_hypergraph(rng)
        _assert_peel(h.edges, *_peel(h.edges))


def test_peel_covers_duplicate_and_disjoint_edges():
    ab, abc = frozenset("AB"), frozenset("ABC")
    assert _peel([ab, ab]) == ([(0, 1)], [1])
    assert _peel([abc, ab, abc]) == ([(0, 2), (1, 2)], [2])
    # the cover is the lowest live edge holding the ear's shared vertices
    assert _peel([ab, abc, frozenset("ABD")]) == ([(0, 1), (1, 2)], [2])
    # an ear that shares nothing takes the lowest live edge
    assert _peel([frozenset(v) for v in "ABC"]) == ([(0, 1), (1, 2)], [2])
    assert _peel([frozenset("A"), ab, frozenset("C")]) == ([(0, 1), (1, 2)], [2])
    # a duplicated edge of a cycle goes; the cycle stays
    c4 = list(cycle_hypergraph(4).edges)
    assert _peel(c4 + [c4[1]]) == ([(1, 4)], [0, 2, 3, 4])
    assert _peel([]) == ([], [])


@pytest.mark.parametrize("shape", ["star", "path", "hub-after-spokes",
                                   "disjoint"])
def test_peel_is_near_linear(shape):
    """100,000 edges peel in well under 5 s: a cover is read from the
    holders' live end, not found by a scan over a hub's every holder, and
    an ear that shares nothing takes the lowest live edge from a pointer
    (50,000 disjoint edges: a scan for another live edge from index 0
    takes about 20 s there)."""
    n = 100_000
    spokes = lambda: [frozenset({"H", "X%d" % i}) for i in range(n)]
    edges = {
        "star": spokes,
        "path": lambda: [frozenset({"X%d" % i, "X%d" % (i + 1)})
                         for i in range(n)],
        "hub-after-spokes": lambda: spokes() + [frozenset({"H"}).union(
            "X%d" % i for i in range(n))],
        "disjoint": lambda: [frozenset({"X%d" % i}) for i in range(n // 2)],
    }[shape]()
    start = time.monotonic()
    ears, core = _peel(edges)
    assert time.monotonic() - start < 5.0
    assert len(ears) == len(edges) - 1 and core == [ears[-1][1]]


def _restart_minimize(h, bad):
    w = set(h.vertices)
    changed = True
    while changed:
        changed = False
        for v in sorted(w):
            if bad(induced(h, w - {v})):
                w.remove(v)
                changed = True
                break
    return w


def _cores_with_ears(rng):
    """A C_3..C_6, H_3..H_6 or K_4 core, its vertices named at random, with
    random additions: ears that reuse an edge's vertices, edges that cover
    one, duplicate edges, and disjoint paths or triangles."""
    pool = ["%s%d" % (c, i) for c in "ABXZ" for i in range(9)]
    names = iter(rng.sample(pool, len(pool)))
    kind, n = rng.choice([("C", 3), ("C", 4), ("C", 5), ("C", 6), ("H", 3),
                          ("H", 4), ("H", 5), ("H", 6), ("K", 4)])
    core = [next(names) for _ in range(n)]
    if kind == "C":
        edges = [[core[i], core[(i + 1) % n]] for i in range(n)]
    elif kind == "H":
        edges = [[v for v in core if v != a] for a in core]
    else:
        edges = [list(e) for e in itertools.combinations(core, 2)]
    for _ in range(rng.randint(1, 5)):
        e = rng.choice(edges)
        fresh = [next(names) for _ in range(rng.randint(0, 2))]
        add = rng.choice(["reuse", "cover", "duplicate", "disjoint"])
        if add == "reuse":
            edges.append(rng.sample(e, rng.randint(1, len(e))) + fresh)
        elif add == "cover":
            edges.append(e + fresh + [next(names)])
        elif add == "duplicate":
            edges.append(list(e))
        else:
            a, b, c = (next(names) for _ in range(3))
            edges.extend([[a, b], [b, c]] + [[a, c]] * rng.randint(0, 1))
    rng.shuffle(edges)
    return _hypergraph(edges)


def test_find_bad_witness_matches_restart_reference():
    """The one-pass minimization over the linear acyclicity test finds the
    W that restarting after each deletion over Gilmore's test finds."""
    rng = random.Random(0xBAD)
    schemas = [random_hypergraph(rng) for _ in range(300)]
    for _ in range(3):
        schemas.extend(_hypergraph(e) for e in cyclic_variants(
            rng, random_acyclic_schema(rng, 20)))
    schemas.extend(_cores_with_ears(rng) for _ in range(300))
    checked = 0
    for h in schemas:
        bad = find_bad_witness(h)
        if not h.is_chordal():
            w = _restart_minimize(h, lambda g: not g.is_chordal())
            shape = SHAPE_CYCLE
        elif not h.is_conformal():
            w = _restart_minimize(h, lambda g: not g.is_conformal())
            shape = SHAPE_CLIQUE_COMPLEMENT
        else:
            assert bad is None
            continue
        assert (bad.w, bad.shape) == (w, shape)
        checked += 1
    assert checked > 30


def _wide_schemas(rng, count):
    """Wide-schema-shaped cyclic schemas: trees of 90 edges with a chord,
    and trees of 30 edges with a hung triangle."""
    for _ in range(count):
        chord, _ = cyclic_variants(rng, random_acyclic_schema(rng, 90))
        _, triangle = cyclic_variants(rng, random_acyclic_schema(rng, 30))
        yield _hypergraph(chord)
        yield _hypergraph(triangle)


def test_find_bad_witness_and_classify_match_reference_on_wide_schemas(
        tmp_path, capsys):
    """The certificate-driven minimisation finds the obstruction and ops
    that one search per vertex finds, and classify prints them the same."""
    rng = random.Random(0x91)
    path = tmp_path / "schema.json"
    shapes = set()
    for h in _wide_schemas(rng, 40):
        ref = reference_find_bad_witness(h)
        bad = find_bad_witness(h)
        assert bad.to_json_dict() == ref.to_json_dict()
        shapes.add(bad.shape)
        path.write_text(json.dumps(h.to_json_dict()))
        assert run(["classify", "--schema", str(path)]) == 1
        assert capsys.readouterr().out == "cyclic\n" + json.dumps(
            {"bad_witness": ref.to_json_dict()}, indent=2, sort_keys=True) + "\n"
    assert shapes == {SHAPE_CYCLE, SHAPE_CLIQUE_COMPLEMENT}


def test_classify_peels_the_schema_once(tmp_path, monkeypatch, capsys):
    """``classify`` peels the schema's own edge list once, on an acyclic
    schema and on cyclic ones of both shapes: the join tree and the
    bad-witness search share the peel. The peels of traces that the
    clique-complement search makes are not counted."""
    loaded, peeled = [], []
    load, peel = cli._load_schema, hypergraph._peel

    def loading(path):
        loaded.append(load(path))
        return loaded[-1]

    def counting_peel(edges):
        peeled.append(edges)
        return peel(edges)

    monkeypatch.setattr(cli, "_load_schema", loading)
    monkeypatch.setattr(hypergraph, "_peel", counting_peel)
    rng = random.Random(0x9E1)
    tree = random_acyclic_schema(rng, 30)
    chord, hung = cyclic_variants(rng, tree)
    path = tmp_path / "schema.json"
    shapes = set()
    for edges, code in ((tree, 0), (chord, 1), (hung, 1)):
        path.write_text(json.dumps(_hypergraph(edges).to_json_dict()))
        loaded.clear()
        peeled.clear()
        assert run(["classify", "--schema", str(path)]) == code
        (h,) = loaded
        assert sum(e is h.edges for e in peeled) == 1
        out = capsys.readouterr().out
        shapes.add(json.loads(out.split("\n", 1)[1]).get(
            "bad_witness", {}).get("shape"))
    assert shapes == {None, SHAPE_CYCLE, SHAPE_CLIQUE_COMPLEMENT}


def test_global_peels_the_schema_once(tmp_path, monkeypatch, capsys):
    """``global`` peels the loaded database's edge list once, and nothing
    else, on an acyclic database, one with a chord and one with a hung
    triangle: the decider reads the peel that ``classify`` reads."""
    loaded, peeled = [], []
    load, peel = cli._load_db, hypergraph._peel

    def loading(path):
        loaded.append(load(path))
        return loaded[-1]

    def counting_peel(edges):
        peeled.append(edges)
        return peel(edges)

    monkeypatch.setattr(cli, "_load_db", loading)
    monkeypatch.setattr(hypergraph, "_peel", counting_peel)
    rng = random.Random(0x9E1)
    tree = random_acyclic_schema(rng, 30)
    chord, hung = cyclic_variants(rng, tree)
    path = tmp_path / "db.json"
    for edges in (tree, chord, hung):
        db = database_of(edges, random_global_bag(
            rng, {v for e in edges for v in e}, 6))
        path.write_text(json.dumps(db.to_json_dict()))
        loaded.clear()
        peeled.clear()
        assert run(["global", "--db", str(path)]) == 0
        (db,) = loaded
        assert len(peeled) == 1 and peeled[0] is db.hypergraph.edges
    capsys.readouterr()


def test_find_bad_witness_searches_only_certificate_vertices(monkeypatch):
    """On a tree of 90 edges with a chord, and on four with a hung
    triangle, the minimisation searches once for the peel's core and once
    per vertex of a certificate, not once per vertex of the schema; a
    search is a chordality search or a peel's core, and sees only the
    vertices of the core the peel of the whole schema leaves."""
    searches = []

    def counting(adj):
        searches.append(len(adj))
        return _mcs_certificate(adj)

    def counting_core(edges, s):
        searches.append(len(s))
        return _core_vertices(edges, s)

    monkeypatch.setattr(hypergraph, "_mcs_certificate", counting)
    monkeypatch.setattr(hypergraph, "_core_vertices", counting_core)
    for seed in (0x5EA, 1, 2, 3):
        rng = random.Random(seed)
        chord, hung = cyclic_variants(rng, random_acyclic_schema(rng, 90))
        cases = [(hung, SHAPE_CLIQUE_COMPLEMENT)]
        if seed == 0x5EA:
            cases.append((chord, SHAPE_CYCLE))
        for edges, shape in cases:
            h = _hypergraph(edges)
            assert len(h.vertices) >= 90
            core = set().union(*(h.edges[i] for i in _peel(h.edges)[1]))
            searches.clear()
            bad = find_bad_witness(h)
            assert bad.shape == shape
            assert len(searches) <= len(bad.w) + 2
            assert max(searches) <= len(core) < len(h.vertices)


def test_safe_deletion_ops():
    h = cycle_hypergraph(3)
    h2 = replay_ops(h, [SafeDeletionOp(VERTEX_DELETION, vertex="A3")])
    assert h2.vertices == ("A1", "A2")
    e = frozenset(["A1", "A2"])
    h3 = replay_ops(
        h2, [SafeDeletionOp(COVERED_EDGE_DELETION, edge=frozenset(["A1"]),
                            cover=e)])
    assert h3 is not None
    with pytest.raises(HypergraphError):
        SafeDeletionOp(COVERED_EDGE_DELETION, edge=frozenset(["A1", "A3"]),
                       cover=frozenset(["A1"]))
    # an edge and cover given as lists are compared as sets: lists compare
    # in order, so ["A1", "A3"] <= ["A2"] would hold
    with pytest.raises(HypergraphError):
        SafeDeletionOp(COVERED_EDGE_DELETION, edge=["A1", "A3"], cover=["A2"])
    for kind, parts, fault in (
            (VERTEX_DELETION, {}, "vertex-deletion needs a vertex"),
            (COVERED_EDGE_DELETION, {"cover": ["A1"]},
             "covered-edge-deletion needs edge and cover"),
            (COVERED_EDGE_DELETION, {"edge": ["A1"]},
             "covered-edge-deletion needs edge and cover"),
            ("rename", {"vertex": "A1"},
             "unknown safe-deletion kind 'rename'")):
        with pytest.raises(HypergraphError) as exc:
            SafeDeletionOp(kind, **parts)
        assert str(exc.value) == fault
    # a vertex given as an int is a name, as the hypergraph's vertices are
    op = SafeDeletionOp(VERTEX_DELETION, vertex=3)
    assert op == SafeDeletionOp(VERTEX_DELETION, vertex="3")
    h4 = Hypergraph([1, 2, 3], [[1, 2], [2, 3], [1, 2]])
    assert replay_ops(h4, [op]) == Hypergraph([1, 2], [[1, 2], [2], [1, 2]])
    rng = random.Random(0x0B5)
    checked = 0
    while checked < 50:
        h = random_hypergraph(rng)
        bad = find_bad_witness(h)
        if bad is None:
            continue
        as_lists = [op if op.edge is None else SafeDeletionOp(
            op.kind, edge=sorted(op.edge)[::-1], cover=sorted(op.cover))
            for op in bad.ops]
        assert as_lists == list(bad.ops)
        assert replay_ops(h, as_lists) == replay_ops(h, bad.ops)
        checked += 1


def test_find_bad_witness_shapes():
    assert find_bad_witness(path_hypergraph(6)) is None
    for n in range(4, 8):
        bad = find_bad_witness(cycle_hypergraph(n))
        assert bad is not None and bad.shape == SHAPE_CYCLE
        assert len(bad.w) >= 4
    for n in range(4, 7):
        bad = find_bad_witness(clique_complement_hypergraph(n))
        assert bad is not None and bad.shape == SHAPE_CLIQUE_COMPLEMENT
        assert len(bad.w) >= 3
    # triangles report clique-complement (C_3 = H_3 preference)
    bad = find_bad_witness(cycle_hypergraph(3))
    assert bad is not None and bad.shape == SHAPE_CLIQUE_COMPLEMENT


def test_find_bad_witness_ops_replay():
    rng = random.Random(31337)
    checked = 0
    for _ in range(300):
        h = random_hypergraph(rng)
        bad = find_bad_witness(h)
        assert (bad is None) == (h.join_tree() is not None)
        if bad is None:
            continue
        replayed = replay_ops(h, bad.ops)
        reduced = Hypergraph(replayed.vertices, _maximal(replayed.edges))
        n = len(bad.w)
        assert set(reduced.vertices) == bad.w
        edges = {frozenset(e) for e in reduced.edges}
        assert len(edges) == len(reduced.edges) == n
        degree = {v: sum(v in e for e in edges) for v in reduced.vertices}
        if bad.shape == SHAPE_CYCLE:
            # n distinct binary edges, every vertex in exactly two of them
            assert all(len(e) == 2 for e in edges)
            assert all(d == 2 for d in degree.values())
        else:
            # n distinct (n-1)-edges: each vertex missed by exactly one
            assert all(len(e) == n - 1 for e in edges)
            assert all(d == n - 1 for d in degree.values())
        checked += 1
    assert checked > 30


def test_hypergraph_json_round_trip():
    h = cycle_hypergraph(4)
    assert Hypergraph.from_json_dict(h.to_json_dict()) == h
    with pytest.raises(HypergraphError):
        Hypergraph.from_json_dict({"vertices": ["A"]})
    # a name twice in the vertices or in one edge is refused; the
    # constructor merges it, and an edge may still appear twice
    for vertices, edges in [(["A", "A"], [["A"]]), (["A"], [["A", "A"]]),
                            (["A", "B", "B"], [["A", "A", "B"]])]:
        with pytest.raises(HypergraphError, match="duplicate vertex names"):
            Hypergraph.from_json_dict({"vertices": vertices, "edges": edges})
        assert Hypergraph(vertices, edges).vertices == tuple(sorted(
            set(vertices)))
    twice = {"vertices": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]}
    assert Hypergraph.from_json_dict(twice).edges == (
        frozenset("AB"), frozenset("AB"))
