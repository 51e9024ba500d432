import itertools
import random
import re
import sys
from collections import defaultdict

import pytest

from bagconsist import (
    Bag, BagDatabase, BagFormatError, Hypergraph, SchemaMismatchError, bags,
    check_witness, consistency, make_schema)
from bagconsist.bags import _json_cell


def test_make_schema_sorts_and_rejects_duplicates():
    assert make_schema(["C", "A", "B"]) == ("A", "B", "C")
    with pytest.raises(ValueError):
        make_schema(["A", "A"])
    with pytest.raises(ValueError):
        make_schema(["A", ""])


def test_constructor_sums_duplicates_and_drops_zeros():
    b = Bag(("A",), {("x",): 2})
    assert b.entries.get(("x",), 0) == 2
    b = Bag(("A",), {("x",): 0})
    assert len(b) == 0 and not b
    with pytest.raises(ValueError):
        Bag(("A",), {("x",): -1})


@pytest.mark.parametrize("mult", [2.7, 2.0, "3", True, False, None])
def test_constructor_takes_only_int_multiplicities(mult):
    # int() would hold 2.7 as 2, and "3" and True as 3 and 1
    with pytest.raises(ValueError, match="is not an int"):
        Bag(("A",), {("x",): mult})


def test_values_coerced_to_strings():
    b = Bag(("A", "B"), {(1, 2): 3})
    assert b.entries.get(("1", "2"), 0) == 3


def test_row_arity_checked():
    with pytest.raises(ValueError):
        Bag(("A", "B"), {("x",): 1})


def test_equality_is_schema_and_entries():
    a = Bag(("A",), {("x",): 2})
    b = Bag(("A",), {("x",): 2})
    c = Bag(("B",), {("x",): 2})
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_rows_canonical_order():
    b = Bag(("A",), {("b",): 1, ("a",): 1, ("c",): 1})
    assert b.rows() == [("a",), ("b",), ("c",)]


def test_marginal_sums_multiplicities():
    b = Bag(("A", "B"), {("1", "2"): 1, ("2", "2"): 1})
    assert b.marginal(["B"]) == Bag(("B",), {("2",): 2})
    assert b.marginal(["A", "B"]) == b
    # empty-schema marginal carries the total mass
    assert b.marginal([]) == Bag((), {(): 2})


def test_marginal_requires_subset():
    b = Bag(("A",), {("x",): 1})
    with pytest.raises(SchemaMismatchError):
        b.marginal(["B"])


def test_join_multiplies_multiplicities():
    r = Bag(("A", "B"), {("1", "2"): 2, ("2", "2"): 1})
    s = Bag(("B", "C"), {("2", "1"): 3})
    j = r.join(s)
    assert j.schema == ("A", "B", "C")
    assert j.entries == {("1", "2", "1"): 6, ("2", "2", "1"): 3}


def test_join_disjoint_schemas_is_cross_product():
    r = Bag(("A",), {("1",): 2})
    s = Bag(("B",), {("2",): 3})
    assert r.join(s).entries == {("1", "2"): 6}


def test_support_clamps_multiplicities():
    b = Bag(("A",), {("x",): 5, ("y",): 1})
    assert b.support().entries == {("x",): 1, ("y",): 1}
    assert b.support().schema == b.schema


def test_big_multiplicities_stay_exact():
    m = 2 ** 200 + 1
    b = Bag(("A",), {("x",): m})
    assert b.entries.get(("x",), 0) == m
    assert b.marginal([]).entries == {(): m}


def test_json_round_trip():
    b = Bag(("B", "A"), {("2", "1"): 2 ** 70})
    d = b.to_json_dict()
    assert d["schema"] == ["A", "B"]
    assert d["tuples"][0]["mult"] == str(2 ** 70)
    assert Bag.from_json_dict(d) == b


def test_json_rejects_malformed():
    with pytest.raises(BagFormatError):
        Bag.from_json_dict({"schema": ["A"]})
    with pytest.raises(BagFormatError):
        Bag.from_json_dict({"schema": ["A"],
                            "tuples": [{"values": {"A": "1"}, "mult": "-2"}]})
    with pytest.raises(BagFormatError):
        Bag.from_json_dict({"schema": ["A"],
                            "tuples": [{"values": {"B": "1"}, "mult": "1"}]})


def _random_bag(rng, schema, rows):
    return Bag(schema, {tuple(str(rng.randrange(3)) for _ in schema):
                        rng.choice([1, 2, 7, 2 ** 127 + 1])
                        for _ in range(rows)})


def test_marginal_matches_naive_sum():
    """Every sub-schema of widths 0, 1, 2 and 4, on seeded random bags
    and on the empty bag, against a dict-sum over the rows."""
    rng = random.Random(0x6B)
    schema = ("A", "B", "C", "D")
    bags = [Bag(schema, {})] + [_random_bag(rng, schema, rng.randrange(1, 40))
                                for _ in range(20)]
    for bag in bags:
        for width in (0, 1, 2, 4):
            for sub in itertools.combinations(schema, width):
                expected: dict = {}
                for row, mult in bag.entries.items():
                    key = tuple(row[schema.index(a)] for a in sub)
                    expected[key] = expected.get(key, 0) + mult
                out = bag.marginal(sub)
                assert out.schema == sub and out.entries == expected
    assert Bag((), {}).marginal([]).entries == {}
    assert Bag(("A",), {}).marginal([]).entries == {}
    assert bags[1].marginal([]).entries == {(): sum(bags[1].entries.values())}


def test_summed_matches_naive_sum_in_key_order():
    """The summing kernel on seeded random bags: 0 to 3 positions, in any
    order, against a per-row sum whose key is the bare cell on one
    position and the tuple of cells on more, with the same keys in the
    same (first-occurrence) order; with empty bags, 128-bit
    multiplicities, and groups of one row to over a hundred."""
    rng = random.Random(0x5A)
    seen = set()
    for _ in range(60):
        # one column per domain size: all rows, a few groups, unique cells
        domains = [rng.choice((1, 2, 5, 10 ** 6)) for _ in range(4)]
        entries = {tuple(str(rng.randrange(d)) for d in domains):
                   rng.choice((1, 3, 2 ** 127 + rng.randrange(9)))
                   for _ in range(rng.choice((0, 1, rng.randrange(2, 300))))}
        for width in range(4):
            for positions in itertools.permutations(range(4), width):
                expected: dict = {}
                sizes: dict = defaultdict(int)
                for row, mult in entries.items():
                    key = tuple(row[p] for p in positions)
                    if width == 1:
                        (key,) = key
                    expected[key] = expected.get(key, 0) + mult
                    sizes[key] += 1
                out = bags._summed(list(positions), entries)
                assert list(out.items()) == list(expected.items())
                seen.update(("width", width, min(n, 100)) for n in sizes.values())
                seen.add(("empty", width, not entries))
                seen.update(("wide", m.bit_length() > 64) for m in out.values())
    assert {("width", w, n) for w in range(1, 4) for n in (1, 100)} <= seen
    assert {("empty", w, True) for w in range(4)} <= seen
    assert ("width", 0, 100) in seen and ("wide", True) in seen


def test_one_attribute_marginals_are_rows():
    """``Bag.marginal`` and the witness check see one-attribute marginals
    as 1-tuple rows, though the kernel keys them by bare cells."""
    ab = Bag(["A", "B"], {("1", "x"): 2, ("1", "y"): 2 ** 100, ("2", "x"): 5})
    a = Bag(["A"], {("1",): 2 + 2 ** 100, ("2",): 5})
    assert ab.marginal(["A"]).entries == a.entries
    assert list(ab.marginal(["A"]).entries) == [("1",), ("2",)]
    assert ab.marginal(["A"]) == a and a.marginal(["A"]) == a
    db = BagDatabase(Hypergraph("AB", ["A", "AB", "B"]),
                     (a, ab, ab.marginal(["B"])))
    assert check_witness(ab, db)
    off = Bag(["A"], {("1",): 1 + 2 ** 100, ("2",): 6})
    assert not check_witness(ab, BagDatabase(db.hypergraph,
                                             (off,) + db.bags[1:]))


def test_marginal_table_matches_naive_sum():
    """The deciders' marginal table on random databases: each bag summed
    onto its shared set with every bag (itself included), a plain dict in
    sorted-attribute order whatever the set's iteration order, against a
    per-row sum and against ``Bag.marginal``; with empty bags, empty
    shared sets, and bags of widths 0, 1 and 4. On a one-attribute shared
    set the table keys bare cells and ``Bag.marginal`` 1-tuples."""
    rng = random.Random(0x7AB)
    seen = set()
    for _ in range(40):
        db = []
        for _ in range(rng.randrange(1, 6)):
            schema = tuple(sorted(rng.sample("ABCDEF", rng.choice((0, 1, 4)))))
            db.append(_random_bag(rng, schema, rng.choice(
                (0, 1, rng.randrange(2, 30)))))
        table = consistency._marginal_memo(db)
        for i, j in itertools.product(range(len(db)), repeat=2):
            bag = db[i]
            shared = frozenset(bag.schema) & frozenset(db[j].schema)
            expected: dict = {}
            for row, mult in bag.entries.items():
                key = tuple(row[bag.schema.index(a)] for a in sorted(shared))
                expected[key] = expected.get(key, 0) + mult
            assert bag.marginal(shared).entries == expected
            if len(shared) == 1:
                expected = {cell: mult for (cell,), mult in expected.items()}
            assert table(i, shared) == expected
            seen.update([("width", len(bag.schema)), ("shared", len(shared)),
                         ("rows", min(len(bag), 2))])
    assert {("width", 0), ("width", 1), ("width", 4), ("shared", 0),
            ("shared", 1), ("rows", 0), ("rows", 1), ("rows", 2)} <= seen


def test_join_matches_nested_loop():
    """Shared sets of widths 0, 1, 2 and 4, against a nested loop over
    both bags' rows."""
    rng = random.Random(0x6C)
    cases = [(("A",), ("B",)), (("A", "B"), ("B", "C")),
             (("A", "B", "C"), ("B", "C", "D")),
             (("A", "B", "C", "D"), ("A", "B", "C", "D")),
             ((), ("A", "B")), (("A", "B"), ())]
    for left, right in cases:
        union = make_schema(set(left) | set(right))
        for _ in range(10):
            r = _random_bag(rng, left, rng.randrange(0, 12))
            s = _random_bag(rng, right, rng.randrange(0, 12))
            expected: dict = {}
            for rrow, rm in r.entries.items():
                for srow, sm in s.entries.items():
                    cells = dict(zip(left, rrow))
                    if all(cells.get(a, v) == v for a, v in zip(right, srow)):
                        cells.update(zip(right, srow))
                        row = tuple(cells[a] for a in union)
                        expected[row] = expected.get(row, 0) + rm * sm
            out = r.join(s)
            assert out.schema == union and out.entries == expected


def _reference_from_json_dict(data):
    """The parser's tuple loop before row keys came from one getter: one
    generator per row, and a duplicate caught where it occurs. A
    multiplicity is a string that a regular expression of ASCII digits
    matches, and that ``int`` reads within its digit limit."""
    if not isinstance(data, dict) or "schema" not in data or "tuples" not in data:
        raise BagFormatError("bag JSON needs 'schema' and 'tuples'")
    if not (isinstance(data["schema"], list)
            and all(isinstance(a, str) for a in data["schema"])):
        raise BagFormatError("bag schema must be a list of attribute names")
    if not isinstance(data["tuples"], list):
        raise BagFormatError("bag 'tuples' must be a list")
    try:
        schema = make_schema(data["schema"])
    except SchemaMismatchError as exc:
        raise BagFormatError(str(exc)) from exc
    keys = set(schema)
    seen = {}
    for item in data["tuples"]:
        values = item.get("values") if isinstance(item, dict) else None
        if not isinstance(values, dict) or values.keys() != keys:
            raise BagFormatError(
                "tuple %r does not match schema %r" % (item, schema))
        row = tuple(v if v.__class__ is str else _json_cell(v, item)
                    for v in map(values.__getitem__, schema))
        if row in seen:
            raise BagFormatError("duplicate tuple %r" % (row,))
        mult_s = item.get("mult")
        if not (isinstance(mult_s, str) and re.fullmatch("[0-9]+", mult_s)
                and len(mult_s) <= sys.get_int_max_str_digits()):
            raise BagFormatError("bad multiplicity %r" % (mult_s,))
        mult = int(mult_s)
        if mult <= 0:
            raise BagFormatError(
                "multiplicity must be positive, got %r for %r" % (mult, row))
        seen[row] = mult
    return Bag(schema, seen)


_CELLS = ["0", "1", "x", 0, 1, 2.5, True, None, [1], {"a": 1}]
# the first three are valid; then zero, and forms that int(str(...)) reads
# but the ASCII-digit grammar does not: a sign, spaces, an underscore,
# other scripts' digits and JSON numbers, digits past int's limit, and a
# lone surrogate
_MULTS = ["1", "3", str(2 ** 127 + 5), "0", "00", "-1", "+3", " 7 ", "7\n",
          "1_0", "\u0663", "\uff17", "2.5", "", None, 4, 5, True, "9" * 4301,
          "\ud800"]


def _outcome(parse, data):
    try:
        return parse(data)
    except BagFormatError as exc:
        return ("error", str(exc))


def test_parser_matches_reference():
    """Same Bag or same BagFormatError as the per-row generator loop, on
    seeded inputs mixing string, number, bool, null, list and object cells,
    missing and extra keys, bad multiplicities and duplicate rows."""
    rng = random.Random(0x6D)
    errors = set()
    for trial in range(3000):
        width = rng.choice([0, 1, 2, 4])
        schema = ["A", "B", "C", "D"][:width]
        rng.shuffle(schema)
        tuples = []
        for _ in range(rng.randrange(0, 6)):
            values = {a: rng.choice(_CELLS[:3]) for a in schema}
            bad = rng.random()
            if bad < 0.1 and schema:
                values[rng.choice(schema)] = rng.choice(_CELLS)
            elif bad < 0.13 and schema:
                del values[rng.choice(schema)]
            elif bad < 0.16:
                values["E"] = "1"
            mult = rng.choice(_MULTS[:3]) if rng.random() < 0.9 \
                else rng.choice(_MULTS)
            tuples.append({"values": values, "mult": mult})
        if tuples and rng.random() < 0.3:
            tuples.insert(rng.randrange(len(tuples) + 1),
                          dict(rng.choice(tuples)))
        data = {"schema": schema, "tuples": tuples}
        expected = _outcome(_reference_from_json_dict, data)
        assert _outcome(Bag.from_json_dict, data) == expected, data
        if isinstance(expected, tuple):
            errors.add(expected[1].split()[0])
    # every kind of error came up
    assert errors == {"duplicate", "tuple", "cell", "bad", "multiplicity"}
    # the first fault in tuple order is reported: a repeated row before its
    # own multiplicity, and a repeat and a malformed tuple in the order met
    row = {"values": {"A": "1"}, "mult": "2"}
    malformed = {"values": {"B": "1"}, "mult": "1"}
    for tuples, first in [
            ([row, {**row, "mult": "x"}], "duplicate tuple"),
            ([row, {**row, "mult": "0"}], "duplicate tuple"),
            ([row, row, malformed], "duplicate tuple"),
            ([row, malformed, row], "tuple {'values': {'B'")]:
        data = {"schema": ["A"], "tuples": tuples}
        expected = _outcome(_reference_from_json_dict, data)
        assert expected[1].startswith(first)
        assert _outcome(Bag.from_json_dict, data) == expected, data
    # every multiplicity past the first three is refused, each on its own
    for mult in _MULTS[3:]:
        data = {"schema": ["A"],
                "tuples": [{"values": {"A": "x"}, "mult": mult}]}
        first = "multiplicity must be positive" if mult in ("0", "00") \
            else "bad multiplicity"
        expected = _outcome(_reference_from_json_dict, data)
        assert expected[1].startswith(first)
        assert _outcome(Bag.from_json_dict, data) == expected, data
    # a duplicate still names its row
    row = {"values": {"A": "1", "B": 2}, "mult": "1"}
    with pytest.raises(BagFormatError, match=r"duplicate tuple \('1', '2'\)"):
        Bag.from_json_dict({"schema": ["A", "B"], "tuples": [row, row]})


def _distinct_rows(rng, width, n):
    """``n`` distinct rows of ``width`` string cells."""
    domain = [5000, 5000, 100, 30, 10][width]
    rows = set()
    while len(rows) < n:
        rows.add(tuple(str(rng.randrange(domain)) for _ in range(width)))
    return sorted(rows, key=lambda _: rng.random())


def _tuples(schema, rows, mults):
    return [{"values": dict(zip(schema, row)), "mult": mult}
            for row, mult in zip(rows, mults)]


# (kind, detail): every non-string cell and bad multiplicity the tests
# draw, a row repeated with valid, zero and bad multiplicities, faults in
# the shape of a tuple, and numeric cells
_LONG_FAULTS = ([("cell", c) for c in _CELLS[3:]]
                + [("mult", m) for m in _MULTS[3:]]
                + [("duplicate", m) for m in _MULTS[:6]]
                + [(kind, None) for kind in (
                    "missing key", "extra key", "not a dict", "no values",
                    "no mult", "numeric cells")])


def test_faults_deep_in_long_bags_match_reference():
    """Bags of 200-2,000 rows with one fault at a random position, after a
    long valid prefix, against the reference loop: each non-string cell of
    ``_CELLS`` and bad multiplicity of ``_MULTS``, a missing or an extra
    key, a repeated row (with valid, zero and bad multiplicities), an item
    that is not a dict, a missing "values" or "mult", and valid bags with
    numeric cells. A bag over no attributes holds one row, so it is one
    tuple long (two with a repeat), and has no cell to spoil or key to
    drop."""
    rng = random.Random(0x6E)
    kinds = set()
    for width in (0, 1, 2, 4):
        for kind, detail in _LONG_FAULTS:
            if not width and kind in ("cell", "missing key"):
                continue
            schema = ["A", "B", "C", "D"][:width]
            rng.shuffle(schema)
            n = rng.randrange(200, 2001) if width else 1
            rows = _distinct_rows(rng, width, n)
            tuples = _tuples(schema, rows,
                             [rng.choice(_MULTS[:3]) for _ in rows])
            at = rng.randrange(n)
            item = tuples[at]
            if kind == "cell":
                item["values"][rng.choice(schema)] = detail
            elif kind == "mult":
                item["mult"] = detail
            elif kind == "missing key":
                del item["values"][rng.choice(schema)]
            elif kind == "extra key":
                item["values"]["E"] = "1"
            elif kind == "duplicate":
                tuples.insert(rng.randrange(at + 1, n + 1),
                              {**item, "mult": detail})
            elif kind == "not a dict":
                tuples[at] = rng.choice([[item], "x", None, 3])
            elif kind == "no values":
                del item["values"]
            elif kind == "no mult":
                del item["mult"]
            else:  # numbers that no string cell reads as: still valid
                for i in rng.sample(range(n), min(n, 20)):
                    for a in tuples[i]["values"]:
                        tuples[i]["values"][a] = rng.choice(
                            [10 ** 6 + i, i + 0.5])
            data = {"schema": schema, "tuples": tuples}
            expected = _outcome(_reference_from_json_dict, data)
            assert _outcome(Bag.from_json_dict, data) == expected, \
                (width, kind, detail, at)
            kinds.add(expected[1].split()[0] if isinstance(expected, tuple)
                      else "valid")
    assert kinds == {"duplicate", "tuple", "cell", "bad", "multiplicity",
                     "valid"}


def test_well_formed_bags_skip_the_tuple_loop(monkeypatch):
    """Well-formed bags are accepted by the C-level passes alone: with the
    per-tuple loop made to fail, they still parse to the same bag."""
    rng = random.Random(0x6F)
    cases = []
    for width in (1, 2, 4):
        schema = ["A", "B", "C", "D"][:width]
        rng.shuffle(schema)
        rows = _distinct_rows(rng, width, 1000)
        cases.append((schema, _tuples(schema, rows,
                                      [rng.choice(_MULTS[:3]) for _ in rows])))
    cases.append(([], [{"values": {}, "mult": str(2 ** 127 + 5)}]))
    expected = [_reference_from_json_dict({"schema": s, "tuples": t})
                for s, t in cases]

    def loop(schema, get, tuples):
        raise AssertionError("the per-tuple loop ran")

    monkeypatch.setattr(bags, "_entries_by_tuple", loop)
    for (schema, tuples), bag in zip(cases, expected):
        assert Bag.from_json_dict({"schema": schema, "tuples": tuples}) == bag
    # a numeric cell still needs the loop
    with pytest.raises(AssertionError, match="the per-tuple loop ran"):
        Bag.from_json_dict({"schema": ["A"], "tuples": [
            {"values": {"A": 1}, "mult": "1"}]})


def test_subclassed_inputs_are_left_to_the_loop():
    """The passes take only exact dicts and string multiplicities: a dict
    subclass's ``__missing__`` never runs (the input stays unchanged), and
    a multiplicity's own ``encode`` is the one the loop calls."""
    class Mult(str):
        def encode(self, *args):
            return b"x"

    for schema, item, error in [
            ([], defaultdict(dict, mult="1"), "tuple"),
            (["A"], {"values": defaultdict(str), "mult": "1"}, "tuple"),
            (["A"], {"values": {"A": "1"}, "mult": Mult("3")},
             "bad multiplicity")]:
        data = {"schema": schema, "tuples": [item]}
        before = repr(data)
        with pytest.raises(BagFormatError, match=error):
            Bag.from_json_dict(data)
        assert repr(data) == before
