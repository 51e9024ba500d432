"""Exact multiset (bag) relational algebra.

Bags map tuples over a fixed schema to positive integer multiplicities.
All arithmetic is exact (Python ints).

Every per-row key comes from one of two getters built here. A key that
is only compared, never stored as a row (a marginal's group,
``Bag.join``'s buckets, the oracle's support-join buckets and the witness
glue's groups), comes from :func:`_group_key`: the bare cell on one
position. A row comes from :func:`_row_key`, always a tuple: a parsed
JSON row, the new cells and merged rows of a join or glue, a glued row
picked into schema order, and the lookups of rows in an index (the
oracle's system, the flow network). Marginals are summed in one place,
:func:`_summed`: ``Bag.marginal``, the witness check and the deciders
hand it cell positions, and on none it gives the total mass without a
pass over the rows. The deciders compare its dicts as they are;
``Bag.marginal`` and the witness check take them keyed by rows from
:func:`_summed_rows`, the one place that turns a one-attribute result's
bare cells into rows. A serialized bag whose tuples are all
well formed, with string cells, is accepted by a few C-level passes over
its whole tuple list; any other list is read by one loop over the tuples,
which converts numeric cells and reports the first fault in tuple order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

# A row is a tuple of string values aligned with the bag's sorted schema.
Row = tuple


def _row_key(positions) -> Callable:
    """A callable that maps a row (a tuple, or a dict of named cells) to
    the tuple of its cells at ``positions``: ``operator.itemgetter`` for two
    or more positions, a one-element wrapper for one, ``()`` for none."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


def _group_key(positions) -> Callable:
    """``operator.itemgetter`` at ``positions`` (a cell for one, a tuple
    for more), or ``()`` for none: a key that is compared, never a row."""
    return itemgetter(*positions) if positions else _row_key(positions)


def _summed(positions, entries: Mapping[Row, int]) -> dict:
    """``entries``' multiplicities summed per group key (:func:`_group_key`)
    of the rows at ``positions``, in first-occurrence order: on one
    position the key is the bare cell, not a row: a caller that needs
    ``Bag`` rows calls :func:`_summed_rows`. On none, the total mass
    (``{}`` for no rows), with no pass over rows."""
    if not positions:
        return {(): sum(entries.values())} if entries else {}
    out: dict = {}
    for k, mult in zip(map(_group_key(positions), entries), entries.values()):
        out[k] = out.get(k, 0) + mult
    return out


def _summed_rows(positions, entries: Mapping[Row, int]) -> dict:
    """:func:`_summed` keyed by rows: on one position each bare cell is
    made a 1-tuple, once per group."""
    out = _summed(positions, entries)
    return dict(zip(zip(out), out.values())) if len(positions) == 1 else out


class SchemaMismatchError(ValueError):
    pass


class BagFormatError(ValueError):
    """Raised when parsing an invalid serialized bag."""


def make_schema(attrs: Iterable[str]) -> tuple[str, ...]:
    """Normalize a collection of attribute names into a sorted schema."""
    attrs = list(map(str, attrs))
    if not all(attrs):
        raise SchemaMismatchError("attribute names must be non-empty")
    if len(set(attrs)) != len(attrs):
        raise SchemaMismatchError("duplicate attribute names: %r" % (attrs,))
    return tuple(sorted(attrs))


@dataclass(frozen=True, init=False, repr=False)
class Bag:
    """A finite bag over a schema of named, string-valued attributes.

    Stored entries always have strictly positive multiplicity; the support
    is exactly the key set of ``entries``. A frozen dataclass, compared by
    both fields; immutability is shallow: ``entries`` is a plain dict that
    callers must not mutate, since the hash reads it.
    """

    schema: tuple[str, ...]
    entries: dict[Row, int]

    def __init__(self, schema: Iterable[str],
                 entries: Union[Mapping[Row, int], Iterable[tuple[Row, int]]] = ()):
        object.__setattr__(self, "schema", make_schema(schema))
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[Row, int] = {}
        width = len(self.schema)
        for row, mult in items:
            row = tuple(str(v) for v in row)
            if len(row) != width:
                raise SchemaMismatchError(
                    "row %r does not fit schema %r" % (row, self.schema))
            if mult.__class__ is not int:  # refuses bools, floats and strs
                raise ValueError("multiplicity %r for %r is not an int"
                                 % (mult, row))
            if mult < 0:
                raise ValueError("negative multiplicity for %r" % (row,))
            if mult:
                acc[row] = acc.get(row, 0) + mult
        object.__setattr__(self, "entries", acc)

    @classmethod
    def _trusted(cls, schema: tuple[str, ...], entries: dict[Row, int]) -> "Bag":
        """Store a schema from ``make_schema`` and entries whose rows are
        string tuples of its width with positive multiplicities, as they
        are: for results of operations on bags, which are valid by
        construction."""
        bag = object.__new__(cls)
        object.__setattr__(bag, "schema", schema)
        object.__setattr__(bag, "entries", entries)
        return bag

    # -- basic protocol ----------------------------------------------------

    def __hash__(self):
        return hash((self.schema, frozenset(self.entries.items())))

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __repr__(self):
        body = ", ".join("%r:%d" % (r, m) for r, m in sorted(self.entries.items()))
        return "Bag(%r, {%s})" % (list(self.schema), body)

    def rows(self):
        """Support rows in canonical (sorted) order."""
        return sorted(self.entries)

    # -- relational operations --------------------------------------------

    def _positions(self, sub: tuple[str, ...]) -> list[int]:
        pos = {a: i for i, a in enumerate(self.schema)}
        missing = [a for a in sub if a not in pos]
        if missing:
            raise SchemaMismatchError(
                "attributes %r not in schema %r" % (missing, self.schema))
        return [pos[a] for a in sub]

    def marginal(self, attrs: Iterable[str]) -> "Bag":
        """The marginal over a sub-schema: agreeing rows have their
        multiplicities summed."""
        z = make_schema(attrs)
        return Bag._trusted(z, _summed_rows(self._positions(z), self.entries))

    def join(self, other: "Bag") -> "Bag":
        """Bag join: support is the join of the supports, multiplicities
        multiply. Each joined row comes once: it determines the two rows it
        joins."""
        shared = tuple(sorted(set(self.schema) & set(other.schema)))
        union = make_schema(set(self.schema) | set(other.schema))
        # hash join on the shared attributes
        their_key = _group_key(other._positions(shared))
        buckets: dict = {}
        for row, mult in other.entries.items():
            buckets.setdefault(their_key(row), []).append((row, mult))
        my_key = _group_key(self._positions(shared))
        # a joined row is picked, in schema order, from the concatenation
        width = len(self.schema)
        merge = _row_key([self.schema.index(a) if a in self.schema
                          else width + other.schema.index(a) for a in union])
        return Bag._trusted(union, {
            merge(row + orow): mult * omult
            for row, mult in self.entries.items()
            for orow, omult in buckets.get(my_key(row), ())})

    def support(self) -> "Bag":
        """Same support, all multiplicities clamped to 1 (a relation)."""
        return Bag._trusted(self.schema, dict.fromkeys(self.entries, 1))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": list(self.schema),
            "tuples": [
                {"values": dict(zip(self.schema, row)), "mult": str(mult)}
                for row, mult in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Bag":
        """The bag of ``{"schema": [...], "tuples": [{"values": {...},
        "mult": "..."}, ...]}``. Cells are strings, or numbers taken as
        their text; null, booleans, lists and objects are not accepted. A
        multiplicity is a string of ASCII digits. A few C-level passes over
        the whole list (:func:`_entries_at_once`) accept the common case:
        every cell a string and no fault anywhere. Any other list is read
        by one loop over the tuples (:func:`_entries_by_tuple`), which
        converts numeric cells and raises the first fault in tuple order."""
        if not isinstance(data, dict) or "schema" not in data or "tuples" not in data:
            raise BagFormatError("bag JSON needs 'schema' and 'tuples'")
        if not _is_name_list(data["schema"]):
            raise BagFormatError("bag schema must be a list of attribute names")
        tuples = data["tuples"]
        if not isinstance(tuples, list):
            raise BagFormatError("bag 'tuples' must be a list")
        try:
            schema = make_schema(data["schema"])
        except SchemaMismatchError as exc:
            raise BagFormatError(str(exc)) from exc
        get = _row_key(schema)
        entries = _entries_at_once(get, len(schema), tuples)
        if entries is None:
            entries = _entries_by_tuple(schema, get, tuples)
        return cls._trusted(schema, entries)


_values = itemgetter("values")
_mult = itemgetter("mult")


def _entries_at_once(get: Callable, width: int, tuples: list):
    """The entries of ``tuples`` when every item is a dict whose "values"
    is a dict of exactly the schema's attributes (``get`` finds each, and
    there are ``width`` of them), every cell is a string, every "mult" a
    string of ASCII digits naming a positive int, and no row repeats; None
    otherwise, which leaves the list to :func:`_entries_by_tuple`. What
    this accepts, the loop accepts too, with the same entries. Each check
    is one C-level pass over the whole list. Items and values must be
    exact dicts before a getter runs on them, so no subclass's
    ``__missing__`` runs."""
    try:
        if not {dict}.issuperset(map(type, tuples)):
            return None
        values = list(map(_values, tuples))
        if not ({dict}.issuperset(map(type, values))
                and {width}.issuperset(map(len, values))):
            return None
        rows = list(map(get, values))
        "".join(map("".join, rows))  # every cell is a string
        mults = list(map(_mult, tuples))
        # exact strings, so that encode is the one the loop calls; ASCII
        # digits only, as in the loop; int refuses an empty string and too
        # many digits
        if not ({str}.issuperset(map(type, mults))
                and "".join(mults).encode().isdigit()):
            return None
        seen = dict(zip(rows, map(int, mults)))
    except (KeyError, TypeError, ValueError):
        return None
    # fewer entries than tuples: a repeated row; a false value: a zero
    if len(seen) != len(tuples) or not all(seen.values()):
        return None
    return seen


def _entries_by_tuple(schema: tuple[str, ...], get: Callable,
                      tuples: list) -> dict:
    """The entries of ``tuples``, read in one loop that checks, converts
    and deduplicates each tuple where it occurs: the first fault in tuple
    order is the error raised."""
    keys = set(schema)
    seen: dict[Row, int] = {}
    for count, item in enumerate(tuples):
        values = item.get("values") if isinstance(item, dict) else None
        if not isinstance(values, dict) or values.keys() != keys:
            raise BagFormatError(
                "tuple %r does not match schema %r" % (item, schema))
        row = get(values)
        try:
            "".join(row)  # every cell is a string: one C-level check
        except TypeError:
            row = tuple(v if v.__class__ is str else _json_cell(v, item)
                        for v in row)
        mult_s = item.get("mult")
        try:  # ASCII digits only: bytes.isdigit() reads no other; a
            # non-str has no encode, a surrogate or too many digits fail
            mult = int(mult_s) if mult_s.encode().isdigit() else None
        except (AttributeError, ValueError):
            mult = None
        # the row is stored before its multiplicity is checked, so a
        # repeat is reported first; seen stops growing at a repeat
        seen[row] = mult
        if len(seen) == count:
            raise BagFormatError("duplicate tuple %r" % (row,))
        if mult is None:
            raise BagFormatError("bad multiplicity %r" % (mult_s,))
        if mult <= 0:
            raise BagFormatError("multiplicity must be positive, got %r "
                                 "for %r" % (mult, row))
    return seen


def _json_cell(value, item) -> str:
    """A non-string JSON cell value as a string: finite numbers are accepted;
    NaN and infinities (``json`` reads them), null, booleans, lists and
    objects are not."""
    if value.__class__ is int or (value.__class__ is float
                                  and math.isfinite(value)):
        return str(value)
    raise BagFormatError("cell value %r in tuple %r is not a string or a "
                         "finite number" % (value, item))


def _is_name_list(data) -> bool:
    """True iff parsed JSON is a list of strings (attribute names)."""
    if not isinstance(data, list):
        return False
    try:
        "".join(data)  # every name is a string: one C-level check
    except TypeError:
        return False
    return True
