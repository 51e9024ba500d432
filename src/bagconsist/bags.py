"""Exact multiset (bag) relational algebra.

Bags map tuples over a fixed schema to positive integer multiplicities.
All arithmetic is exact (Python ints); the only floating-point quantities
are the log-based size norms, which are reporting-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

# A row is a tuple of string values aligned with the bag's sorted schema.
Row = tuple


class SchemaMismatchError(ValueError):
    pass


class BagFormatError(ValueError):
    """Raised when parsing an invalid serialized bag."""


def make_schema(attrs: Iterable[str]) -> tuple[str, ...]:
    """Normalize a collection of attribute names into a sorted schema."""
    attrs = [str(a) for a in attrs]
    if any(not a for a in attrs):
        raise SchemaMismatchError("attribute names must be non-empty")
    if len(set(attrs)) != len(attrs):
        raise SchemaMismatchError("duplicate attribute names: %r" % (attrs,))
    return tuple(sorted(attrs))


class Bag:
    """A finite bag over a schema of named, string-valued attributes.

    Stored entries always have strictly positive multiplicity; the support
    is exactly the key set of ``entries``.
    """

    __slots__ = ("schema", "entries")

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
            mult = int(mult)
            if mult < 0:
                raise ValueError("negative multiplicity for %r" % (row,))
            if mult:
                acc[row] = acc.get(row, 0) + mult
        object.__setattr__(self, "entries", acc)

    def __setattr__(self, name, value):
        raise AttributeError("Bag is immutable")

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Bag):
            return NotImplemented
        return self.schema == other.schema and self.entries == other.entries

    def __hash__(self):
        return hash((self.schema, frozenset(self.entries.items())))

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __call__(self, row: Row) -> int:
        """Multiplicity of a row (0 when absent)."""
        return self.entries.get(tuple(str(v) for v in row), 0)

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
        idx = self._positions(z)
        out: dict[Row, int] = {}
        for row, mult in self.entries.items():
            key = tuple(row[i] for i in idx)
            out[key] = out.get(key, 0) + mult
        return Bag(z, out)

    def join(self, other: "Bag") -> "Bag":
        """Bag join: support is the join of the supports, multiplicities
        multiply."""
        shared = tuple(sorted(set(self.schema) & set(other.schema)))
        union = make_schema(set(self.schema) | set(other.schema))
        my_shared = self._positions(shared)
        their_shared = other._positions(shared)
        # hash join on the shared attributes
        buckets: dict[Row, list[tuple[Row, int]]] = {}
        for row, mult in other.entries.items():
            key = tuple(row[i] for i in their_shared)
            buckets.setdefault(key, []).append((row, mult))
        upos = {a: i for i, a in enumerate(union)}
        out: dict[Row, int] = {}
        for row, mult in self.entries.items():
            key = tuple(row[i] for i in my_shared)
            for orow, omult in buckets.get(key, ()):
                merged = [None] * len(union)
                for a, v in zip(self.schema, row):
                    merged[upos[a]] = v
                for a, v in zip(other.schema, orow):
                    merged[upos[a]] = v
                t = tuple(merged)
                out[t] = out.get(t, 0) + mult * omult
        return Bag(union, out)

    def support(self) -> "Bag":
        """Same support, all multiplicities clamped to 1 (a relation)."""
        return Bag(self.schema, {row: 1 for row in self.entries})

    def contained_in(self, other: "Bag") -> bool:
        """Bag containment: every multiplicity bounded by the other's."""
        if self.schema != other.schema:
            raise SchemaMismatchError(
                "cannot compare bags over %r and %r" % (self.schema, other.schema))
        return all(m <= other.entries.get(row, 0)
                   for row, m in self.entries.items())

    # -- sizes -------------------------------------------------------------

    def norms(self) -> "SizeNorms":
        mults = list(self.entries.values())
        return SizeNorms(
            support_size=len(mults),
            multiplicity_bound=max(mults, default=0),
            multiplicity_size=max((math.log2(m + 1) for m in mults), default=0.0),
            unary_size=sum(mults),
            binary_size=sum(math.log2(m + 1) for m in mults),
        )

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
        if not isinstance(data, dict) or "schema" not in data or "tuples" not in data:
            raise BagFormatError("bag JSON needs 'schema' and 'tuples'")
        if not _is_name_list(data["schema"]):
            raise BagFormatError("bag schema must be a list of attribute names")
        if not isinstance(data["tuples"], list):
            raise BagFormatError("bag 'tuples' must be a list")
        try:
            schema = make_schema(data["schema"])
        except SchemaMismatchError as exc:
            raise BagFormatError(str(exc)) from exc
        keys = set(schema)
        seen: dict[Row, int] = {}
        for item in data["tuples"]:
            values = item.get("values") if isinstance(item, dict) else None
            if not isinstance(values, dict) or values.keys() != keys:
                raise BagFormatError(
                    "tuple %r does not match schema %r" % (item, schema))
            if None in values.values():
                raise BagFormatError("null value in tuple %r" % (item,))
            row = tuple(str(values[a]) for a in schema)
            if row in seen:
                raise BagFormatError("duplicate tuple %r" % (row,))
            mult_s = item.get("mult")
            try:
                mult = int(str(mult_s))
            except (TypeError, ValueError):
                raise BagFormatError("bad multiplicity %r" % (mult_s,))
            if mult <= 0:
                raise BagFormatError(
                    "multiplicity must be positive, got %r for %r" % (mult, row))
            seen[row] = mult
        return cls(schema, seen)


def _is_name_list(data) -> bool:
    """True iff parsed JSON is a list of strings (attribute names)."""
    return isinstance(data, list) and all(isinstance(a, str) for a in data)


def project_row(schema: tuple[str, ...], row: Row, attrs: Iterable[str]) -> Row:
    """Project a single row onto a sub-schema; the empty sub-schema yields
    the empty tuple."""
    z = make_schema(attrs)
    pos = {a: i for i, a in enumerate(schema)}
    missing = [a for a in z if a not in pos]
    if missing:
        raise SchemaMismatchError("attributes %r not in schema %r" % (missing, schema))
    return tuple(row[pos[a]] for a in z)


@dataclass(frozen=True)
class SizeNorms:
    """The five size measures of a bag.

    ``unary_size`` is the total mass, ``binary_size`` the summed bit sizes
    log2(m+1). The log-based fields are floats and are used only in bound
    reports, never in decision procedures.
    """
    support_size: int
    multiplicity_bound: int
    multiplicity_size: float
    unary_size: int
    binary_size: float
