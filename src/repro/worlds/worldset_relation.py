"""World-set relations: the paper's "one row per world" encoding (Section 3).

Given a finite world-set ``A`` over schema ``Σ``, every world ``A`` is
*inlined* into a single wide tuple by concatenating the tuples of each
relation, padded with ``⊥``-tuples up to the maximum cardinality of that
relation across all worlds.  The set of inlined tuples is the world-set
relation; its (maximal) product decomposition is a WSD.

This representation is exponential in general — the point of the paper —
but is needed as the formal middle step between explicit world-sets and
WSDs, and it gives us a second independent path for testing ``rep``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import Database
from ..relational.errors import RepresentationError
from ..relational.relation import Relation
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.values import BOTTOM, contains_bottom
from .worldset import WorldSet

#: A field identifier in the wide schema of a world-set relation:
#: ``(relation name, tuple position, attribute name)``.
WideField = Tuple[str, int, str]


class WorldSetRelation:
    """The world-set relation of a finite world-set.

    Attributes
    ----------
    schema:
        The database schema ``Σ`` of the represented worlds.
    max_cardinality:
        ``|R|max`` per relation name: the maximum number of tuples the
        relation has in any world.
    fields:
        The wide schema, as a tuple of ``(relation, tuple position, attribute)``
        triples, in column order.
    rows:
        One wide tuple per world (plus probabilities when present).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        max_cardinality: Dict[str, int],
        fields: Sequence[WideField],
        rows: Iterable[Tuple[Any, ...]],
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        self.schema = schema
        self.max_cardinality = dict(max_cardinality)
        self.fields = tuple(fields)
        self.rows: List[Tuple[Any, ...]] = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(self.fields):
                raise RepresentationError(
                    f"world-set relation row has {len(row)} fields, expected {len(self.fields)}"
                )
        if probabilities is not None and len(probabilities) != len(self.rows):
            raise RepresentationError("probabilities must parallel the rows")
        self.probabilities = list(probabilities) if probabilities is not None else None

    # ------------------------------------------------------------------ #
    # Construction: inline() over an explicit world-set
    # ------------------------------------------------------------------ #

    @classmethod
    def from_worldset(cls, worldset: WorldSet) -> "WorldSetRelation":
        """Inline every world of ``worldset`` (the paper's ``inline`` function)."""
        worlds = list(worldset)
        if not worlds:
            raise RepresentationError("cannot inline an empty world-set")
        schema = worlds[0].database.schema()
        for world in worlds:
            if world.database.schema() != schema:
                # Relations may be empty in some worlds; recompute a merged schema.
                schema = _merged_schema([w.database for w in worlds])
                break
        max_cardinality = {
            rel.name: max(
                (len(w.database.relation(rel.name)) if w.database.has_relation(rel.name) else 0)
                for w in worlds
            )
            for rel in schema
        }
        fields: List[WideField] = []
        for rel in schema:
            for position in range(max_cardinality[rel.name]):
                for attribute in rel.attributes:
                    fields.append((rel.name, position, attribute))

        rows = []
        for world in worlds:
            rows.append(inline(world.database, schema, max_cardinality))
        probabilities = None
        if worldset.is_probabilistic:
            probabilities = [world.probability for world in worlds]
        return cls(schema, max_cardinality, fields, rows, probabilities)

    # ------------------------------------------------------------------ #
    # Decoding: inline⁻¹
    # ------------------------------------------------------------------ #

    def to_worldset(self) -> WorldSet:
        """Decode every row back into a database (the paper's ``inline⁻¹``)."""
        result = WorldSet()
        for index, row in enumerate(self.rows):
            probability = self.probabilities[index] if self.probabilities is not None else None
            result.add(inline_inverse(row, self.fields, self.schema), probability)
        return result

    def as_relation(self, name: str = "worldset") -> Relation:
        """Render the world-set relation as an ordinary wide relation.

        Column names follow the paper's convention ``R.ti.A``.
        """
        attributes = [f"{rel}.t{pos + 1}.{attr}" for rel, pos, attr in self.fields]
        relation = Relation(RelationSchema(name, attributes))
        for row in self.rows:
            relation.insert(row)
        return relation

    @property
    def width(self) -> int:
        """Number of columns of the wide schema."""
        return len(self.fields)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"WorldSetRelation({len(self)} worlds, width {self.width})"


def inline(
    database: Database, schema: DatabaseSchema, max_cardinality: Dict[str, int]
) -> Tuple[Any, ...]:
    """Concatenate all tuples of ``database``, padding with ``⊥`` tuples.

    Tuples are taken in the relation's insertion order, which fixes one of
    the "several different inlinings of the same world-set" the paper allows.
    """
    wide: List[Any] = []
    for rel in schema:
        rows = (
            list(database.relation(rel.name).rows) if database.has_relation(rel.name) else []
        )
        if len(rows) > max_cardinality[rel.name]:
            raise RepresentationError(
                f"relation {rel.name!r} has {len(rows)} tuples, "
                f"more than the declared maximum {max_cardinality[rel.name]}"
            )
        for row in rows:
            wide.extend(row)
        padding = max_cardinality[rel.name] - len(rows)
        wide.extend([BOTTOM] * (padding * rel.arity))
    return tuple(wide)


def inline_inverse(
    row: Tuple[Any, ...], fields: Sequence[WideField], schema: DatabaseSchema
) -> Database:
    """Decode one wide tuple into a database, dropping ``⊥`` tuples."""
    per_tuple: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for (relation_name, position, attribute), value in zip(fields, row):
        per_tuple.setdefault((relation_name, position), {})[attribute] = value

    database = Database()
    for rel in schema:
        relation = Relation(RelationSchema(rel.name, rel.attributes))
        positions = sorted(pos for (name, pos) in per_tuple if name == rel.name)
        for position in positions:
            values = tuple(per_tuple[(rel.name, position)][attr] for attr in rel.attributes)
            if contains_bottom(values):
                continue
            relation.insert(values)
        database.add(relation)
    return database


def _merged_schema(databases: Sequence[Database]) -> DatabaseSchema:
    """Union of the relation schemas of several databases (names must agree on attributes)."""
    merged: Dict[str, RelationSchema] = {}
    for database in databases:
        for relation in database:
            existing = merged.get(relation.schema.name)
            if existing is None:
                merged[relation.schema.name] = relation.schema
            elif existing.attributes != relation.schema.attributes:
                raise RepresentationError(
                    f"relation {relation.schema.name!r} has conflicting schemas across worlds"
                )
    return DatabaseSchema(merged.values())
