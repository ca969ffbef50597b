"""Uniform WSDs with template relations (UWSDTs) — the engine-grade representation.

Section 3 of the paper introduces UWSDTs to avoid relations of arbitrary
arity: all uncertain values are stored in a fixed-schema triple of relations

* ``C[FID, LWID, VAL]``  — component values per field and local world,
* ``F[FID, CID]``        — which component defines which field,
* ``W[CID, LWID, PR]``   — local worlds of each component and their probability,

plus one *template relation* ``R⁰`` per database relation, holding certain
values and the ``?`` placeholder for uncertain fields.

This class keeps the same information in an equivalent, faster-to-access
layout: template relations are substrate :class:`~repro.relational.relation.Relation`
objects keyed by a tuple-id column, always the first one (a template row is
``(tid, *values)``, appended in bulk by :meth:`extend_template`), and the
C/F/W content is held as a dictionary of
:class:`~repro.core.component.Component` objects indexed by component id.
:meth:`to_uniform_relations` materializes the exact fixed-schema relations
of the paper (and :meth:`from_uniform_relations` reads them back, moving an
external template's tid column first), so the uniform encoding itself is
also implemented and tested; the dictionary layout is an optimization the
paper performs inside PostgreSQL with indexes on ``FID`` and ``CID``.

``F`` is additionally indexed by ``(relation, tuple id)``: the per-relation
*placeholder mask* (:meth:`placeholder_mask`) maps each tuple id that has
``?`` fields to the set of those attributes.  Tuple ids absent from the
mask are certain, so the algebra operators copy them with plain relational
processing and never build a field reference or look up a component.  The
mask, like the per-relation placeholder counts, is derived from ``F`` and
updated only where ``F`` is (:meth:`_map_field` / :meth:`_unmap_field`);
:meth:`replace_component` touches only the fields a component gained or
lost, so extending a component by one field costs O(1) index upkeep.

Tuple presence semantics follow the WSD convention: a template tuple is
present in a chosen world unless one of its placeholder fields takes the
``⊥`` value in that world.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..relational.database import Database
from ..relational.errors import RepresentationError
from ..relational.indexes import HashIndex, IndexPool
from ..relational.relation import Relation
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.values import BOTTOM, PLACEHOLDER, is_placeholder
from ..worlds.orset import OrSetRelation, is_or_set
from ..worlds.worldset import WorldSet
from .component import Component
from .fields import FieldRef
from .wsd import WSD
from .wsdt import WSDT

#: Name of the tuple-id column added to template relations.
TID = "__tid__"

#: The mask of a relation without placeholder fields.
_EMPTY_MASK: Mapping[Any, Set[str]] = MappingProxyType({})


class UWSDT:
    """A uniform world-set decomposition with template relations.

    State: one template relation per represented relation, the components
    by id, and ``F`` (``field_to_cid``) with two indexes derived from it —
    per-relation placeholder counts and per-relation placeholder masks.
    Mutate components only through :meth:`new_component`,
    :meth:`replace_component`, :meth:`remove_component` and
    :meth:`merge_components`, which keep ``F`` and both indexes in step;
    :meth:`validate` checks all of them against the templates.
    """

    def __init__(self, schema: Optional[DatabaseSchema] = None) -> None:
        self.schema = schema or DatabaseSchema()
        #: Template relations, one per represented relation, keyed by name.
        self.templates: Dict[str, Relation] = {}
        #: Components keyed by component id.
        self.components: Dict[int, Component] = {}
        #: Which component defines which placeholder field (the ``F`` relation).
        self.field_to_cid: Dict[FieldRef, int] = {}
        #: Incrementally maintained ``relation -> placeholder field count``
        #: (the per-relation cardinality of ``F``); kept in sync by the
        #: component mutators below, read by :meth:`relation_placeholder_count`.
        self._placeholder_counts: Dict[str, int] = {}
        #: Placeholder masks: ``relation -> tuple id -> placeholder attributes``
        #: (``F`` indexed by relation and tuple id); same upkeep as the counts.
        self._masks: Dict[str, Dict[Any, Set[str]]] = {}
        self._next_cid = 1
        #: Version-validated cache of template hash indexes (Section 5's
        #: "employing indices" on the fixed UWSDT schema).
        self._index_pool = IndexPool()
        for relation_schema in self.schema:
            self._init_template(relation_schema)

    # ------------------------------------------------------------------ #
    # Template and component plumbing
    # ------------------------------------------------------------------ #

    def _init_template(self, relation_schema: RelationSchema) -> None:
        # The tid column is always first: a template row is ``(tid, *values)``.
        template_schema = RelationSchema(
            relation_schema.name, (TID,) + relation_schema.attributes
        )
        self.templates[relation_schema.name] = Relation(template_schema)

    def add_relation(self, relation_schema: RelationSchema) -> None:
        """Declare a new (initially empty) represented relation."""
        if self.schema.has_relation(relation_schema.name):
            raise RepresentationError(f"relation {relation_schema.name!r} already present")
        self.schema.add(relation_schema)
        self._init_template(relation_schema)

    def add_template_tuple(self, relation_name: str, tuple_id: Any, values: Sequence[Any]) -> None:
        """Add one template tuple (values may include ``PLACEHOLDER``)."""
        self.extend_template(relation_name, [(tuple_id,) + tuple(values)])

    def extend_template(self, relation_name: str, rows: Sequence[Tuple[Any, ...]]) -> None:
        """Append whole template rows ``(tuple_id, *values)`` to one template, in order.

        Every row's arity is checked; the rows then go to the template in one
        :meth:`Relation.extend_tuples` call (set-semantics dedupe, one version
        bump and one watcher call per batch).  The rows are stored as given,
        so an operator can share its source's row tuples.
        """
        width = self.schema.relation(relation_name).arity + 1
        if not all(map(width.__eq__, map(len, rows))):
            bad = next(row for row in rows if len(row) != width)
            raise RepresentationError(
                f"template tuple for {relation_name!r} has arity {len(bad) - 1}, "
                f"expected {width - 1}"
            )
        self.templates[relation_name].extend_tuples(rows)

    def relation_placeholder_count(self, relation_name: str) -> int:
        """Number of ``?`` fields of one relation (its slice of ``F``).

        Together with the template relation's version this fully determines
        the relation's planner statistics — samples read only the template,
        densities only this count — so the statistics catalog uses the pair
        as its invalidation key: component surgery that merely rewires or
        extends components (the chase, ``Q̂`` intermediates) leaves cached
        entries valid, while anything adding or dropping a placeholder of
        the relation invalidates them.  Maintained incrementally — O(1).
        """
        return self._placeholder_counts.get(relation_name, 0)

    def placeholder_mask(self, relation_name: str) -> Mapping[Any, Set[str]]:
        """The placeholder mask of one relation: ``tuple id -> ? attributes``.

        Tuple ids without an entry have no placeholder field: every value in
        their template row is certain.  The mapping is live and read-only.
        """
        return self._masks.get(relation_name, _EMPTY_MASK)

    def _map_field(self, field: FieldRef, cid: int) -> None:
        self.field_to_cid[field] = cid
        relation, tuple_id, attribute = field
        self._placeholder_counts[relation] = self._placeholder_counts.get(relation, 0) + 1
        mask = self._masks.get(relation)
        if mask is None:
            mask = self._masks[relation] = {}
        marked = mask.get(tuple_id)
        if marked is None:
            mask[tuple_id] = {attribute}
        else:
            marked.add(attribute)

    def _unmap_field(self, field: FieldRef) -> None:
        if self.field_to_cid.pop(field, None) is not None:
            relation, tuple_id, attribute = field
            self._placeholder_counts[relation] -= 1
            mask = self._masks[relation]
            marked = mask[tuple_id]
            marked.discard(attribute)
            if not marked:
                del mask[tuple_id]

    def _check_unassigned(self, fields: Iterable[FieldRef], cid: Optional[int] = None) -> None:
        """Raise if any of ``fields`` already belongs to a component other than ``cid``."""
        field_to_cid = self.field_to_cid
        for field in fields:
            existing = field_to_cid.get(field)
            if existing is not None and existing != cid:
                raise RepresentationError(
                    f"field {field.label()} already assigned to component {existing}"
                )

    def new_component(self, component: Component) -> int:
        """Register a component and return its component id."""
        self._check_unassigned(component.fields)
        cid = self._next_cid
        self._next_cid += 1
        self.components[cid] = component
        for field in component.fields:
            self._map_field(field, cid)
        return cid

    def replace_component(self, cid: int, component: Component) -> None:
        """Replace the component stored under ``cid``.

        Only the difference between the old and the new field set is
        re-indexed: fields the new component adds are mapped, fields it
        drops are unmapped.  The common case — ``ext`` appending fields to
        the old ones — is recognized by a prefix comparison; any other
        change (reordering by ``compose``, ``project_away``) falls back to a
        set difference.  A field that already belongs to another component
        raises before any state changes.
        """
        old_fields = self.components[cid].fields
        new_fields = component.fields
        if new_fields[: len(old_fields)] == old_fields:
            added: Sequence[FieldRef] = new_fields[len(old_fields):]
            removed: Sequence[FieldRef] = ()
        else:
            old_set = set(old_fields)
            new_set = set(new_fields)
            added = [field for field in new_fields if field not in old_set]
            removed = [field for field in old_fields if field not in new_set]
        self._check_unassigned(added, cid)
        self.components[cid] = component
        for field in removed:
            self._unmap_field(field)
        for field in added:
            self._map_field(field, cid)

    def remove_component(self, cid: int) -> None:
        component = self.components.pop(cid)
        for field in component.fields:
            self._unmap_field(field)

    def component_of(self, field: FieldRef) -> Optional[int]:
        """Component id defining ``field`` (None for certain template fields)."""
        return self.field_to_cid.get(field)

    def merge_components(self, cids: Sequence[int]) -> int:
        """Compose several components into one; return the surviving cid."""
        unique = sorted(set(cids))
        if len(unique) == 1:
            return unique[0]
        merged = self.components[unique[0]]
        for cid in unique[1:]:
            merged = merged.compose(self.components[cid])
        for cid in unique[1:]:
            self.remove_component(cid)
        self.replace_component(unique[0], merged)
        return unique[0]

    def field_value(self, relation_name: str, tuple_id: Any, attribute: str) -> Any:
        """Template value of a field (may be ``PLACEHOLDER``)."""
        template = self.templates[relation_name]
        position = template.schema.position(attribute)
        for row in template:
            if row[0] == tuple_id:
                return row[position]
        raise RepresentationError(
            f"tuple {tuple_id!r} not found in template of {relation_name!r}"
        )

    def template_index(self, relation_name: str, attribute: str) -> HashIndex:
        """A (cached) hash index over one attribute of a template relation.

        The index maps template values — including the ``?`` placeholder
        sentinel — to full template rows.  Pushed-down equality selections
        probe it with the constant plus ``?`` instead of scanning the whole
        template; the cache is invalidated automatically when the template
        relation changes (see :class:`~repro.relational.indexes.IndexPool`).
        """
        return self._index_pool.hash_index(self.templates[relation_name], (attribute,))

    def template_rows(self, relation_name: str) -> Iterator[Tuple[Any, Tuple[Any, ...]]]:
        """Yield ``(tuple_id, values)`` pairs of one template (values without the tid column)."""
        for row in self.templates[relation_name]:
            yield row[0], row[1:]

    # ------------------------------------------------------------------ #
    # Statistics (the columns of Figure 27 / Figure 28)
    # ------------------------------------------------------------------ #

    def component_count(self) -> int:
        """``#comp`` of Figure 27: number of components."""
        return len(self.components)

    def multi_placeholder_component_count(self) -> int:
        """``#comp>1`` of Figure 27: components spanning more than one placeholder."""
        return sum(1 for component in self.components.values() if component.arity > 1)

    def component_relation_size(self) -> int:
        """``|C|`` of Figure 27: rows of the uniform component relation ``C``."""
        return sum(
            component.arity * component.size for component in self.components.values()
        )

    def template_size(self, relation_name: Optional[str] = None) -> int:
        """``|R|`` of Figure 27: number of template tuples."""
        if relation_name is not None:
            return len(self.templates[relation_name])
        return sum(len(template) for template in self.templates.values())

    def placeholder_count(self) -> int:
        """Number of ``?`` fields across all templates."""
        return len(self.field_to_cid)

    def component_size_distribution(self) -> Dict[int, int]:
        """Histogram ``placeholders-per-component -> count`` (Figure 28)."""
        histogram: Dict[int, int] = {}
        for component in self.components.values():
            histogram[component.arity] = histogram.get(component.arity, 0) + 1
        return histogram

    def statistics(self) -> Dict[str, int]:
        """All Figure 27 statistics in one dictionary."""
        return {
            "components": self.component_count(),
            "components_gt1": self.multi_placeholder_component_count(),
            "component_relation_size": self.component_relation_size(),
            "template_size": self.template_size(),
            "placeholders": self.placeholder_count(),
        }

    def validate(self) -> None:
        """Check structural invariants.

        Every template's tid column is its first; every ``?`` cell has a
        component and no certain cell has one; the placeholder mask equals
        the template's ``?`` cells tuple by tuple; the per-relation
        placeholder counts equal a recount of ``F``; every component is
        internally consistent and mapped in ``F``.
        """
        for relation_schema in self.schema:
            name = relation_schema.name
            template = self.templates[name]
            if template.schema.attributes != (TID,) + relation_schema.attributes:
                raise RepresentationError(
                    f"template of {name!r} has columns {template.schema.attributes!r}, "
                    f"expected {TID!r} first and then {relation_schema.attributes!r}"
                )
            mask = self.placeholder_mask(name)
            seen = set()
            for row in template:
                tuple_id = row[0]
                seen.add(tuple_id)
                placeholders = set()
                for attribute, value in zip(relation_schema.attributes, row[1:]):
                    field = FieldRef(name, tuple_id, attribute)
                    if is_placeholder(value):
                        placeholders.add(attribute)
                        if field not in self.field_to_cid:
                            raise RepresentationError(
                                f"placeholder field {field.label()} has no component"
                            )
                    elif field in self.field_to_cid:
                        raise RepresentationError(
                            f"certain field {field.label()} should not be in a component"
                        )
                if mask.get(tuple_id, set()) != placeholders:
                    raise RepresentationError(
                        f"placeholder mask of {name!r} tuple {tuple_id!r} is "
                        f"{sorted(mask.get(tuple_id, ()))!r}, template has {sorted(placeholders)!r}"
                    )
            stray = [tuple_id for tuple_id in mask if tuple_id not in seen]
            if stray:
                raise RepresentationError(
                    f"placeholder mask of {name!r} covers tuples {stray!r} missing from the template"
                )
        recount: Dict[str, int] = {}
        for field in self.field_to_cid:
            recount[field.relation] = recount.get(field.relation, 0) + 1
        counts = {name: count for name, count in self._placeholder_counts.items() if count}
        if counts != recount:
            raise RepresentationError(
                f"placeholder counts {counts!r} disagree with F's recount {recount!r}"
            )
        for cid, component in self.components.items():
            component.validate()
            for field in component.fields:
                if self.field_to_cid.get(field) != cid:
                    raise RepresentationError(
                        f"field map out of sync for {field.label()} (component {cid})"
                    )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_wsdt(cls, wsdt: WSDT) -> "UWSDT":
        """Build a UWSDT from a WSDT (same templates, components get ids)."""
        result = cls(DatabaseSchema(list(wsdt.schema)))
        for relation_schema in wsdt.schema:
            for tuple_id, fields in wsdt.templates[relation_schema.name].items():
                values = tuple(fields[a] for a in relation_schema.attributes)
                result.add_template_tuple(relation_schema.name, tuple_id, values)
        for component in wsdt.components:
            result.new_component(component)
        return result

    @classmethod
    def from_wsd(cls, wsd: WSD) -> "UWSDT":
        """Build a UWSDT from a WSD by first extracting templates."""
        return cls.from_wsdt(WSDT.from_wsd(wsd))

    @classmethod
    def from_relation(cls, relation: Relation, probabilistic: bool = True) -> "UWSDT":
        """A UWSDT of a fully certain relation (no placeholders at all)."""
        result = cls(DatabaseSchema([relation.schema]))
        result.extend_template(
            relation.schema.name,
            [(index,) + row for index, row in enumerate(relation, start=1)],
        )
        return result

    @classmethod
    def from_orset_relation(cls, orset: OrSetRelation, probabilistic: bool = True) -> "UWSDT":
        """Direct linear encoding of an or-set relation (the census ingestion path).

        Certain fields go straight to the template; each or-set field becomes
        a one-placeholder component.  This avoids materializing the
        field-per-component WSD for large relations.
        """
        return cls.from_orset_relations([orset], probabilistic)

    @classmethod
    def from_orset_relations(
        cls, orsets: Sequence[OrSetRelation], probabilistic: bool = True
    ) -> "UWSDT":
        """Linear encoding of several or-set relations into one UWSDT.

        The relations' or-sets are independent of each other, exactly as if
        each had been encoded separately — the multi-relation input the join
        queries (and the possible-worlds oracle) work on.
        """
        result = cls(DatabaseSchema([orset.schema for orset in orsets]))
        for orset in orsets:
            batch: List[Tuple[Any, ...]] = []
            for index, row in enumerate(orset.rows, start=1):
                batch.append(
                    (index,) + tuple(PLACEHOLDER if is_or_set(value) else value for value in row)
                )
                for attribute, value in zip(orset.schema.attributes, row):
                    if is_or_set(value):
                        field = FieldRef(orset.schema.name, index, attribute)
                        if value.probabilities is not None:
                            component = Component(
                                (field,), [(v,) for v in value.values], list(value.probabilities)
                            )
                        elif probabilistic:
                            component = Component.uniform(field, value.values)
                        else:
                            component = Component((field,), [(v,) for v in value.values], None)
                        result.new_component(component)
            result.extend_template(orset.schema.name, batch)
        return result

    def to_wsdt(self) -> WSDT:
        """Convert back to the (non-uniform) WSDT representation."""
        templates: Dict[str, Dict[Any, Dict[str, Any]]] = {}
        for relation_schema in self.schema:
            template: Dict[Any, Dict[str, Any]] = {}
            for tuple_id, values in self.template_rows(relation_schema.name):
                template[tuple_id] = dict(zip(relation_schema.attributes, values))
            templates[relation_schema.name] = template
        return WSDT(
            DatabaseSchema(list(self.schema)), templates, list(self.components.values())
        )

    def to_wsd(self) -> WSD:
        """Convert to a plain WSD (singleton components for certain fields)."""
        return self.to_wsdt().to_wsd()

    def to_worldset(self, max_worlds: Optional[int] = 1_000_000) -> WorldSet:
        """The represented set of possible worlds (``rep``)."""
        return self.to_wsdt().to_worldset(max_worlds)

    rep = to_worldset

    @property
    def is_probabilistic(self) -> bool:
        return all(component.is_probabilistic for component in self.components.values())

    def copy(self) -> "UWSDT":
        """Structural copy."""
        result = UWSDT(DatabaseSchema(list(self.schema)))
        for name, template in self.templates.items():
            result.templates[name] = template.copy()
        for cid, component in self.components.items():
            result.components[cid] = Component(
                component.fields, component.rows, component.probabilities
            )
        result.field_to_cid = dict(self.field_to_cid)
        result._placeholder_counts = dict(self._placeholder_counts)
        result._masks = {
            relation: {tuple_id: set(marked) for tuple_id, marked in mask.items()}
            for relation, mask in self._masks.items()
        }
        result._next_cid = self._next_cid
        return result

    # ------------------------------------------------------------------ #
    # The paper's fixed-schema uniform relations
    # ------------------------------------------------------------------ #

    def to_uniform_relations(self) -> Dict[str, Relation]:
        """Build the paper's fixed-schema relations ``C``, ``F`` and ``W``.

        ``FID`` is flattened into three columns (``REL``, ``TID``, ``ATTR``) as
        the paper's footnote 3 describes.
        """
        component_relation = Relation(
            RelationSchema("C", ("REL", "TID", "ATTR", "LWID", "VAL"))
        )
        mapping_relation = Relation(RelationSchema("F", ("REL", "TID", "ATTR", "CID")))
        world_relation = Relation(RelationSchema("W", ("CID", "LWID", "PR")))
        for cid in sorted(self.components):
            component = self.components[cid]
            for field in component.fields:
                mapping_relation.insert(
                    (field.relation, field.tuple_id, field.attribute, cid)
                )
            for lwid in range(1, component.size + 1):
                world_relation.insert((cid, lwid, component.probability(lwid - 1)))
                row = component.rows[lwid - 1]
                for field, value in zip(component.fields, row):
                    component_relation.insert(
                        (field.relation, field.tuple_id, field.attribute, lwid, value)
                    )
        return {"C": component_relation, "F": mapping_relation, "W": world_relation}

    @classmethod
    def from_uniform_relations(
        cls,
        schema: DatabaseSchema,
        templates: Dict[str, Relation],
        uniform: Dict[str, Relation],
        probabilistic: bool = True,
    ) -> "UWSDT":
        """Rebuild a UWSDT from template relations plus the C/F/W relations."""
        result = cls(DatabaseSchema(list(schema)))
        for relation_schema in schema:
            template = templates[relation_schema.name]
            tid_position = template.schema.position(TID)
            for row in template:
                values = tuple(v for i, v in enumerate(row) if i != tid_position)
                result.add_template_tuple(relation_schema.name, row[tid_position], values)

        mapping = uniform["F"]
        component_values = uniform["C"]
        worlds = uniform["W"]

        fields_per_cid: Dict[Any, List[FieldRef]] = {}
        for rel, tid, attr, cid in mapping.rows:
            fields_per_cid.setdefault(cid, []).append(FieldRef(rel, tid, attr))

        probabilities_per_cid: Dict[Any, Dict[Any, float]] = {}
        for cid, lwid, probability in worlds.rows:
            probabilities_per_cid.setdefault(cid, {})[lwid] = probability

        values_per_cid: Dict[Any, Dict[Any, Dict[FieldRef, Any]]] = {}
        for rel, tid, attr, lwid, value in component_values.rows:
            field = FieldRef(rel, tid, attr)
            cid = None
            for candidate, fields in fields_per_cid.items():
                if field in fields:
                    cid = candidate
                    break
            if cid is None:
                raise RepresentationError(f"value for unmapped field {field.label()}")
            values_per_cid.setdefault(cid, {}).setdefault(lwid, {})[field] = value

        for cid, fields in fields_per_cid.items():
            local_worlds = values_per_cid.get(cid, {})
            lwids = sorted(local_worlds)
            rows = []
            probabilities = [] if probabilistic else None
            for lwid in lwids:
                assignment = local_worlds[lwid]
                rows.append(tuple(assignment.get(field, BOTTOM) for field in fields))
                if probabilities is not None:
                    probabilities.append(probabilities_per_cid.get(cid, {}).get(lwid, 0.0))
            result.new_component(Component(tuple(fields), rows, probabilities))
        return result

    # ------------------------------------------------------------------ #
    # Decoding helpers shared by rep(), possible() and the benchmarks
    # ------------------------------------------------------------------ #

    def certain_world(self) -> Database:
        """The single world obtained by ignoring uncertainty (placeholders dropped).

        Used as the "one world, 0 % density" baseline of Figure 30: when the
        representation has no placeholders this *is* the represented world.
        """
        database = Database()
        for relation_schema in self.schema:
            relation = Relation(relation_schema)
            for tuple_id, values in self.template_rows(relation_schema.name):
                if any(is_placeholder(v) for v in values):
                    continue
                relation.insert(values)
            database.add(relation)
        return database

    def __repr__(self) -> str:
        return (
            f"UWSDT(relations {list(self.schema.relation_names)!r}, "
            f"{self.template_size()} template tuples, {self.component_count()} components)"
        )
