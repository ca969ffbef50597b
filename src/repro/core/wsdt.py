"""WSDs with template relations (WSDTs) — Section 3, "Adding Template Relations".

A WSDT stores the information that is identical in all worlds once and for
all in *template relations*, using the ``?`` placeholder for fields on which
worlds disagree.  Formally, a WSDT of a world-set ``A`` is
``(R⁰₁, ..., R⁰ₖ, {C1, ..., Cm})`` such that adding one singleton component
per certain template field yields a WSD of ``A``.

This class is the "visual" middle layer between WSDs and the engine-grade
UWSDTs; conversions in both directions are lossless (``rep`` preserved),
which the property-based tests check.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import Database
from ..relational.errors import RepresentationError
from ..relational.relation import Relation
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.values import BOTTOM, PLACEHOLDER, format_value
from ..worlds.worldset import WorldSet
from .component import Component
from .fields import FieldRef
from .wsd import WSD

#: A template is a mapping ``tuple_id -> {attribute: value-or-PLACEHOLDER}``.
Template = Dict[Any, Dict[str, Any]]


class WSDT:
    """A world-set decomposition with template relations."""

    def __init__(
        self,
        schema: DatabaseSchema,
        templates: Dict[str, Template],
        components: Iterable[Component],
    ) -> None:
        self.schema = schema
        self.templates: Dict[str, Template] = {
            name: {tid: dict(fields) for tid, fields in template.items()}
            for name, template in templates.items()
        }
        self.components: List[Component] = list(components)
        self._validate()

    def _validate(self) -> None:
        placeholder_fields = set()
        for relation_schema in self.schema:
            template = self.templates.get(relation_schema.name)
            if template is None:
                raise RepresentationError(
                    f"missing template relation for {relation_schema.name!r}"
                )
            for tuple_id, fields in template.items():
                for attribute in relation_schema.attributes:
                    if attribute not in fields:
                        raise RepresentationError(
                            f"template tuple {tuple_id!r} of {relation_schema.name!r} "
                            f"misses attribute {attribute!r}"
                        )
                    if fields[attribute] is PLACEHOLDER:
                        placeholder_fields.add(
                            FieldRef(relation_schema.name, tuple_id, attribute)
                        )
        covered = set()
        for component in self.components:
            for field in component.fields:
                if field in covered:
                    raise RepresentationError(
                        f"field {field.label()} defined by more than one component"
                    )
                covered.add(field)
        missing = placeholder_fields - covered
        if missing:
            raise RepresentationError(
                f"placeholder fields without a component: {[f.label() for f in sorted(missing)]}"
            )
        extra = covered - placeholder_fields
        if extra:
            raise RepresentationError(
                f"components define non-placeholder fields: {[f.label() for f in sorted(extra)]}"
            )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def is_probabilistic(self) -> bool:
        return all(component.is_probabilistic for component in self.components)

    def placeholder_count(self) -> int:
        """Total number of ``?`` fields across all templates."""
        return sum(
            1
            for template in self.templates.values()
            for fields in template.values()
            for value in fields.values()
            if value is PLACEHOLDER
        )

    def component_count(self) -> int:
        return len(self.components)

    def template_size(self) -> int:
        """Total number of template tuples (the ``|R|`` statistic of Figure 27)."""
        return sum(len(template) for template in self.templates.values())

    def component_relation_size(self) -> int:
        """Total number of (field, local world) values — the ``|C|`` statistic of Figure 27."""
        return sum(component.arity * component.size for component in self.components)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_wsd(cls, wsd: WSD) -> "WSDT":
        """Move every certain (single-local-world) component into the templates."""
        templates: Dict[str, Template] = {
            relation_schema.name: {
                tuple_id: {} for tuple_id in wsd.tuple_ids.get(relation_schema.name, ())
            }
            for relation_schema in wsd.schema
        }
        uncertain: List[Component] = []
        for component in wsd.components:
            if component.is_certain():
                row = component.rows[0]
                for field, value in zip(component.fields, row):
                    templates[field.relation][field.tuple_id][field.attribute] = value
            else:
                uncertain.append(component)
                for field in component.fields:
                    templates[field.relation][field.tuple_id][field.attribute] = PLACEHOLDER
        return cls(DatabaseSchema(list(wsd.schema)), templates, uncertain)

    def to_wsd(self) -> WSD:
        """Expand the templates back into singleton components."""
        components: List[Component] = list(self.components)
        probabilistic = self.is_probabilistic
        for relation_schema in self.schema:
            template = self.templates[relation_schema.name]
            for tuple_id, fields in template.items():
                for attribute in relation_schema.attributes:
                    value = fields[attribute]
                    if value is PLACEHOLDER:
                        continue
                    field = FieldRef(relation_schema.name, tuple_id, attribute)
                    components.append(
                        Component((field,), [(value,)], [1.0] if probabilistic else None)
                    )
        tuple_ids = {
            relation_schema.name: list(self.templates[relation_schema.name].keys())
            for relation_schema in self.schema
        }
        return WSD(DatabaseSchema(list(self.schema)), tuple_ids, components)

    def to_worldset(self, max_worlds: Optional[int] = 1_000_000) -> WorldSet:
        """The represented set of possible worlds."""
        return self.to_wsd().to_worldset(max_worlds)

    rep = to_worldset

    def template_relation(self, relation_name: str, tid_column: str = "TID") -> Relation:
        """Render one template as an ordinary relation with a tuple-id column."""
        relation_schema = self.schema.relation(relation_name)
        attributes = (tid_column,) + relation_schema.attributes
        relation = Relation(RelationSchema(relation_name, attributes))
        for tuple_id, fields in self.templates[relation_name].items():
            relation.insert(
                (tuple_id,) + tuple(fields[a] for a in relation_schema.attributes)
            )
        return relation

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #

    def to_text(self) -> str:
        """Render templates and components in the style of Figure 5."""
        blocks: List[str] = []
        for relation_schema in self.schema:
            header = ["tid"] + list(relation_schema.attributes)
            rows = [
                [str(tuple_id)] + [
                    format_value(fields[a]) for a in relation_schema.attributes
                ]
                for tuple_id, fields in self.templates[relation_schema.name].items()
            ]
            widths = [
                max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
                for i in range(len(header))
            ]
            lines = [
                f"Template {relation_schema.name}",
                " | ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
                "-+-".join("-" * w for w in widths),
            ]
            lines.extend(
                " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
            )
            blocks.append("\n".join(lines))
        for component in self.components:
            blocks.append(component.to_text())
        return "\n  ×\n".join(blocks)

    def __repr__(self) -> str:
        return (
            f"WSDT({self.template_size()} template tuples, "
            f"{self.component_count()} components, {self.placeholder_count()} placeholders)"
        )
