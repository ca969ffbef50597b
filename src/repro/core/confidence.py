"""Confidence computation and the ``possible`` operator (Section 6, Figures 17–19).

These are the operators that look *across* worlds:

* ``conf(t)``        — probability that tuple ``t`` appears in a relation,
* ``possible(R)``    — tuples appearing in at least one world,
* ``possible_p(R)``  — possible tuples together with their confidences,
* ``certain(R)``     — tuples appearing in every world (derived).

The implementation follows the paper's algorithm: prune the components to
the columns relevant for the queried relation, normalize to a *tuple-level*
WSD (every tuple's fields in one component — this step can be exponential
in the worst case, which is unavoidable since certainty checking is
NP-hard), and then combine per-component matches with the independence
formula ``c := 1 − (1 − c) · (1 − conf_C)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..relational.errors import RepresentationError
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..relational.values import BOTTOM
from .component import Component, compose_all
from .fields import FieldRef
from .uwsdt import UWSDT
from .wsd import WSD

#: A possible tuple together with its confidence.
RankedTuple = Tuple[Tuple[Any, ...], float]


# --------------------------------------------------------------------------- #
# Tuple-level normalization
# --------------------------------------------------------------------------- #


def tuple_level_components(wsd: WSD, relation_name: str) -> List[Tuple[Component, List[Any]]]:
    """Group the components so every tuple of ``relation_name`` lives in one component.

    Returns ``(component, tuple_ids)`` pairs: the (possibly composed)
    component together with the tuple ids of ``relation_name`` it defines.
    Components not defining any field of ``relation_name`` are dropped (they
    cannot influence membership of its tuples).
    """
    relation_schema = wsd.schema.relation(relation_name)

    # Restrict each component to the columns of the queried relation.
    pruned: List[Component] = []
    for component in wsd.components:
        keep = [f for f in component.fields if f.relation == relation_name]
        if not keep:
            continue
        drop = [f for f in component.fields if f.relation != relation_name]
        reduced = component.project_away(drop) if drop else component
        if reduced is not None:
            pruned.append(reduced)

    # Union-find over tuple ids so all fields of one tuple end up together.
    groups: List[List[Component]] = []
    group_of_tuple: Dict[Any, int] = {}
    for component in pruned:
        tuple_ids = {f.tuple_id for f in component.fields}
        touching = sorted({group_of_tuple[t] for t in tuple_ids if t in group_of_tuple})
        if not touching:
            groups.append([component])
            index = len(groups) - 1
        else:
            index = touching[0]
            groups[index].append(component)
            for other in touching[1:]:
                groups[index].extend(groups[other])
                groups[other] = []
        for component_in_group in groups[index]:
            for field in component_in_group.fields:
                group_of_tuple[field.tuple_id] = index

    result: List[Tuple[Component, List[Any]]] = []
    for group in groups:
        if not group:
            continue
        composed = compose_all(group)
        tuple_ids = sorted({f.tuple_id for f in composed.fields}, key=repr)
        result.append((composed, tuple_ids))
    return result


def _tuple_values(
    component: Component,
    relation_name: str,
    tuple_id: Any,
    row: Tuple[Any, ...],
    attributes: Sequence[str],
    certain: Dict[str, Any],
) -> Optional[Tuple[Any, ...]]:
    """The values of one tuple in one local world, or None if the tuple is absent."""
    values: List[Any] = []
    for attribute in attributes:
        field = FieldRef(relation_name, tuple_id, attribute)
        if component.has_field(field):
            value = row[component.position(field)]
        elif attribute in certain:
            value = certain[attribute]
        else:
            return None
        if value is BOTTOM:
            return None
        values.append(value)
    return tuple(values)


# --------------------------------------------------------------------------- #
# WSD-level operators (Figures 17–19)
# --------------------------------------------------------------------------- #


def confidence(wsd: WSD, relation_name: str, values: Sequence[Any]) -> float:
    """``conf(t)``: probability that tuple ``values`` is in ``relation_name`` (Figure 17)."""
    if not wsd.is_probabilistic:
        raise RepresentationError("confidence computation requires a probabilistic WSD")
    target = tuple(values)
    attributes = wsd.schema.relation(relation_name).attributes
    if len(target) != len(attributes):
        raise RepresentationError(
            f"tuple {target!r} has arity {len(target)}, expected {len(attributes)}"
        )
    result = 0.0
    for component, tuple_ids in tuple_level_components(wsd, relation_name):
        component_confidence = 0.0
        for row_index, row in enumerate(component.rows):
            matched = False
            for tuple_id in tuple_ids:
                candidate = _tuple_values(component, relation_name, tuple_id, row, attributes, {})
                if candidate == target:
                    matched = True
                    break
            if matched:
                component_confidence += component.probability(row_index)
        result = 1.0 - (1.0 - result) * (1.0 - component_confidence)
    return result


def possible(wsd: WSD, relation_name: str) -> List[Tuple[Any, ...]]:
    """``possible(R)``: tuples appearing in at least one world (Figure 18)."""
    attributes = wsd.schema.relation(relation_name).attributes
    seen: List[Tuple[Any, ...]] = []
    seen_set = set()
    for component, tuple_ids in tuple_level_components(wsd, relation_name):
        for row in component.rows:
            for tuple_id in tuple_ids:
                candidate = _tuple_values(component, relation_name, tuple_id, row, attributes, {})
                if candidate is not None and candidate not in seen_set:
                    seen_set.add(candidate)
                    seen.append(candidate)
    return seen


def possible_with_confidence(wsd: WSD, relation_name: str) -> List[RankedTuple]:
    """``possible_p(R)``: possible tuples with their confidences (Figure 19)."""
    return [(row, confidence(wsd, relation_name, row)) for row in possible(wsd, relation_name)]


def certain(wsd: WSD, relation_name: str, tolerance: float = 1e-9) -> List[Tuple[Any, ...]]:
    """Tuples whose confidence is 1 (present in every world)."""
    return [
        row
        for row, conf in possible_with_confidence(wsd, relation_name)
        if conf >= 1.0 - tolerance
    ]


def possible_relation(wsd: WSD, relation_name: str, result_name: str = "possible") -> Relation:
    """Build ``possible(R)`` as an ordinary relation."""
    attributes = wsd.schema.relation(relation_name).attributes
    relation = Relation(RelationSchema(result_name, attributes))
    for row in possible(wsd, relation_name):
        relation.insert(row)
    return relation


# --------------------------------------------------------------------------- #
# UWSDT-level operators
# --------------------------------------------------------------------------- #


def _uwsdt_tuple_groups(uwsdt: UWSDT, relation_name: str):
    """Split a relation's template tuples into certain rows and component groups.

    Certain tuples — those without an entry in the placeholder mask — are
    returned as plain value tuples.  Tuples with placeholders are grouped by
    the components they touch, so the independence combination remains
    correct for correlated tuples.
    """
    relation_schema = uwsdt.schema.relation(relation_name)
    attributes = relation_schema.attributes

    template = uwsdt.templates[relation_name]
    mask = uwsdt.placeholder_mask(relation_name)
    certain_rows = [row[1:] for row in template if row[0] not in mask]
    uncertain_rows: List[Tuple[Any, Dict[str, Any], List[FieldRef]]] = []
    if mask:
        for row in template:
            tuple_id = row[0]
            marked = mask.get(tuple_id)
            if marked is None:
                continue
            placeholder_fields = [
                FieldRef(relation_name, tuple_id, a) for a in attributes if a in marked
            ]
            uncertain_rows.append((tuple_id, dict(zip(attributes, row[1:])), placeholder_fields))

    # Group uncertain tuples by the set of components they touch.
    component_groups: Dict[frozenset, List[Tuple[Any, Dict[str, Any], List[FieldRef]]]] = {}
    for entry in uncertain_rows:
        cids = frozenset(uwsdt.component_of(field) for field in entry[2])
        component_groups.setdefault(cids, []).append(entry)

    # Merge groups that share a component id.
    merged_groups: List[Tuple[set, List[Tuple[Any, Dict[str, Any], List[FieldRef]]]]] = []
    for cids, entries in component_groups.items():
        placed = False
        for group in merged_groups:
            if group[0] & cids:
                group[0].update(cids)
                group[1].extend(entries)
                placed = True
                break
        if not placed:
            merged_groups.append((set(cids), list(entries)))

    return attributes, certain_rows, merged_groups


def uwsdt_possible_with_confidence(uwsdt: UWSDT, relation_name: str) -> List[RankedTuple]:
    """``possible_p(R)`` natively on a UWSDT.

    Fully certain template tuples contribute confidence 1 directly; tuples
    with placeholders are resolved through their (composed) components.
    """
    attributes, certain_rows, groups = _uwsdt_tuple_groups(uwsdt, relation_name)

    # Every certain row is present in every world.  The dict keeps first-seen
    # order, which is the answer order.
    confidences: Dict[Tuple[Any, ...], float] = dict.fromkeys(certain_rows, 1.0)

    def note(row: Tuple[Any, ...], component_confidence: float) -> None:
        previous = confidences.get(row, 0.0)
        confidences[row] = 1.0 - (1.0 - previous) * (1.0 - component_confidence)

    for cids, entries in groups:
        composed = compose_all([uwsdt.components[cid] for cid in sorted(cids)])
        per_row_matches: Dict[Tuple[Any, ...], float] = {}
        for row_index, row in enumerate(composed.rows):
            produced = set()
            for tuple_id, value_map, placeholder_fields in entries:
                values: List[Any] = []
                absent = False
                for attribute in attributes:
                    field = FieldRef(relation_name, tuple_id, attribute)
                    if composed.has_field(field):
                        value = row[composed.position(field)]
                    else:
                        value = value_map[attribute]
                    if value is BOTTOM:
                        absent = True
                        break
                    values.append(value)
                if not absent:
                    produced.add(tuple(values))
            for produced_row in produced:
                per_row_matches[produced_row] = per_row_matches.get(produced_row, 0.0) + (
                    composed.probability(row_index)
                )
        for produced_row, component_confidence in per_row_matches.items():
            note(produced_row, min(component_confidence, 1.0))

    return list(confidences.items())


def uwsdt_possible(uwsdt: UWSDT, relation_name: str) -> List[Tuple[Any, ...]]:
    """``possible(R)`` natively on a UWSDT."""
    return [row for row, _ in uwsdt_possible_with_confidence(uwsdt, relation_name)]


def uwsdt_confidence(uwsdt: UWSDT, relation_name: str, values: Sequence[Any]) -> float:
    """``conf(t)`` natively on a UWSDT."""
    target = tuple(values)
    for row, conf in uwsdt_possible_with_confidence(uwsdt, relation_name):
        if row == target:
            return conf
    return 0.0
