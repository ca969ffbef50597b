"""Relational algebra natively on UWSDTs — the engine of Section 5.

Each operator extends the input UWSDT with a result relation, touching the
template relation with ordinary relational processing and the component
store only for tuples that actually carry placeholders.  This is what makes
query evaluation on UWSDTs track the one-world evaluation time so closely
in Figure 30: for placeholder densities of 0.005 %–0.1 %, the overwhelming
majority of template tuples never reach the component machinery.

Which tuples carry placeholders is read from the input relations'
placeholder masks (:meth:`UWSDT.placeholder_mask`, the ``F`` relation
indexed by tuple id), never from the template values.  A tuple without a
mask entry takes the *certain path*: the operator evaluates its condition
on the template row and collects the result as a whole template tuple
``(tid, *values)`` — the source row itself for selection and renaming —
without building a field reference, looking up a component or calling
``ext``.  Collected rows go to the result template in bulk
(:meth:`UWSDT.extend_template`).  Masked tuples go through the component
machinery row at a time; before a masked tuple's component work, its row
joins the pending batch and the batch is flushed, so the result template,
the component ids and the component field order are exactly those of a
row-at-a-time evaluation.

The selection algorithm follows Figure 16: the result template keeps the
tuples that certainly satisfy the condition or have a placeholder on a
referenced attribute; component values violating the condition are removed
(here: marked ``⊥``), and tuples left without any satisfying local world are
dropped from the result template again (lines 4–6 of the figure).
"""

from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...relational.errors import RepresentationError, SchemaError
from ...relational.predicates import AttrConst, Predicate
from ...relational.relation import Row
from ...relational.schema import RelationSchema
from ...relational.values import BOTTOM, PLACEHOLDER
from ..component import Component
from ..fields import FieldRef
from ..uwsdt import UWSDT


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #


def _in_schema_order(schema: RelationSchema, marked: Optional[AbstractSet[str]]) -> List[str]:
    """A tuple's masked (placeholder) attributes in schema order; ``[]`` if certain."""
    if not marked:
        return []
    return sorted(marked, key=schema.position)


def _flush(uwsdt: UWSDT, target: str, batch: List[Row]) -> None:
    """Append the pending template rows of ``target`` in one call and empty the batch."""
    if batch:
        uwsdt.extend_template(target, batch)
        batch.clear()


def _copy_placeholder_fields(
    uwsdt: UWSDT,
    source: str,
    source_tid: Any,
    target: str,
    target_tid: Any,
    attributes: Iterable[str],
) -> None:
    """Extend the owning components with copies ``target.tid.A`` of ``source.tid.A``."""
    for attribute in attributes:
        source_field = FieldRef(source, source_tid, attribute)
        target_field = FieldRef(target, target_tid, attribute)
        cid = uwsdt.component_of(source_field)
        if cid is None:
            raise RepresentationError(
                f"expected a component for placeholder field {source_field.label()}"
            )
        uwsdt.replace_component(cid, uwsdt.components[cid].ext(source_field, target_field))


def _mark_tuple_deleted(
    component: Component, relation: str, tuple_id: Any, row_indices: Sequence[int]
) -> Component:
    """Set every field of ``(relation, tuple_id)`` to ``⊥`` in the given local worlds."""
    positions = [
        index
        for index, field in enumerate(component.fields)
        if field.relation == relation and field.tuple_id == tuple_id
    ]
    target_rows = set(row_indices)
    rows = []
    for index, row in enumerate(component.rows):
        if index in target_rows:
            values = list(row)
            for position in positions:
                values[position] = BOTTOM
            rows.append(tuple(values))
        else:
            rows.append(row)
    return Component(component.fields, rows, component.probabilities)


def _tuple_deleted_everywhere(component: Component, relation: str, tuple_id: Any) -> bool:
    """True iff every local world marks the tuple as deleted (some field ``⊥``)."""
    positions = [
        index
        for index, field in enumerate(component.fields)
        if field.relation == relation and field.tuple_id == tuple_id
    ]
    if not positions:
        return False
    return all(any(row[p] is BOTTOM for p in positions) for row in component.rows)


def _drop_result_tuple(uwsdt: UWSDT, relation: str, tuple_id: Any, attributes: Sequence[str]) -> None:
    """Remove a result tuple from the template and its fields from the components."""
    template = uwsdt.templates[relation]
    row_to_remove = None
    for row in template:
        if row[0] == tuple_id:
            row_to_remove = row
            break
    if row_to_remove is not None:
        template.remove(row_to_remove)
    for attribute in attributes:
        field = FieldRef(relation, tuple_id, attribute)
        cid = uwsdt.component_of(field)
        if cid is None:
            continue
        reduced = uwsdt.components[cid].project_away([field])
        if reduced is None:
            uwsdt.remove_component(cid)
        else:
            # Going through replace_component keeps the field map and the
            # per-relation placeholder counts in sync.
            uwsdt.replace_component(cid, reduced)


def _merge_target_components(uwsdt: UWSDT, fields: Sequence[FieldRef]) -> int:
    """Ensure all placeholder ``fields`` live in one component; return its cid."""
    cids = []
    for field in fields:
        cid = uwsdt.component_of(field)
        if cid is None:
            raise RepresentationError(f"field {field.label()} has no component")
        cids.append(cid)
    return uwsdt.merge_components(cids)


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #


def _equality_candidates(uwsdt: UWSDT, source: str, predicate: Predicate) -> Optional[List[Row]]:
    """Candidate template rows for an equality selection, or None.

    A pushed-down selection ``σ_{A=c}`` only ever keeps template rows whose
    ``A`` field equals ``c`` or is the ``?`` placeholder, so instead of
    scanning the template it probes the (cached) hash index of Section 5's
    "employing indices" tuning with exactly those two keys.
    """
    if not isinstance(predicate, AttrConst) or predicate.op not in ("=", "=="):
        return None
    try:
        hash(predicate.constant)
    except TypeError:
        return None
    index = uwsdt.template_index(source, predicate.attribute)
    return index.lookup(predicate.constant) + index.lookup(PLACEHOLDER)


def select(uwsdt: UWSDT, source: str, target: str, predicate: Predicate) -> None:
    """Selection ``P := σ_pred(R)`` on a UWSDT (the algorithm of Figure 16, generalized)."""
    source_schema = uwsdt.schema.relation(source)
    for attribute in predicate.attributes():
        source_schema.position(attribute)
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, source_schema.attributes))

    attributes = source_schema.attributes
    referenced = predicate.attributes()
    template = uwsdt.templates[source]
    # Compile the condition once against the template layout ``(tid, *values)``:
    # the certain path of Figure 16 is the hot loop on large templates, and it
    # keeps the source row objects themselves.
    compiled = predicate.compile(template.schema) if referenced else None

    candidates = _equality_candidates(uwsdt, source, predicate)
    rows = template if candidates is None else candidates
    mask = uwsdt.placeholder_mask(source)
    batch: List[Row] = []

    for row in rows:
        tuple_id = row[0]
        marked = mask.get(tuple_id)
        if marked is None:
            # Line 1 of Figure 16: the condition is decided by the template alone.
            if compiled is None or compiled(row):
                batch.append(row)
            continue
        placeholders = _in_schema_order(source_schema, marked)
        uncertain_refs = [a for a in referenced if a in marked]
        if not uncertain_refs:
            if compiled is None or compiled(row):
                batch.append(row)
                _flush(uwsdt, target, batch)
                _copy_placeholder_fields(uwsdt, source, tuple_id, target, tuple_id, placeholders)
            continue
        value_map = dict(zip(attributes, row[1:]))

        # The condition depends on uncertain fields: keep the tuple and filter
        # its local worlds (lines 2-6 of Figure 16).
        batch.append(row)
        _flush(uwsdt, target, batch)
        _copy_placeholder_fields(uwsdt, source, tuple_id, target, tuple_id, placeholders)
        target_fields = [FieldRef(target, tuple_id, a) for a in uncertain_refs]
        cid = _merge_target_components(uwsdt, target_fields)
        component = uwsdt.components[cid]

        certain_refs = [a for a in referenced if a not in marked]
        pseudo_schema = RelationSchema(target, tuple(referenced))
        failing: List[int] = []
        for row_index, row in enumerate(component.rows):
            assignment: Dict[str, Any] = {a: value_map[a] for a in certain_refs}
            deleted = False
            for field in target_fields:
                value = row[component.position(field)]
                if value is BOTTOM:
                    deleted = True
                    break
                assignment[field.attribute] = value
            if deleted:
                continue
            pseudo_row = tuple(assignment[a] for a in referenced)
            if not predicate.evaluate(pseudo_schema, pseudo_row):
                failing.append(row_index)
        if failing:
            component = _mark_tuple_deleted(component, target, tuple_id, failing)
            component = component.propagate_bottom()
            uwsdt.replace_component(cid, component)
        if _tuple_deleted_everywhere(uwsdt.components[cid], target, tuple_id):
            _drop_result_tuple(uwsdt, target, tuple_id, placeholders)
    _flush(uwsdt, target, batch)


# --------------------------------------------------------------------------- #
# Projection
# --------------------------------------------------------------------------- #


def project(uwsdt: UWSDT, source: str, target: str, attributes: Sequence[str]) -> None:
    """Projection ``P := π_U(R)`` on a UWSDT.

    Presence information carried by projected-away placeholder fields is
    preserved: it is propagated into a kept placeholder field, or — when all
    kept fields are certain — a kept field is turned into a placeholder whose
    component encodes "value if present, ``⊥`` otherwise" (the "exists
    column" device discussed at the end of Section 4).
    """
    source_schema = uwsdt.schema.relation(source)
    for attribute in attributes:
        source_schema.position(attribute)
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, tuple(attributes)))

    all_attributes = source_schema.attributes
    dropped = [a for a in all_attributes if a not in attributes]
    # One C call builds a result template row ``(tid, *kept values)``.
    kept_row = itemgetter(0, *[source_schema.position(a) + 1 for a in attributes])
    mask = uwsdt.placeholder_mask(source)
    batch: List[Row] = []

    for row in uwsdt.templates[source]:
        tuple_id = row[0]
        marked = mask.get(tuple_id)
        if marked is None:
            batch.append(kept_row(row))
            continue
        value_map = dict(zip(all_attributes, row[1:]))
        kept_placeholders = [a for a in attributes if a in marked]
        dropped_placeholders = [a for a in dropped if a in marked]

        # Which dropped placeholder fields may mark the tuple as absent?
        presence_fields: List[FieldRef] = []
        for attribute in dropped_placeholders:
            field = FieldRef(source, tuple_id, attribute)
            cid = uwsdt.component_of(field)
            component = uwsdt.components[cid]
            if any(value is BOTTOM for value in component.column(field)):
                presence_fields.append(field)

        if not presence_fields:
            batch.append(kept_row(row))
            if kept_placeholders:
                _flush(uwsdt, target, batch)
                _copy_placeholder_fields(
                    uwsdt, source, tuple_id, target, tuple_id, kept_placeholders
                )
            # Otherwise only placeholders without presence information were
            # dropped: the result tuple is certain and needs no component work.
            continue

        if kept_placeholders:
            batch.append(kept_row(row))
            _flush(uwsdt, target, batch)
            _copy_placeholder_fields(
                uwsdt, source, tuple_id, target, tuple_id, kept_placeholders
            )
            target_fields = [FieldRef(target, tuple_id, a) for a in kept_placeholders]
            cids = [uwsdt.component_of(f) for f in target_fields] + [
                uwsdt.component_of(f) for f in presence_fields
            ]
            cid = uwsdt.merge_components(cids)
            component = uwsdt.components[cid]
            presence_positions = [component.position(f) for f in presence_fields]
            absent_rows = [
                index
                for index, row in enumerate(component.rows)
                if any(row[p] is BOTTOM for p in presence_positions)
            ]
            if absent_rows:
                component = _mark_tuple_deleted(component, target, tuple_id, absent_rows)
                component = component.propagate_bottom()
                uwsdt.replace_component(cid, component)
            continue

        # All kept attributes are certain: turn the first kept attribute into a
        # placeholder that encodes tuple presence.
        presence_attr = attributes[0]
        batch.append(
            (tuple_id,)
            + tuple(PLACEHOLDER if a == presence_attr else value_map[a] for a in attributes)
        )
        _flush(uwsdt, target, batch)
        cid = uwsdt.merge_components([uwsdt.component_of(f) for f in presence_fields])
        component = uwsdt.components[cid]
        presence_positions = [component.position(f) for f in presence_fields]
        new_field = FieldRef(target, tuple_id, presence_attr)
        fields = component.fields + (new_field,)
        rows = []
        for local_world in component.rows:
            absent = any(local_world[p] is BOTTOM for p in presence_positions)
            rows.append(local_world + (BOTTOM if absent else value_map[presence_attr],))
        uwsdt.replace_component(cid, Component(fields, rows, component.probabilities))
    _flush(uwsdt, target, batch)


# --------------------------------------------------------------------------- #
# Renaming, union, product
# --------------------------------------------------------------------------- #


def rename(uwsdt: UWSDT, source: str, target: str, old: str, new: str) -> None:
    """Renaming ``P := δ_{A→A'}(R)`` on a UWSDT."""
    source_schema = uwsdt.schema.relation(source)
    renamed_schema = source_schema.rename_attribute(old, new, target)
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(renamed_schema)
    # Renaming changes no value and no tuple id: the result template shares
    # the source's rows, appended in one call.  Only masked tuples reach ``ext``.
    rows = uwsdt.templates[source].rows
    uwsdt.extend_template(target, rows)
    mask = uwsdt.placeholder_mask(source)
    if not mask:
        return
    for row in rows:
        tuple_id = row[0]
        marked = mask.get(tuple_id)
        if marked is None:
            continue
        for attribute in _in_schema_order(source_schema, marked):
            source_field = FieldRef(source, tuple_id, attribute)
            new_attribute = new if attribute == old else attribute
            target_field = FieldRef(target, tuple_id, new_attribute)
            cid = uwsdt.component_of(source_field)
            uwsdt.replace_component(cid, uwsdt.components[cid].ext(source_field, target_field))


def union(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Union ``T := R ∪ S`` on a UWSDT."""
    left_schema = uwsdt.schema.relation(left)
    right_schema = uwsdt.schema.relation(right)
    if left_schema.attributes != right_schema.attributes:
        raise SchemaError("union requires identical attribute lists")
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, left_schema.attributes))
    # Both sides' rows, retagged ``(side, tid)``, go to the result in one call;
    # only masked tuples reach ``ext`` afterwards.
    uwsdt.extend_template(
        target,
        [((side, row[0]),) + row[1:] for side in (left, right) for row in uwsdt.templates[side]],
    )
    for side in (left, right):
        side_schema = uwsdt.schema.relation(side)
        mask = uwsdt.placeholder_mask(side)
        if not mask:
            continue
        for row in uwsdt.templates[side]:
            tuple_id = row[0]
            marked = mask.get(tuple_id)
            if marked is None:
                continue
            target_tid = (side, tuple_id)
            for attribute in _in_schema_order(side_schema, marked):
                source_field = FieldRef(side, tuple_id, attribute)
                target_field = FieldRef(target, target_tid, attribute)
                cid = uwsdt.component_of(source_field)
                uwsdt.replace_component(
                    cid, uwsdt.components[cid].ext(source_field, target_field)
                )


def product(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Product ``T := R × S`` on a UWSDT (attribute sets must be disjoint)."""
    left_schema = uwsdt.schema.relation(left)
    right_schema = uwsdt.schema.relation(right)
    target_schema = left_schema.concat(right_schema, target)
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, target_schema.attributes))
    right_mask = uwsdt.placeholder_mask(right)
    right_rows = [
        (row[0], row[1:], _in_schema_order(right_schema, right_mask.get(row[0])))
        for row in uwsdt.templates[right]
    ]
    left_mask = uwsdt.placeholder_mask(left)
    batch: List[Row] = []
    for left_row in uwsdt.templates[left]:
        left_tid = left_row[0]
        left_values = left_row[1:]
        left_placeholders = _in_schema_order(left_schema, left_mask.get(left_tid))
        for right_tid, right_values, right_placeholders in right_rows:
            target_tid = (left_tid, right_tid)
            batch.append((target_tid,) + left_values + right_values)
            if not left_placeholders and not right_placeholders:
                continue
            _flush(uwsdt, target, batch)
            for attribute in left_placeholders:
                source_field = FieldRef(left, left_tid, attribute)
                cid = uwsdt.component_of(source_field)
                uwsdt.replace_component(
                    cid,
                    uwsdt.components[cid].ext(
                        source_field, FieldRef(target, target_tid, attribute)
                    ),
                )
            for attribute in right_placeholders:
                source_field = FieldRef(right, right_tid, attribute)
                cid = uwsdt.component_of(source_field)
                uwsdt.replace_component(
                    cid,
                    uwsdt.components[cid].ext(
                        source_field, FieldRef(target, target_tid, attribute)
                    ),
                )
    _flush(uwsdt, target, batch)


# --------------------------------------------------------------------------- #
# Equi-join (the operator actually exercised by query Q5)
# --------------------------------------------------------------------------- #


def equi_join(
    uwsdt: UWSDT,
    left: str,
    right: str,
    left_attr: str,
    right_attr: str,
    target: str,
    use_template_index: bool = False,
) -> None:
    """Equi-join ``T := R ⋈_{A=B} S`` on a UWSDT.

    Pairs whose join attributes are both certain are matched with a hash
    join on the templates.  Pairs involving an uncertain join attribute are
    matched against the candidate values stored in the components, and the
    resulting tuple's presence is conditioned on the join values agreeing —
    the composition the paper describes for selections with condition
    ``A θ B``.

    With ``use_template_index=True`` (the executor's index nested-loop
    join), the right side must be a stored relation: instead of scanning
    its template to build an ephemeral hash table, each certain left value
    probes the engine's cached ``template_index`` — the "employing indices"
    tuning of Section 5.  Placeholder right rows are found under the ``?``
    key of the same index.
    """
    left_schema = uwsdt.schema.relation(left)
    right_schema = uwsdt.schema.relation(right)
    target_schema = left_schema.concat(right_schema, target)
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, target_schema.attributes))

    left_mask = uwsdt.placeholder_mask(left)
    right_mask = uwsdt.placeholder_mask(right)
    right_position = right_schema.position(right_attr)
    left_position = left_schema.position(left_attr)

    def right_candidates(right_tid: Any) -> Set[Any]:
        field = FieldRef(right, right_tid, right_attr)
        component = uwsdt.components[uwsdt.component_of(field)]
        return {v for v in component.column(field) if v is not BOTTOM}

    # Right rows with a certain join value, as ``(tid, values, masked)``.
    template_index = None
    certain_index: Dict[Any, List[Tuple[Any, Row, bool]]] = {}
    uncertain_right: List[Tuple[Any, Row, Set[Any]]] = []
    if use_template_index:
        template_index = uwsdt.template_index(right, right_attr)
        for row in template_index.lookup(PLACEHOLDER):
            uncertain_right.append((row[0], row[1:], right_candidates(row[0])))
    else:
        for row in uwsdt.templates[right]:
            right_tid = row[0]
            marked = right_mask.get(right_tid)
            if marked is not None and right_attr in marked:
                uncertain_right.append((right_tid, row[1:], right_candidates(right_tid)))
            else:
                certain_index.setdefault(row[right_position + 1], []).append(
                    (right_tid, row[1:], marked is not None)
                )

    def probe_certain(value: Any) -> List[Tuple[Any, Row, bool]]:
        if template_index is not None:
            try:
                hash(value)
            except TypeError:
                return []
            return [
                (row[0], row[1:], row[0] in right_mask) for row in template_index.lookup(value)
            ]
        return certain_index.get(value, [])

    batch: List[Row] = []

    def emit(
        left_tid: Any,
        left_values: Tuple[Any, ...],
        left_placeholders: List[str],
        right_tid: Any,
        right_values: Tuple[Any, ...],
        must_check: bool,
    ) -> None:
        """Append one pair that involves a masked tuple, then do its component work."""
        target_tid = (left_tid, right_tid)
        batch.append((target_tid,) + left_values + right_values)
        _flush(uwsdt, target, batch)
        right_placeholders = _in_schema_order(right_schema, right_mask.get(right_tid))
        for attribute in left_placeholders:
            source_field = FieldRef(left, left_tid, attribute)
            cid = uwsdt.component_of(source_field)
            uwsdt.replace_component(
                cid,
                uwsdt.components[cid].ext(source_field, FieldRef(target, target_tid, attribute)),
            )
        for attribute in right_placeholders:
            source_field = FieldRef(right, right_tid, attribute)
            cid = uwsdt.component_of(source_field)
            uwsdt.replace_component(
                cid,
                uwsdt.components[cid].ext(source_field, FieldRef(target, target_tid, attribute)),
            )
        if not must_check:
            return
        # Condition the result tuple on the join values agreeing.
        check_fields = []
        if left_attr in left_placeholders:
            check_fields.append(FieldRef(target, target_tid, left_attr))
        if right_attr in right_placeholders:
            check_fields.append(FieldRef(target, target_tid, right_attr))
        cid = _merge_target_components(uwsdt, check_fields)
        component = uwsdt.components[cid]
        failing = []
        for row_index, row in enumerate(component.rows):
            values = {}
            deleted = False
            for field in check_fields:
                value = row[component.position(field)]
                if value is BOTTOM:
                    deleted = True
                    break
                values[field.attribute] = value
            if deleted:
                continue
            left_value = values.get(left_attr, left_values[left_position])
            right_value = values.get(right_attr, right_values[right_position])
            if left_value != right_value:
                failing.append(row_index)
        if failing:
            component = _mark_tuple_deleted(component, target, target_tid, failing)
            component = component.propagate_bottom()
            uwsdt.replace_component(cid, component)
        if _tuple_deleted_everywhere(uwsdt.components[cid], target, target_tid):
            _drop_result_tuple(
                uwsdt, target, target_tid, left_placeholders + right_placeholders
            )

    for left_row in uwsdt.templates[left]:
        left_tid = left_row[0]
        left_values = left_row[1:]
        left_marked = left_mask.get(left_tid)
        left_placeholders = _in_schema_order(left_schema, left_marked)
        if left_attr not in left_placeholders:
            left_join_value = left_values[left_position]
            for right_tid, right_values, right_masked in probe_certain(left_join_value):
                if left_marked is None and not right_masked:
                    # The certain path: neither side is masked.
                    batch.append(((left_tid, right_tid),) + left_values + right_values)
                else:
                    emit(left_tid, left_values, left_placeholders, right_tid, right_values, False)
            for right_tid, right_values, candidates in uncertain_right:
                if left_join_value in candidates:
                    emit(left_tid, left_values, left_placeholders, right_tid, right_values, True)
        else:
            field = FieldRef(left, left_tid, left_attr)
            component = uwsdt.components[uwsdt.component_of(field)]
            left_candidates = {v for v in component.column(field) if v is not BOTTOM}
            matched_right: Set[Any] = set()
            for value in left_candidates:
                for right_tid, right_values, _ in probe_certain(value):
                    if right_tid in matched_right:
                        continue
                    matched_right.add(right_tid)
                    emit(left_tid, left_values, left_placeholders, right_tid, right_values, True)
            for right_tid, right_values, candidates in uncertain_right:
                if left_candidates & candidates:
                    emit(left_tid, left_values, left_placeholders, right_tid, right_values, True)
    _flush(uwsdt, target, batch)


# --------------------------------------------------------------------------- #
# Difference
# --------------------------------------------------------------------------- #


def difference(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Difference ``P := R − S`` on a UWSDT.

    As in the paper, this is by far the most expensive operator: pairs of
    possibly-equal tuples force component composition.  Certain/certain
    pairs are resolved on the templates alone.
    """
    left_schema = uwsdt.schema.relation(left)
    right_schema = uwsdt.schema.relation(right)
    if left_schema.attributes != right_schema.attributes:
        raise SchemaError("difference requires identical attribute lists")
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, left_schema.attributes))
    attributes = left_schema.attributes
    right_mask = uwsdt.placeholder_mask(right)
    right_rows = [
        (right_tid, right_values, _in_schema_order(right_schema, right_mask.get(right_tid)))
        for right_tid, right_values in uwsdt.template_rows(right)
    ]
    left_mask = uwsdt.placeholder_mask(left)

    for left_tid, left_values in uwsdt.template_rows(left):
        left_placeholders = _in_schema_order(left_schema, left_mask.get(left_tid))
        # A certain right tuple that is certainly equal removes the left tuple outright.
        certainly_removed = False
        conditional_matches: List[Tuple[Any, Tuple[Any, ...], List[str]]] = []
        for right_tid, right_values, right_placeholders in right_rows:
            uncertain = set(left_placeholders).union(right_placeholders)
            certain_mismatch = any(
                lv != rv
                for a, lv, rv in zip(attributes, left_values, right_values)
                if a not in uncertain
            )
            if certain_mismatch:
                continue
            right_presence_uncertain = _tuple_presence_uncertain(
                uwsdt, right, right_tid, right_placeholders
            )
            if not left_placeholders and not right_placeholders and not right_presence_uncertain:
                certainly_removed = True
                break
            conditional_matches.append((right_tid, right_values, right_placeholders))
        if certainly_removed:
            continue

        template_values = list(left_values)
        if not left_placeholders and conditional_matches:
            # The left tuple is fully certain but its membership in the result
            # depends on uncertain right tuples: introduce a presence placeholder
            # (the "exists column" device) on the first attribute.
            presence_attr = attributes[0]
            template_values[attributes.index(presence_attr)] = PLACEHOLDER
            uwsdt.add_template_tuple(target, left_tid, template_values)
            presence_field = FieldRef(target, left_tid, presence_attr)
            uwsdt.new_component(
                Component((presence_field,), [(left_values[attributes.index(presence_attr)],)], [1.0])
            )
            left_placeholders = [presence_attr]
        else:
            uwsdt.add_template_tuple(target, left_tid, template_values)
            _copy_placeholder_fields(uwsdt, left, left_tid, target, left_tid, left_placeholders)
        if not conditional_matches:
            continue

        for right_tid, right_values, right_placeholders in conditional_matches:
            target_fields = [FieldRef(target, left_tid, a) for a in left_placeholders]
            right_fields = [FieldRef(right, right_tid, a) for a in right_placeholders]
            involved = target_fields + right_fields
            if not involved:
                # Both tuples fully certain and equal, but the right tuple may be
                # conditionally absent only if it had placeholders — it does not,
                # so the left tuple is removed in all worlds.
                _drop_result_tuple(uwsdt, target, left_tid, left_placeholders)
                break
            cid = _merge_target_components(uwsdt, involved) if involved else None
            component = uwsdt.components[cid]
            failing = []
            for row_index, row in enumerate(component.rows):
                assignment_left = dict(zip(attributes, left_values))
                assignment_right = dict(zip(attributes, right_values))
                deleted = False
                for field in target_fields:
                    value = row[component.position(field)]
                    if value is BOTTOM:
                        deleted = True
                        break
                    assignment_left[field.attribute] = value
                if deleted:
                    continue
                right_present = True
                for field in right_fields:
                    value = row[component.position(field)]
                    if value is BOTTOM:
                        right_present = False
                        break
                    assignment_right[field.attribute] = value
                if not right_present:
                    continue
                if all(assignment_left[a] == assignment_right[a] for a in attributes):
                    failing.append(row_index)
            if failing:
                component = _mark_tuple_deleted(component, target, left_tid, failing)
                component = component.propagate_bottom()
                uwsdt.replace_component(cid, component)
            if target_fields and _tuple_deleted_everywhere(
                uwsdt.components[cid], target, left_tid
            ):
                _drop_result_tuple(uwsdt, target, left_tid, left_placeholders)
                break


def _tuple_presence_uncertain(
    uwsdt: UWSDT, relation: str, tuple_id: Any, placeholders: Sequence[str]
) -> bool:
    """True iff the tuple may be absent in some world (some placeholder can be ``⊥``)."""
    for attribute in placeholders:
        field = FieldRef(relation, tuple_id, attribute)
        cid = uwsdt.component_of(field)
        if cid is None:
            continue
        if any(value is BOTTOM for value in uwsdt.components[cid].column(field)):
            return True
    return False
