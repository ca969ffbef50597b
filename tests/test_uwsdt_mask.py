"""Placeholder masks on UWSDT templates.

The mask of a relation is the ``F`` relation indexed by tuple id: which
attributes of which template tuple are ``?`` fields.  It is maintained
only where ``F`` is, so every mutation path — the algebra operators, the
chase, ``copy()``, service-style writes, ``project_away`` drops and direct
``replace_component`` calls — must leave ``validate()`` (which compares the
mask with the template's ``?`` cells) and a rebuilt ``F`` in agreement.
The certain-path tests pin the performance contract: tuples without a mask
entry never reach the component machinery, and they reach the result
template in bulk, in source order, as whole template rows.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UWSDT
from repro.core.algebra import uwsdt_ops
from repro.core.chase import chase_uwsdt
from repro.core.component import Component
from repro.core.fields import FieldRef
from repro.core.uwsdt import TID
from repro.relational import InconsistentWorldSetError, Relation
from repro.relational.errors import RepresentationError
from repro.relational.predicates import AttrConst
from repro.relational.schema import RelationSchema
from repro.relational.values import PLACEHOLDER

from _fixtures import budgeted_orset_relations
from test_planner_oracle import ORACLE_SCHEMAS, chase_dependencies

SCHEMAS = ORACLE_SCHEMAS[:2]  # R(A0, A1, A2), S(B0, B1, B2)


def rebuilt_field_map(uwsdt: UWSDT):
    return {field: cid for cid, component in uwsdt.components.items() for field in component.fields}


def assert_consistent(uwsdt: UWSDT) -> None:
    uwsdt.validate()
    assert uwsdt.field_to_cid == rebuilt_field_map(uwsdt)


def snapshot(uwsdt: UWSDT):
    """Everything a failed mutation must leave untouched."""
    return (
        dict(uwsdt.field_to_cid),
        {name: uwsdt.relation_placeholder_count(name) for name in uwsdt.schema.relation_names},
        {
            name: {tid: set(marked) for tid, marked in uwsdt.placeholder_mask(name).items()}
            for name in uwsdt.schema.relation_names
        },
        dict(uwsdt.components),
    )


# --------------------------------------------------------------------------- #
# Random operator sequences
# --------------------------------------------------------------------------- #

STEPS = (
    "select",
    "project",
    "rename",
    "union",
    "product",
    "join-hash",
    "join-index",
    "difference",
    "chase",
    "copy",
    "write",
    "drop",
)


def relations_with(uwsdt: UWSDT, attributes):
    return [rs.name for rs in uwsdt.schema if rs.attributes == tuple(attributes)]


def apply_step(uwsdt: UWSDT, step: str, data, names) -> UWSDT:
    """Apply one random step; returns the UWSDT to continue with."""
    target = next(names)
    r_like = relations_with(uwsdt, SCHEMAS[0][1])
    s_like = relations_with(uwsdt, SCHEMAS[1][1])
    source = data.draw(st.sampled_from(r_like))
    attributes = SCHEMAS[0][1]
    if step == "select":
        attribute = data.draw(st.sampled_from(attributes))
        op = data.draw(st.sampled_from(["=", "!=", "<", ">="]))
        constant = data.draw(st.integers(min_value=0, max_value=4))
        uwsdt_ops.select(uwsdt, source, target, AttrConst(attribute, op, constant))
    elif step == "project":
        kept = data.draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=2, unique=True))
        uwsdt_ops.project(uwsdt, source, target, kept)
    elif step == "rename":
        # Rename away and back, so the result can feed R-shaped steps again.
        old = data.draw(st.sampled_from(attributes))
        uwsdt_ops.rename(uwsdt, source, target + "_", old, "X")
        uwsdt_ops.rename(uwsdt, target + "_", target, "X", old)
    elif step == "union":
        # ``R ∪ R`` would give both sides the tuple ids ``(R, t)``: copy first.
        others = [name for name in r_like if name != source]
        if not others:
            uwsdt_ops.rename(uwsdt, source, target + "_copy", attributes[0], attributes[0])
            others = [target + "_copy"]
        uwsdt_ops.union(uwsdt, source, data.draw(st.sampled_from(others)), target)
    elif step == "difference":
        uwsdt_ops.difference(uwsdt, source, data.draw(st.sampled_from(r_like)), target)
    elif step == "product":
        uwsdt_ops.product(uwsdt, source, data.draw(st.sampled_from(s_like)), target)
    elif step in ("join-hash", "join-index"):
        left_attr = data.draw(st.sampled_from(attributes))
        right_attr = data.draw(st.sampled_from(SCHEMAS[1][1]))
        uwsdt_ops.equi_join(
            uwsdt,
            source,
            data.draw(st.sampled_from(s_like)),
            left_attr,
            right_attr,
            target,
            use_template_index=step == "join-index",
        )
    elif step == "chase":
        try:
            chase_uwsdt(uwsdt, [data.draw(chase_dependencies())])
        except InconsistentWorldSetError:
            pass
    elif step == "copy":
        original = uwsdt
        uwsdt = original.copy()
        # Mutating the copy must not leak into the original's mask.
        before = snapshot(original)
        write(uwsdt, "R", target)
        assert snapshot(original)[:3] == before[:3]
        assert_consistent(original)
    elif step == "write":
        write(uwsdt, "R", target)
    elif step == "drop":
        masked = [(name, tid) for name in r_like for tid in uwsdt.placeholder_mask(name)]
        if masked:
            name, tid = data.draw(st.sampled_from(masked))
            uwsdt_ops._drop_result_tuple(uwsdt, name, tid, attributes)
    return uwsdt


def write(uwsdt: UWSDT, relation: str, tuple_id) -> None:
    """A service-style write: one template tuple plus a uniform placeholder."""
    uwsdt.add_template_tuple(relation, tuple_id, (1, PLACEHOLDER, 2))
    uwsdt.new_component(Component.uniform(FieldRef(relation, tuple_id, "A1"), (0, 3)))


@settings(max_examples=80, deadline=None)
@given(
    relations=budgeted_orset_relations(SCHEMAS, max_rows=3, max_alternatives=2, uncertain_budget=4),
    steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=6),
    data=st.data(),
)
def test_mask_and_field_map_survive_random_operator_sequences(relations, steps, data):
    uwsdt = UWSDT.from_orset_relations(relations)
    assert_consistent(uwsdt)
    names = (f"P{i}" for i in itertools.count())
    for step in steps:
        uwsdt = apply_step(uwsdt, step, data, names)
        assert_consistent(uwsdt)


# --------------------------------------------------------------------------- #
# Direct replace_component cases
# --------------------------------------------------------------------------- #


def two_component_instance():
    uwsdt = UWSDT()
    uwsdt.add_relation(RelationSchema("R", ("A", "B")))
    uwsdt.add_template_tuple("R", 1, (PLACEHOLDER, PLACEHOLDER))
    uwsdt.add_template_tuple("R", 2, (PLACEHOLDER, 5))
    first = uwsdt.new_component(
        Component((FieldRef("R", 1, "A"), FieldRef("R", 1, "B")), [(1, 2), (3, 4)], [0.5, 0.5])
    )
    second = uwsdt.new_component(Component.uniform(FieldRef("R", 2, "A"), (7, 8)))
    return uwsdt, first, second


def test_replace_component_extension_maps_only_the_new_field():
    uwsdt, first, _ = two_component_instance()
    uwsdt.add_relation(RelationSchema("P", ("A", "B")))
    uwsdt.add_template_tuple("P", 1, (PLACEHOLDER, 9))
    extended = uwsdt.components[first].ext(FieldRef("R", 1, "A"), FieldRef("P", 1, "A"))
    uwsdt.replace_component(first, extended)
    assert uwsdt.placeholder_mask("P") == {1: {"A"}}
    assert uwsdt.relation_placeholder_count("P") == 1
    assert uwsdt.relation_placeholder_count("R") == 3
    assert_consistent(uwsdt)


def test_replace_component_shrink_unmaps_the_dropped_field():
    uwsdt, first, _ = two_component_instance()
    uwsdt.templates["R"].remove((1, PLACEHOLDER, PLACEHOLDER))
    uwsdt.add_template_tuple("R", 1, (PLACEHOLDER, 0))
    reduced = uwsdt.components[first].project_away([FieldRef("R", 1, "B")])
    uwsdt.replace_component(first, reduced)
    assert uwsdt.placeholder_mask("R") == {1: {"A"}, 2: {"A"}}
    assert uwsdt.relation_placeholder_count("R") == 2
    assert_consistent(uwsdt)


def test_replace_component_with_reordered_fields():
    uwsdt, first, second = two_component_instance()
    other = uwsdt.components[second]
    uwsdt.remove_component(second)
    # ``compose`` with the other component first: the old fields are no
    # longer a prefix, so the set-difference path re-indexes.
    uwsdt.replace_component(first, other.compose(uwsdt.components[first]))
    assert uwsdt.placeholder_mask("R") == {1: {"A", "B"}, 2: {"A"}}
    assert uwsdt.relation_placeholder_count("R") == 3
    assert_consistent(uwsdt)


def test_replace_component_rejects_a_field_owned_elsewhere_without_side_effects():
    uwsdt, first, second = two_component_instance()
    before = snapshot(uwsdt)
    merged = uwsdt.components[first].compose(uwsdt.components[second])
    with pytest.raises(RepresentationError, match="already assigned to component"):
        uwsdt.replace_component(first, merged)
    assert snapshot(uwsdt) == before
    assert_consistent(uwsdt)


def test_new_component_rejects_a_field_owned_elsewhere_without_side_effects():
    uwsdt, _, _ = two_component_instance()
    before = snapshot(uwsdt)
    clash = Component(
        (FieldRef("R", 2, "B"), FieldRef("R", 1, "A")), [(1, 2)], [1.0]
    )
    with pytest.raises(RepresentationError, match="already assigned to component"):
        uwsdt.new_component(clash)
    assert snapshot(uwsdt) == before


# --------------------------------------------------------------------------- #
# The certain path: component work scales with placeholders, not rows
# --------------------------------------------------------------------------- #

PLACEHOLDER_TUPLES = 3


def census_like(rows: int) -> UWSDT:
    """``rows`` certain tuples of R(A, B, C) plus a few placeholder tuples, and S(D, E)."""
    uwsdt = UWSDT()
    uwsdt.add_relation(RelationSchema("R", ("A", "B", "C")))
    uwsdt.add_relation(RelationSchema("S", ("D", "E")))
    for tid in range(rows):
        uwsdt.add_template_tuple("R", tid, (tid % 5, tid % 7, tid))
    for index in range(PLACEHOLDER_TUPLES):
        tid = rows + index
        uwsdt.add_template_tuple("R", tid, (PLACEHOLDER, PLACEHOLDER, tid))
        uwsdt.new_component(Component.uniform(FieldRef("R", tid, "A"), (1, 2)))
        uwsdt.new_component(Component.uniform(FieldRef("R", tid, "B"), (3, 4)))
    for value in range(5):
        uwsdt.add_template_tuple("S", value, (value, value * 10))
    return uwsdt


def union_with_copy(uwsdt: UWSDT) -> None:
    # ``R ∪ R`` would give both sides the tuple ids ``(R, t)``: copy first.
    uwsdt_ops.rename(uwsdt, "R", "R2", "A", "A")
    uwsdt_ops.union(uwsdt, "R", "R2", "out")


QUERIES = {
    "select-range": lambda u: uwsdt_ops.select(u, "R", "out", AttrConst("A", "<", 3)),
    "select-eq": lambda u: uwsdt_ops.select(u, "R", "out", AttrConst("A", "=", 1)),
    "select-other": lambda u: uwsdt_ops.select(u, "R", "out", AttrConst("C", ">=", 0)),
    "project": lambda u: uwsdt_ops.project(u, "R", "out", ["B", "C"]),
    "project-presence": lambda u: uwsdt_ops.project(u, "R", "out", ["C"]),
    "rename": lambda u: uwsdt_ops.rename(u, "R", "out", "A", "Z"),
    "union": union_with_copy,
    "product": lambda u: uwsdt_ops.product(u, "R", "S", "out"),
    "join-hash": lambda u: uwsdt_ops.equi_join(u, "R", "S", "A", "D", "out"),
    "join-index": lambda u: uwsdt_ops.equi_join(
        u, "R", "S", "A", "D", "out", use_template_index=True
    ),
}


def component_calls(rows: int, query):
    """Component-machinery calls, result-template version bumps and masked result tuples."""
    uwsdt = census_like(rows)
    calls = {"n": 0}
    for name in ("replace_component", "component_of"):
        method = getattr(uwsdt, name)

        def counted(*args, _method=method):
            calls["n"] += 1
            return _method(*args)

        setattr(uwsdt, name, counted)
    query(uwsdt)
    assert_consistent(uwsdt)
    return calls["n"], uwsdt.templates["out"].version, len(uwsdt.placeholder_mask("out"))


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_certain_tuples_never_reach_the_component_machinery(query):
    small_calls, small_bumps, _ = component_calls(50, QUERIES[query])
    large_calls, large_bumps, masked = component_calls(2000, QUERIES[query])
    assert small_calls == large_calls
    # Each placeholder tuple may ext/merge/drop its two fields against at
    # most the five S tuples; nothing scales with the 2000 certain rows.
    assert large_calls <= 40 * PLACEHOLDER_TUPLES
    # Certain rows reach the result template in bulk: one append per run of
    # certain rows, ended by a masked tuple's flush or by the operator's end.
    assert small_bumps == large_bumps
    assert large_bumps <= masked + 1


# --------------------------------------------------------------------------- #
# Certain-path batches keep the row-at-a-time result template
# --------------------------------------------------------------------------- #

INTERLEAVED_ROWS = 16
MASKED_AT = (2, 5, 8, 13)
#: Queries whose result tuple ids are ``(R tid, S tid)`` pairs.
PAIR_QUERIES = ("product", "join-hash", "join-index")


def interleaved() -> UWSDT:
    """R(A, B, C) with placeholder tuples between certain ones, and S(D, E)."""
    uwsdt = UWSDT()
    uwsdt.add_relation(RelationSchema("R", ("A", "B", "C")))
    uwsdt.add_relation(RelationSchema("S", ("D", "E")))
    for tid in range(INTERLEAVED_ROWS):
        if tid in MASKED_AT:
            uwsdt.add_template_tuple("R", tid, (PLACEHOLDER, PLACEHOLDER, tid))
            uwsdt.new_component(Component.uniform(FieldRef("R", tid, "A"), (1, 2)))
            uwsdt.new_component(Component.uniform(FieldRef("R", tid, "B"), (3, 4)))
        else:
            uwsdt.add_template_tuple("R", tid, (tid % 5, tid % 7, tid))
    for value in range(5):
        uwsdt.add_template_tuple("S", value, (value, value * 10))
    return uwsdt


def source_order(query: str, uwsdt: UWSDT):
    """The order a row-at-a-time evaluation writes result tuple ids in."""
    position = {
        name: {row[0]: index for index, row in enumerate(uwsdt.templates[name])}
        for name in ("R", "S")
    }
    if query == "select-eq":
        # Candidates come from the template index: rows with the constant
        # first, then the ``?`` rows, each group in template order.
        placeholder_tids = set(uwsdt.placeholder_mask("R"))
        return lambda tid: (tid in placeholder_tids, position["R"][tid])
    if query == "union":
        return lambda tid: (tid[0] != "R", position["R"][tid[1]])
    if query in PAIR_QUERIES:
        return lambda tid: (position["R"][tid[0]], position["S"][tid[1]])
    return lambda tid: position["R"][tid]


def r_tid(query: str, tid):
    """The tuple id of the R tuple a result tuple comes from."""
    if query == "union":
        return tid[1]
    return tid[0] if query in PAIR_QUERIES else tid


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_result_template_follows_the_source_interleaving(query):
    uwsdt = interleaved()
    QUERIES[query](uwsdt)
    assert_consistent(uwsdt)
    result_tids = [row[0] for row in uwsdt.templates["out"]]
    assert result_tids == sorted(result_tids, key=source_order(query, uwsdt))
    if query == "select-eq":
        return  # the index puts every ``?`` row after the constant's rows
    # Masked and certain source tuples really alternate in the result: some
    # certain tuple's row comes after a masked tuple's row.
    kinds = [r_tid(query, tid) in MASKED_AT for tid in result_tids]
    assert True in kinds and False in kinds[kinds.index(True):]


@pytest.mark.parametrize("query", ["select-range", "select-eq", "select-other", "rename"])
def test_select_and_rename_share_the_source_row_objects(query):
    uwsdt = interleaved()
    source = {row[0]: row for row in uwsdt.templates["R"]}
    QUERIES[query](uwsdt)
    result = uwsdt.templates["out"].rows
    assert result
    assert all(row is source[row[0]] for row in result)


def test_validate_requires_the_tid_column_first():
    uwsdt = census_like(3)
    uwsdt.templates["S"] = Relation(RelationSchema("S", ("D", TID, "E")), [(0, 0, 0)])
    with pytest.raises(RepresentationError, match="expected '__tid__' first"):
        uwsdt.validate()


def test_from_uniform_relations_moves_an_external_tid_column_first():
    uwsdt = census_like(3)
    external = {
        name: Relation(
            RelationSchema(name, template.schema.attributes[1:] + (TID,)),
            [row[1:] + (row[0],) for row in template],
        )
        for name, template in uwsdt.templates.items()
    }
    rebuilt = UWSDT.from_uniform_relations(uwsdt.schema, external, uwsdt.to_uniform_relations())
    assert_consistent(rebuilt)
    for name, template in uwsdt.templates.items():
        assert rebuilt.templates[name].rows == template.rows
