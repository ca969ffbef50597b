"""Static schema/type inference: golden error trees and eager set-op checks.

Covers the tentpole's analyzer contract:

* each :data:`~repro.analysis.schema.ERROR_CODES` class raises an
  :class:`~repro.analysis.schema.AnalysisError` (a ``SchemaError``) whose
  message embeds the rendered query tree with the offending node marked —
  the golden tests below pin the exact rendering for four error classes;
* incompatible ∪ / − / ∩ are rejected *at builder time* when both operand
  schemas are structurally resolvable, with both schemas in the message;
* valid queries infer the expected attribute lists and sampled types;
* unknown base relations disable checks instead of failing them.
"""

import pytest

from repro.analysis.schema import (
    ANY_TYPE,
    NUMBER,
    STRING,
    TYPE_SAMPLE_ROWS,
    AnalysisError,
    InferredSchema,
    SchemaContext,
    analyze,
    column_types,
    inferred_attributes,
)
from repro.core.algebra import BaseRelation
from repro.core.planner import Statistics, plan
from repro.relational import Database, Relation, RelationSchema
from repro.relational.errors import SchemaError
from repro.relational.predicates import AttrAttr, AttrConst
from repro.relational.values import PLACEHOLDER


def typed_database() -> Database:
    emp = Relation(
        RelationSchema("EMP", ("EID", "NAME", "DEPT")),
        [(1, "ada", "eng"), (2, "bob", "ops")],
    )
    dept = Relation(RelationSchema("DEPT", ("DID", "HEAD")), [(10, "ada")])
    return Database([emp, dept])


@pytest.fixture
def context() -> SchemaContext:
    return SchemaContext.from_engine(typed_database())


# --------------------------------------------------------------------------- #
# Golden rendered-tree tests: one per error class
# --------------------------------------------------------------------------- #


class TestGoldenErrorTrees:
    def test_unknown_attribute_marks_the_projection(self, context):
        query = BaseRelation("EMP").select(AttrConst("EID", "=", 1)).project(("SALARY",))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "unknown-attribute"
        assert str(error) == (
            "plan analysis failed [unknown-attribute]: projection references "
            "unknown attribute 'SALARY'; input schema is "
            "(EID: number, NAME: str, DEPT: str)\n"
            "  π[SALARY]   <-- here\n"
            "    σ[(EID = 1)]\n"
            "      EMP"
        )

    def test_duplicate_attribute_marks_the_product(self, context):
        query = BaseRelation("EMP").product(BaseRelation("EMP"))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "duplicate-attribute"
        assert str(error) == (
            "plan analysis failed [duplicate-attribute]: both sides of the "
            "product define ['DEPT', 'EID', 'NAME']; left is "
            "(EID: number, NAME: str, DEPT: str), right is "
            "(EID: number, NAME: str, DEPT: str) — rename one side first\n"
            "  ×   <-- here\n"
            "    EMP\n"
            "    EMP"
        )

    def test_arity_mismatch_marks_the_union(self, context):
        # Bare BaseRelations resolve only through the context, so the
        # builder-time structural check passes and strict analysis fails.
        query = BaseRelation("EMP").union(BaseRelation("DEPT"))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "arity-mismatch"
        assert str(error) == (
            "plan analysis failed [arity-mismatch]: ∪ requires union-compatible "
            "inputs; left has arity 3 (EID: number, NAME: str, DEPT: str) but "
            "right has arity 2 (DID: number, HEAD: str)\n"
            "  ∪   <-- here\n"
            "    EMP\n"
            "    DEPT"
        )

    def test_predicate_type_mismatch_marks_the_select(self, context):
        query = BaseRelation("EMP").select(AttrConst("NAME", "=", 7))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "type-mismatch"
        assert str(error) == (
            "plan analysis failed [type-mismatch]: predicate (NAME = 7) compares "
            "'NAME' (str) with a number constant — the comparison can never hold\n"
            "  σ[(NAME = 7)]   <-- here\n"
            "    EMP"
        )

    def test_errors_are_schema_errors(self, context):
        with pytest.raises(SchemaError):
            analyze(BaseRelation("EMP").project(("NOPE",)), context)


class TestMoreErrorClasses:
    def test_rename_of_unknown_attribute(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").rename("SALARY", "S"), context)
        assert excinfo.value.code == "unknown-attribute"

    def test_rename_collision(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").rename("EID", "NAME"), context)
        assert excinfo.value.code == "duplicate-attribute"

    def test_duplicate_projection_list(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").project(("EID", "EID")), context)
        assert excinfo.value.code == "duplicate-attribute"

    def test_join_type_mismatch(self, context):
        query = BaseRelation("EMP").join(
            BaseRelation("DEPT").rename("HEAD", "H"), "EID", "H"
        )
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        assert excinfo.value.code == "type-mismatch"

    def test_join_key_missing(self, context):
        query = BaseRelation("EMP").join(BaseRelation("DEPT"), "EID", "XID")
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        assert excinfo.value.code == "unknown-attribute"

    def test_attr_attr_type_mismatch(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").select(AttrAttr("EID", "=", "NAME")), context)
        assert excinfo.value.code == "type-mismatch"


# --------------------------------------------------------------------------- #
# Builder-time set-operation checks (Query.union / difference / intersection)
# --------------------------------------------------------------------------- #


class TestBuilderTimeSetOperations:
    def test_union_of_mismatched_projections_raises_at_build(self):
        left = BaseRelation("R").project(("A", "B"))
        right = BaseRelation("S").project(("A",))
        with pytest.raises(SchemaError) as excinfo:
            left.union(right)
        message = str(excinfo.value)
        assert "arity-mismatch" in message
        # Both operand schemas are spelled out in the message.
        assert "('A', 'B')" in message and "('A',)" in message

    def test_difference_attribute_mismatch_at_build(self):
        left = BaseRelation("R").project(("A", "B"))
        right = BaseRelation("S").project(("A", "C"))
        with pytest.raises(SchemaError) as excinfo:
            left.difference(right)
        assert "attribute-mismatch" in str(excinfo.value)

    def test_intersection_mismatch_at_build(self):
        with pytest.raises(SchemaError):
            BaseRelation("R").project(("A",)).intersection(
                BaseRelation("S").project(("A", "B"))
            )

    def test_bare_base_relations_pass_at_build(self):
        # No structural schema on either side: nothing definite to reject.
        BaseRelation("R").union(BaseRelation("S"))

    def test_rename_chains_resolve_structurally(self):
        left = BaseRelation("R").project(("A", "B")).rename("A", "X")
        right = BaseRelation("S").project(("X", "B"))
        left.union(right)  # identical lists after the rename: compatible


# --------------------------------------------------------------------------- #
# Inference results, type lattice, contexts
# --------------------------------------------------------------------------- #


class TestInference:
    def test_inferred_types_from_rows(self, context):
        schema = analyze(BaseRelation("EMP"), context)
        assert schema == InferredSchema(
            ("EID", "NAME", "DEPT"), (NUMBER, STRING, STRING)
        )

    def test_join_concatenates_schemas(self, context):
        query = BaseRelation("EMP").join(BaseRelation("DEPT"), "EID", "DID")
        schema = analyze(query, context)
        assert schema.attributes == ("EID", "NAME", "DEPT", "DID", "HEAD")

    def test_unknown_relation_disables_checks(self, context):
        # MYSTERY is unknown: projection over it cannot be validated.
        query = BaseRelation("MYSTERY").project(("WHATEVER",))
        schema = analyze(query, context)
        assert schema.attributes == ("WHATEVER",)
        assert schema.types == (ANY_TYPE,)

    def test_column_types_skips_placeholders(self):
        types = column_types(
            ("A", "B"), [(1, "x"), (PLACEHOLDER, "y"), (2, PLACEHOLDER)]
        )
        assert types == {"A": NUMBER, "B": STRING}

    def test_column_types_mixed_becomes_any(self):
        assert column_types(("A",), [(1,), ("x",)]) == {"A": ANY_TYPE}

    def test_engine_types_come_from_the_first_rows_only(self):
        # Past the 128-row sample, a column turns to strings and another to
        # placeholders: the inferred types stay those of the leading rows.
        from repro.core import UWSDT
        from repro.core.component import Component
        from repro.core.fields import FieldRef

        leading = [(i, "name", i % 3) for i in range(TYPE_SAMPLE_ROWS)]
        rows = leading + [(f"late{i}", "name", PLACEHOLDER) for i in range(50)]
        database = Database(
            [
                Relation(
                    RelationSchema("T", ("A", "B", "C")),
                    leading + [(f"late{i}", "name", "x") for i in range(50)],
                )
            ]
        )
        uwsdt = UWSDT()
        uwsdt.add_relation(RelationSchema("T", ("A", "B", "C")))
        for tid, row in enumerate(rows):
            uwsdt.add_template_tuple("T", tid, row)
            if row[2] is PLACEHOLDER:
                uwsdt.new_component(Component.uniform(FieldRef("T", tid, "C"), (1, 2)))
        expected = {"A": NUMBER, "B": STRING, "C": NUMBER}
        assert column_types(("A", "B", "C"), leading) == expected
        for engine in (database, uwsdt):
            assert SchemaContext.from_engine(engine).relation_types("T") == expected

        consumed = []
        template_rows = uwsdt.template_rows

        def counting(name):
            for item in template_rows(name):
                consumed.append(item)
                yield item

        uwsdt.template_rows = counting
        assert SchemaContext.from_engine(uwsdt).relation_types("T") == expected
        assert len(consumed) == TYPE_SAMPLE_ROWS

    def test_inferred_attributes_matches_context(self, context):
        query = BaseRelation("EMP").select(AttrConst("EID", "=", 1)).rename("EID", "X")
        assert inferred_attributes(query, context) == ("X", "NAME", "DEPT")
        # Without context the base relation is opaque.
        assert inferred_attributes(query) is None


class TestPlanTimeRejection:
    def test_plan_rejects_bad_query_with_statistics(self):
        statistics = Statistics(attributes={"EMP": ("EID", "NAME", "DEPT")})
        query = BaseRelation("EMP").project(("SALARY",))
        with pytest.raises(AnalysisError) as excinfo:
            plan(query, statistics)
        assert excinfo.value.code == "unknown-attribute"

    def test_query_plan_on_engine_rejects_bad_query(self):
        database = typed_database()
        with pytest.raises(AnalysisError):
            BaseRelation("EMP").project(("SALARY",)).plan(database)

    def test_run_rejects_bad_query_before_execution(self):
        database = typed_database()
        with pytest.raises(SchemaError):
            BaseRelation("EMP").select(AttrConst("NAME", "=", 7)).run(database)

    def test_valid_queries_still_plan_and_run(self):
        database = typed_database()
        query = BaseRelation("EMP").select(AttrConst("DEPT", "=", "eng")).project(("NAME",))
        result = query.run(database)
        assert sorted(result) == [("ada",)]
