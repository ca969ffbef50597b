"""The certainty dataflow: facts and rendering.

* Lattice and context behavior: densities → certain/maybe, probe fallback,
  unknown for unseen relations, memoized probes.
* Per-attribute propagation through σ/π/δ/⋈/∪/−.
* ``Plan.explain()`` and ``explain_analyze`` annotate nodes with their
  verdicts when placeholder densities are known.
"""

import pytest

from repro.analysis.certainty import (
    CERTAIN,
    MAYBE,
    UNKNOWN,
    CertaintyContext,
    attribute_facts,
    lub,
    node_certainty,
    physical_certainty,
    render_with_certainty,
)
from repro.analysis.schema import SchemaContext
from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.planner import Statistics, plan
from repro.relational import RelationSchema
from repro.relational.predicates import AttrConst
from repro.worlds import OrSet, OrSetRelation


@pytest.fixture
def context() -> CertaintyContext:
    return CertaintyContext(densities={"R": 0.0, "S": 0.25})


class TestLatticeAndContext:
    def test_lub_ordering(self):
        assert lub(CERTAIN, CERTAIN) == CERTAIN
        assert lub(CERTAIN, MAYBE) == MAYBE
        assert lub(UNKNOWN, CERTAIN) == UNKNOWN
        assert lub(UNKNOWN, MAYBE) == MAYBE

    def test_density_facts(self, context):
        assert context.relation("R") == CERTAIN
        assert context.relation("S") == MAYBE
        assert context.relation("T") == UNKNOWN

    def test_probe_fallback_memoized(self):
        calls = []

        def probe(name):
            calls.append(name)
            return name == "R"

        context = CertaintyContext(probe=probe)
        assert context.relation("R") == CERTAIN
        assert context.relation("R") == CERTAIN
        assert context.relation("S") == MAYBE
        assert calls == ["R", "S"]

    def test_relations_combined(self, context):
        assert context.relations(["R"]) == CERTAIN
        assert context.relations(["R", "S"]) == MAYBE
        assert context.relations([]) == UNKNOWN

    def test_physical_certainty(self, context):
        assert physical_certainty(("R",), context) == CERTAIN
        assert physical_certainty((), context) == UNKNOWN


class TestDataflow:
    def test_facts_flow_through_operators(self, context):
        schema_context = SchemaContext(
            attributes={"R": ("A", "B"), "S": ("A", "B")}
        )
        query = (
            BaseRelation("R")
            .select(AttrConst("A", "=", 1))
            .rename("B", "B2")
            .union(BaseRelation("S").rename("B", "B2"))
        )
        facts = attribute_facts(query, context, schema_context)
        # Union takes the pointwise lub: certain R ⊔ maybe S = maybe.
        assert facts == (("A", MAYBE), ("B2", MAYBE))

    def test_join_concatenates_facts(self, context):
        schema_context = SchemaContext(
            attributes={"R": ("A", "B"), "S": ("C", "D")}
        )
        query = BaseRelation("R").join(BaseRelation("S"), "A", "C")
        facts = attribute_facts(query, context, schema_context)
        assert facts == (
            ("A", CERTAIN),
            ("B", CERTAIN),
            ("C", MAYBE),
            ("D", MAYBE),
        )

    def test_difference_keeps_left_facts(self, context):
        schema_context = SchemaContext(attributes={"R": ("A",), "S": ("A",)})
        query = BaseRelation("R").difference(BaseRelation("S"))
        assert attribute_facts(query, context, schema_context) == (("A", CERTAIN),)

    def test_node_certainty_is_subtree_lub(self, context):
        query = BaseRelation("R").product(BaseRelation("S").rename("A", "X"))
        facts = node_certainty(query, context)
        assert facts[id(query)] == MAYBE
        assert facts[id(query.left)] == CERTAIN

    def test_render_marks_certain_and_maybe(self, context):
        query = BaseRelation("R").union(BaseRelation("S"))
        rendered = render_with_certainty(query, context)
        assert rendered == "∪  [maybe]\n  R  [certain]\n  S  [maybe]"

    def test_render_leaves_unknown_unannotated(self):
        rendered = render_with_certainty(
            BaseRelation("T"), CertaintyContext(densities={})
        )
        assert rendered == "T"


class TestExplainAnnotations:
    def test_plan_explain_annotates_certainty(self):
        statistics = Statistics(
            row_counts={"R": 10},
            placeholder_densities={"R": 0.0},
            attributes={"R": ("A", "B")},
        )
        result = plan(BaseRelation("R").select(AttrConst("A", "=", 1)), statistics)
        explained = result.explain()
        assert "[certain]" in explained

    def test_plan_explain_marks_uncertain_sources(self):
        statistics = Statistics(
            row_counts={"R": 10},
            placeholder_densities={"R": 0.4},
            attributes={"R": ("A", "B")},
        )
        result = plan(BaseRelation("R"), statistics)
        assert "[maybe]" in result.explain()

    def test_explain_analyze_carries_certainty(self):
        relation = OrSetRelation(RelationSchema("R", ("A0", "A1", "A2")))
        relation.insert((1, OrSet([1, 2]), 3))
        relation.insert((2, 0, 1))
        uwsdt = UWSDT.from_orset_relation(relation)
        report = BaseRelation("R").select(AttrConst("A0", "=", 1)).explain_analyze(uwsdt)
        assert "maybe" in report

    def test_explain_analyze_certain_database_unannotated_or_certain(self):
        # A Database engine reports density 0.0 everywhere: nodes tag certain.
        from repro.relational import Database, Relation

        database = Database(
            [Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])]
        )
        report = BaseRelation("R").select(AttrConst("A", "=", 1)).explain_analyze(database)
        assert "certain" in report
