"""The plan-invariant verifier: schema-preserving rewrites, well-formed plans.

* A Hypothesis property drives the full rewrite pipeline over oracle-shaped
  random trees (the same three-relation shapes the possible-worlds oracle
  uses) with verification forced on: every rule firing is checked
  schema-preserving, and the chosen tree's inferred schema must equal the
  original's.
* A deliberately broken rewrite rule (drops a column) must be caught and
  named by :class:`~repro.analysis.invariants.PlanInvariantError`.
* Hand-built malformed physical plans exercise each structural check:
  bad join keys, IndexScan without an indexable predicate, a plan paired
  with another engine kind's backend.
* The plan cache's engine-kind consistency check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import invariants
from repro.analysis.invariants import PlanInvariantError
from repro.analysis.schema import SchemaContext, inferred_attributes
from repro.core.algebra import BaseRelation
from repro.core.exec import backend_for, lower
from repro.core.exec.physical import HashJoin, IndexScan, PhysicalPlan, Scan
from repro.core.planner import Statistics, plan
from repro.core.planner.planner import rewrite
from repro.core.planner.rules import RewriteContext, RewriteRule
from repro.relational import Database, Relation, RelationSchema
from repro.relational.predicates import AttrAttr, AttrConst

from test_planner_oracle import ORACLE_ATTRS, deep_query_trees


@pytest.fixture(autouse=True)
def _verification_on():
    previous = invariants.set_verification(True)
    yield
    invariants.set_verification(previous)


def oracle_statistics() -> Statistics:
    return Statistics(
        row_counts={name: 10 for name in ORACLE_ATTRS},
        attributes={name: attrs for name, attrs in ORACLE_ATTRS.items()},
    )


# --------------------------------------------------------------------------- #
# Property: every rewrite rule is schema-preserving on oracle-shaped trees
# --------------------------------------------------------------------------- #


class TestRewritePreservation:
    @given(deep_query_trees())
    @settings(max_examples=120, deadline=None)
    def test_pipeline_preserves_schema_on_random_trees(self, query):
        statistics = oracle_statistics()
        checked_before = invariants.rewrites_verified()
        result = plan(query, statistics)
        # Each rule application was individually verified (no exception),
        # and the end-to-end schema is unchanged.
        assert invariants.rewrites_verified() - checked_before >= len(result.applications)
        context = SchemaContext.from_statistics(statistics)
        assert inferred_attributes(result.optimized, context) == inferred_attributes(
            query, context
        )

    def test_broken_rule_is_caught_and_named(self):
        class DropColumn(RewriteRule):
            """Deliberately unsound: rewrites R to π[A0](R)."""

            name = "drop-column"

            def apply(self, query, context):
                if isinstance(query, BaseRelation) and query.name == "R":
                    return BaseRelation("R").project(("A0",))
                return None

        context = RewriteContext(oracle_statistics())
        with pytest.raises(PlanInvariantError) as excinfo:
            rewrite(BaseRelation("R"), context, [("broken", [DropColumn()])])
        message = str(excinfo.value)
        assert "drop-column" in message
        assert "not\nschema-preserving" in message or "schema-preserving" in message
        assert "('A0', 'A1', 'A2')" in message and "('A0',)" in message

    def test_unknown_schemas_skip_the_check(self):
        # No statistics: inferred_attributes is None on both sides — a rule
        # firing over opaque relations must not be reported as a violation.
        class Identityish(RewriteRule):
            name = "rename-roundtrip"

            def apply(self, query, context):
                if isinstance(query, BaseRelation) and query.name == "X":
                    return BaseRelation("Y")
                return None

        rewrite(BaseRelation("X"), RewriteContext(), [("opaque", [Identityish()])])


# --------------------------------------------------------------------------- #
# Physical plan verification
# --------------------------------------------------------------------------- #


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])
    s = Relation(RelationSchema("S", ("C", "D")), [(1, 5)])
    return Database([r, s])


class TestPhysicalVerification:
    def test_lowered_plans_verify_clean(self):
        database = small_database()
        backend = backend_for(database)
        statistics = Statistics.from_engine(database)
        query = (
            BaseRelation("R")
            .join(BaseRelation("S"), "A", "C")
            .select(AttrConst("B", "=", 2))
        )
        checked_before = invariants.plans_verified()
        lower(query, backend, statistics)  # raises on violation
        assert invariants.plans_verified() > checked_before

    def test_hash_join_bad_key_rejected(self):
        context = SchemaContext(attributes={"R": ("A", "B"), "S": ("C", "D")})
        root = HashJoin(Scan("R"), Scan("S"), "A", "NOPE")
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="'NOPE'"):
            invariants.verify_physical(plan_, schema_context=context)

    def test_index_scan_requires_equality_predicate(self):
        root = IndexScan("R", AttrConst("A", "<", 3))
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="hashable"):
            invariants.verify_physical(plan_)

    def test_index_scan_predicate_attribute_checked(self):
        context = SchemaContext(attributes={"R": ("A", "B")})
        root = IndexScan("R", AttrConst("Z", "=", 3))
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="'Z'"):
            invariants.verify_physical(plan_, schema_context=context)

    def test_backend_kind_mismatch_rejected(self):
        database = small_database()
        backend = backend_for(database)
        plan_ = PhysicalPlan(Scan("R"), "uwsdt")
        with pytest.raises(PlanInvariantError, match="paired with"):
            invariants.verify_physical(plan_, backend=backend)

    def test_attr_attr_filter_over_join_verifies(self):
        # AttrAttr predicates resolve through concatenated join schemas.
        database = small_database()
        backend = backend_for(database)
        statistics = Statistics.from_engine(database)
        query = (
            BaseRelation("R")
            .join(BaseRelation("S"), "A", "C")
            .select(AttrAttr("B", "<", "D"))
            .project(("A", "D"))
        )
        lower(query, backend, statistics)


# --------------------------------------------------------------------------- #
# Enablement plumbing and the plan-cache consistency check
# --------------------------------------------------------------------------- #


class TestEnablement:
    def test_env_variable_controls_default(self, monkeypatch):
        invariants.set_verification(None)
        monkeypatch.delenv(invariants.VERIFY_ENV, raising=False)
        assert not invariants.verification_enabled()
        monkeypatch.setenv(invariants.VERIFY_ENV, "1")
        assert invariants.verification_enabled()
        monkeypatch.setenv(invariants.VERIFY_ENV, "0")
        assert not invariants.verification_enabled()

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(invariants.VERIFY_ENV, "0")
        invariants.set_verification(True)
        assert invariants.verification_enabled()

    def test_cached_backend_mismatch(self):
        with pytest.raises(PlanInvariantError, match="lowered for 'database'"):
            invariants.verify_cached_backend("database", "uwsdt")

    def test_cached_backend_consistent(self):
        invariants.verify_cached_backend("uwsdt", "uwsdt")
