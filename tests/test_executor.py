"""The physical execution layer: lowering, backends, metrics, self-tuning.

Covers the PR 5 tentpole:

* logical plans lower to per-engine physical operator trees
  (``Scan``/``IndexScan``/``Filter``/``HashJoin``/``IndexNestedLoopJoin``/…),
* the hash-join vs index-nested-loop-join choice is a cost-model decision —
  a small-outer/large-inner join *provably* selects the index join
  (asserted via ``PhysicalPlan.explain()``), a balanced join keeps the hash
  join, and both algorithms produce identical results on every engine,
* execution records per-operator metrics (rows in/out, wall time,
  estimated-vs-actual cardinality) exposed as ``ExecutionMetrics`` on the
  query result and folded into the statistics catalog,
* one feedback iteration of :mod:`repro.core.exec.feedback` measurably
  reduces the cost model's estimated-vs-observed time error and persists
  through the existing ``repro-cost-profile`` path,
* ``Query.intersection`` evaluates natively on a Database and through its
  ``A − (A − B)`` expansion on the representation engines.
"""

import pytest

from repro.baselines import naive
from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation, Query, evaluate_on_database
from repro.core.exec import (
    ExecutionResult,
    apply_feedback,
    backend_for,
    cost_model_error,
    fold_metrics,
    index_pool_for,
    lower,
)
from repro.core.planner import Statistics, clear_cost_profile, load_cost_profile
from repro.core.planner.catalog import catalog_for
from repro.relational import Database, QueryError, Relation, RelationSchema
from repro.relational.predicates import AttrAttr, AttrConst
from repro.worlds import OrSet, OrSetRelation

from _fixtures import assert_same_result_distribution


def eq(attribute, value):
    return AttrConst(attribute, "=", value)


def small_large_database(small=6, large=600):
    """R is tiny, S is big: the canonical index-nested-loop-join shape."""
    R = Relation(RelationSchema("R", ("A", "B")), [(i % 3, i) for i in range(small)])
    S = Relation(RelationSchema("S", ("C", "D")), [(i % small, i * 2) for i in range(large)])
    return Database([R, S])


def balanced_database(rows=200):
    R = Relation(RelationSchema("R", ("A", "B")), [(i % 3, i) for i in range(rows)])
    S = Relation(RelationSchema("S", ("C", "D")), [(i % 7, i * 2) for i in range(rows)])
    return Database([R, S])


ORACLE_RELATIONS = [
    OrSetRelation.from_dicts(
        "R",
        ["A0", "A1"],
        [{"A0": 1, "A1": OrSet([2, 3])}, {"A0": 0, "A1": 4}, {"A0": 1, "A1": 2}],
    ),
    OrSetRelation.from_dicts(
        "S",
        ["B0", "B1"],
        [{"B0": 2, "B1": OrSet([0, 1])}, {"B0": 4, "B1": 7}],
    ),
]


class TestLowering:
    def test_database_plan_uses_index_scan_for_pushed_equality(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1))
        physical = query.physical_plan(database)
        assert physical.uses("IndexScan")
        assert "IndexScan(R" in physical.explain()

    def test_wsd_backend_has_no_index_scan(self):
        wsd = WSD.from_orset_relations(ORACLE_RELATIONS)
        physical = BaseRelation("R").select(eq("A0", 1)).physical_plan(wsd)
        assert not physical.uses("IndexScan")
        assert physical.uses("Filter")

    def test_unplanned_lowering_executes_verbatim_tree(self):
        database = small_large_database()
        query = BaseRelation("R").product(BaseRelation("S")).select(AttrAttr("B", "=", "C"))
        physical = query.physical_plan(database, optimize=False)
        assert physical.uses("Product")
        assert not physical.uses("HashJoin")

    def test_intersection_native_on_database_expanded_on_uwsdt(self):
        database = small_large_database()
        query = BaseRelation("R").intersection(BaseRelation("R").select(eq("A", 1)))
        assert query.physical_plan(database).uses("Intersection")

        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        query = BaseRelation("R").intersection(BaseRelation("R").select(eq("A0", 1)))
        physical = query.physical_plan(uwsdt)
        assert not physical.uses("Intersection")
        assert physical.uses("Difference")

    def test_unknown_node_error_renders_query_text(self):
        class Mystery(Query):
            def children(self):
                return ()

            def node_label(self):
                return "mystery"

        database = small_large_database()
        with pytest.raises(QueryError) as excinfo:
            Mystery().run(database, optimize=False)
        assert "mystery" in str(excinfo.value)

    def test_backend_for_rejects_unknown_engines(self):
        with pytest.raises(QueryError):
            backend_for(object())
        with pytest.raises(QueryError):
            BaseRelation("R").run(42)


class TestJoinAlgorithmChoice:
    def test_small_outer_large_inner_selects_index_nested_loop(self):
        """The acceptance case: the cost model provably prefers the index
        join when the outer side is small and the inner is a big base scan."""
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        physical = query.physical_plan(database)
        assert physical.uses("IndexNestedLoopJoin")
        assert not physical.uses("HashJoin")
        assert "IndexNestedLoopJoin" in physical.explain()

    def test_balanced_join_keeps_hash_join(self):
        database = balanced_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "C")
        physical = query.physical_plan(database)
        assert physical.uses("HashJoin")
        assert not physical.uses("IndexNestedLoopJoin")

    def test_uwsdt_small_outer_selects_index_nested_loop(self):
        small = OrSetRelation.from_dicts(
            "R", ["A0", "A1"], [{"A0": 1, "A1": OrSet([2, 3])}, {"A0": 0, "A1": 4}]
        )
        large = OrSetRelation.from_dicts(
            "S", ["B0", "B1"], [{"B0": i % 9, "B1": i} for i in range(300)]
        )
        uwsdt = UWSDT.from_orset_relations([small, large])
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B0")
        physical = query.physical_plan(uwsdt)
        assert "IndexNestedLoopJoin" in physical.explain()

    @pytest.mark.parametrize("force", ["hash", "index-nested-loop"])
    def test_both_algorithms_agree_with_brute_force(self, force):
        """Placeholders on either join side: both algorithms must produce
        the same world distribution as the naive engine."""
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B0")
        base = WSD.from_orset_relations(ORACLE_RELATIONS)
        reference = naive.evaluate_query(base.rep(), query, "P")
        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        result = query.run(uwsdt, "P", collect_metrics=True, force_join=force)
        uwsdt.validate()
        assert_same_result_distribution(uwsdt.rep(), reference, "P")
        operators = [record.operator for record in result.metrics.records]
        if force == "index-nested-loop":
            assert "IndexNestedLoopJoin" in operators
        else:
            assert "HashJoin" in operators

    def test_database_index_join_matches_hash_join(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        via_index = query.run(database, "idx", force_join="index-nested-loop")
        via_hash = query.run(database, "hash", force_join="hash")
        assert via_index.row_set() == via_hash.row_set()
        assert via_index.schema.attributes == via_hash.schema.attributes

    def test_index_pool_is_shared_across_runs(self):
        database = small_large_database()
        pool = index_pool_for(database)
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        query.run(database, "first", force_join="index-nested-loop")
        built = len(pool)
        query.run(database, "second", force_join="index-nested-loop")
        assert len(pool) == built  # the second run probed cached indexes


class TestExecutionMetrics:
    def test_metrics_report_rows_time_and_estimates(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        result = query.run(database, "out", collect_metrics=True)
        assert isinstance(result, ExecutionResult)
        reference = query.run(database, "out2")
        assert result.value.row_set() == reference.row_set()

        metrics = result.metrics
        assert metrics.engine == "database"
        assert metrics.records
        final = metrics.records[-1]
        assert final.rows_out == len(result.value)
        assert final.seconds >= 0.0
        assert final.estimated_rows is not None
        assert final.cardinality_error is not None and final.cardinality_error >= 1.0
        assert "actual" in result.physical.explain()
        assert "execution metrics" in metrics.summary()

    def test_metrics_fold_into_the_statistics_catalog(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        result = query.run(database, "out", collect_metrics=True)
        observed = catalog_for(database).observed_cardinalities
        assert observed
        join_label = result.metrics.join_records()[0].label
        ewma, estimated, count = observed[join_label]
        assert count == 1
        assert ewma == result.metrics.join_records()[0].rows_out

    def test_uwsdt_metrics_and_result_name(self):
        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        query = BaseRelation("R").select(eq("A0", 1))
        result = query.run(uwsdt, "P", collect_metrics=True)
        assert result.value == "P"
        assert uwsdt.schema.has_relation("P")
        assert result.metrics.engine == "uwsdt"
        assert result.metrics.records[-1].rows_out == uwsdt.template_size("P")


class TestIntersection:
    def test_intersection_matches_brute_force_on_all_engines(self):
        query = (
            BaseRelation("R")
            .select(eq("A0", 1))
            .intersection(BaseRelation("R").select(AttrAttr("A0", "<", "A1")))
        )
        base = WSD.from_orset_relations(ORACLE_RELATIONS)
        reference = naive.evaluate_query(base.rep(), query, "P")

        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        query.run(uwsdt, "P")
        uwsdt.validate()
        assert_same_result_distribution(uwsdt.rep(), reference, "P")

        wsd = WSD.from_orset_relations(ORACLE_RELATIONS)
        query.run(wsd, "P")
        assert_same_result_distribution(wsd.rep(), reference, "P")

        certain_rows = [
            row
            for relation in ORACLE_RELATIONS
            for row in ([] if relation.schema.name != "R" else relation.rows)
            if not any(isinstance(value, OrSet) for value in row)
        ]
        database = Database(
            [
                Relation(RelationSchema("R", ("A0", "A1")), certain_rows),
                Relation(RelationSchema("S", ("B0", "B1")), []),
            ]
        )
        planned = query.run(database, "planned")
        classical = evaluate_on_database(query, database, "classical")
        assert planned.row_set() == classical.row_set()

    def test_selection_pushes_into_both_intersection_sides(self):
        query = BaseRelation("R").intersection(BaseRelation("R")).select(eq("A0", 1))
        statistics = Statistics(
            {"R": 100}, attributes={"R": ("A0", "A1")}, engine="database"
        )
        built = query.plan(statistics=statistics)
        rendered = repr(built.chosen)
        assert rendered.count("σ") == 2  # one pushed copy per side

    def test_intersection_repr_and_text(self):
        query = BaseRelation("R").intersection(BaseRelation("S"))
        assert "∩" in repr(query)
        assert "∩" in query.to_text()


class TestQueryText:
    def test_to_text_is_indented_and_symbolic(self):
        query = (
            BaseRelation("R")
            .select(eq("A0", 1))
            .join(BaseRelation("S"), "A1", "B0")
            .project(["A0", "B1"])
        )
        text = query.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("π[")
        assert any(line.lstrip().startswith("σ[") for line in lines)
        assert any("⋈" in line for line in lines)
        assert any(line.startswith("      ") for line in lines)  # depth ≥ 3

    def test_plan_explain_includes_chosen_tree(self):
        query = BaseRelation("R").select(eq("A0", 1))
        statistics = Statistics({"R": 10}, attributes={"R": ("A0", "A1")})
        explained = query.plan(statistics=statistics).explain()
        assert "chosen tree:" in explained
        assert "σ[" in explained


class TestFeedback:
    def _metrics(self):
        database = small_large_database(small=8, large=800)
        query = (
            BaseRelation("R")
            .select(eq("A", 1))
            .join(BaseRelation("S"), "B", "C")
            .project(["A", "D"])
        )
        return query.run(database, "out", collect_metrics=True).metrics

    def test_one_iteration_reduces_cost_model_error(self):
        metrics = self._metrics()
        clear_cost_profile()
        before_model = Statistics(engine="database").cost_model()
        error_before = cost_model_error(metrics, before_model)
        updated = fold_metrics(metrics, before_model, alpha=1.0)
        error_after = cost_model_error(metrics, updated)
        assert error_after <= error_before
        if error_before > 0.02:
            assert error_after < error_before

    def test_apply_feedback_persists_through_load_cost_profile(self, tmp_path):
        metrics = self._metrics()
        path = tmp_path / "tuned.json"
        try:
            clear_cost_profile()
            result = apply_feedback(metrics, alpha=1.0, output_path=str(path))
            assert result.engine == "database"
            assert result.improved or result.error_before <= 0.02
            models = load_cost_profile(str(path))
            assert set(models) == {"database", "wsd", "uwsdt"}
            assert models["database"].constants() == result.model.constants()
            # The loaded profile is what the planner now serves.
            served = Statistics(engine="database").cost_model()
            assert served.constants() == result.model.constants()
            assert served.source == "calibrated"
        finally:
            clear_cost_profile()

    def test_smoke_cli_round_trips_and_writes_only_its_output(self, tmp_path, monkeypatch):
        """``python -m repro.core.exec --smoke`` (the CI self-tuning step):
        calibrate, execute on the database and UWSDT engines, fold the
        metrics in, verify the saved profile round-trips — and write no
        file but the requested output."""
        import json

        from repro.core.exec.feedback import main

        monkeypatch.chdir(tmp_path)
        output = tmp_path / "tuned.json"
        try:
            assert main(["--smoke", "--output", str(output)]) == 0
        finally:
            clear_cost_profile()
        document = json.loads(output.read_text())
        assert set(document["engines"]) == {"database", "wsd", "uwsdt"}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["tuned.json"]

    def test_feedback_is_a_noop_without_chargeable_operators(self):
        from repro.core.exec import ExecutionMetrics

        empty = ExecutionMetrics("database", [])
        model = Statistics(engine="database").cost_model()
        assert fold_metrics(empty, model, alpha=1.0) is model
        assert cost_model_error(empty, model) == 0.0
