"""Cost-constant calibration: fitting, JSON round-trip, planner pickup."""

import json

import pytest

from repro.core.planner import (
    COST_MODELS,
    CalibrationProfile,
    CostModel,
    Measurement,
    Statistics,
    calibrate,
    clear_cost_profile,
    fit_cost_model,
    install_cost_profile,
    load_cost_profile,
    parse_cost_profile,
    plan,
    run_microbenchmarks,
)
from repro.core.algebra import BaseRelation
from repro.core.planner.cost import arity_width
from repro.relational import attr_eq


@pytest.fixture(autouse=True)
def _no_profile_leaks():
    """Every test starts and ends on the hand-tuned constants."""
    clear_cost_profile()
    yield
    clear_cost_profile()


def _synthetic_measurements(engine, unit=1e-6):
    """Noise-free timings generated from known constants: select 1×, project
    3×, rename 0.5×, union 2×, emit 4×, join build+probe 1.5×, difference 6×
    — all in units of ``unit`` seconds per work item."""
    measurements = []
    for n in (100, 200):
        measurements.append(Measurement(engine, "select", n, 0, n, 4, 4, unit * n))
        measurements.append(
            Measurement(engine, "project", n, 0, n, 4, 2, 3 * unit * n * arity_width(4))
        )
        measurements.append(Measurement(engine, "rename", n, 0, n, 4, 4, 0.5 * unit * n))
        measurements.append(Measurement(engine, "union", n, n, 2 * n, 4, 4, 2 * unit * 2 * n))
        out = 4 * n
        join_seconds = 4 * unit * out * arity_width(8) + 1.5 * unit * (n + n)
        measurements.append(Measurement(engine, "join", n, n, out, 4, 8, join_seconds))
    for n in (10, 20):
        measurements.append(
            Measurement(engine, "product", n, n, n * n, 4, 8, 4 * unit * n * n * arity_width(8))
        )
        measurements.append(Measurement(engine, "difference", n, n, n, 4, 4, 6 * unit * n * n))
    return measurements


class TestFit:
    def test_fit_recovers_known_ratios(self):
        reference = COST_MODELS["database"]
        fitted = fit_cost_model("database", _synthetic_measurements("database"))
        assert fitted.source == "calibrated"
        # select is the anchor: it keeps the reference value exactly.
        assert fitted.select_tuple == reference.select_tuple
        scale = reference.select_tuple  # measured select constant was 1.0·unit
        assert fitted.project_tuple == pytest.approx(3 * scale, rel=1e-6)
        assert fitted.rename_tuple == pytest.approx(0.5 * scale, rel=1e-6)
        assert fitted.union_tuple == pytest.approx(2 * scale, rel=1e-6)
        assert fitted.emit_tuple == pytest.approx(4 * scale, rel=1e-6)
        assert fitted.join_build == pytest.approx(1.5 * scale, rel=1e-6)
        assert fitted.join_probe == fitted.join_build
        assert fitted.difference_pair == pytest.approx(6 * scale, rel=1e-6)

    def test_fit_without_select_keeps_reference(self):
        fitted = fit_cost_model("uwsdt", [])
        assert fitted is COST_MODELS["uwsdt"]
        assert fitted.source == "hand-tuned"

    def test_fit_floors_sub_resolution_ops(self):
        """An operator timed at ~0 seconds must not fit to a zero constant."""
        measurements = _synthetic_measurements("database")
        measurements.append(Measurement("database", "rename", 400, 0, 400, 4, 4, 0.0))
        fitted = fit_cost_model("database", measurements)
        assert fitted.rename_tuple > 0


class TestMicrobenchmarks:
    def test_database_microbenchmarks_fit_positive_constants(self):
        measurements = run_microbenchmarks(
            "database", linear_sizes=(40, 80), product_sizes=(8, 12),
            difference_sizes=(4, 6), repeats=1,
        )
        operators = {m.operator for m in measurements}
        assert operators == {
            "select", "project", "rename", "union", "join", "product", "difference",
        }
        fitted = fit_cost_model("database", measurements)
        for name in CostModel.CONSTANT_FIELDS:
            assert getattr(fitted, name) > 0

    def test_representation_microbenchmarks_run(self):
        for engine in ("wsd", "uwsdt"):
            measurements = run_microbenchmarks(
                engine, linear_sizes=(12,), product_sizes=(4,),
                difference_sizes=(3,), repeats=1,
            )
            assert all(m.seconds >= 0 for m in measurements)
            fitted = fit_cost_model(engine, measurements)
            assert fitted.source == "calibrated"


class TestProfileRoundTrip:
    def test_profile_round_trips_through_json(self, tmp_path):
        profile = calibrate(
            engines=("database",), linear_sizes=(30, 60), product_sizes=(6, 10),
            difference_sizes=(4, 6), repeats=1,
        )
        path = tmp_path / "profile.json"
        profile.save(str(path))
        loaded = CalibrationProfile.load(str(path))
        assert loaded.models["database"].constants() == pytest.approx(
            profile.models["database"].constants()
        )
        assert loaded.models["database"].source == "calibrated"
        assert loaded.metadata["engines"] == ["database"]

    def test_parse_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            parse_cost_profile({"format": "something-else", "engines": {}})
        with pytest.raises(ValueError):
            parse_cost_profile({"format": "repro-cost-profile"})

    def test_unknown_constant_rejected(self):
        with pytest.raises(ValueError):
            CostModel.from_constants("uwsdt", {"select_tuple": 1.0, "warp_factor": 9.0})

    def test_loaded_profile_picked_up_by_planner_and_explain(self, tmp_path):
        calibrated = CostModel.from_constants(
            "uwsdt", dict(COST_MODELS["uwsdt"].constants(), emit_tuple=9.75)
        )
        path = tmp_path / "profile.json"
        CalibrationProfile({"uwsdt": calibrated}).save(str(path))
        load_cost_profile(str(path))
        try:
            assert CostModel.for_engine("uwsdt").emit_tuple == 9.75
            # Engines the profile does not cover keep their hand-tuned model.
            assert CostModel.for_engine("wsd") is COST_MODELS["wsd"]
            stats = Statistics(
                row_counts={"R": 1000, "S": 100},
                attributes={"R": ("A", "B", "C"), "S": ("D", "E")},
                engine="uwsdt",
            )
            query = BaseRelation("R").product(BaseRelation("S")).select(attr_eq("B", "D"))
            built = plan(query, stats)
            explained = built.explain()
            assert "calibrated" in explained
            assert str(path) in explained
            # The calibrated emit constant is live in the estimates too.
            clear_cost_profile()
            hand_tuned = plan(query, stats)
            assert built.cost_after.cost != hand_tuned.cost_after.cost
        finally:
            clear_cost_profile()

    def test_install_without_path_still_reports_calibrated(self):
        calibrated = CostModel.from_constants("database", COST_MODELS["database"].constants())
        install_cost_profile({"database": calibrated})
        try:
            stats = Statistics(row_counts={"R": 10}, attributes={"R": ("A",)}, engine="database")
            from repro.relational import eq

            explained = plan(BaseRelation("R").select(eq("A", 1)), stats).explain()
            assert "cost model: database (calibrated constants)" in explained
        finally:
            clear_cost_profile()

    def test_explicit_install_not_clobbered_by_env_profile(self, monkeypatch, tmp_path):
        """An explicit install must survive the REPRO_COST_PROFILE env var
        being discovered afterwards (first for_engine call)."""
        import repro.core.planner.cost as cost_module

        env_model = CostModel.from_constants(
            "uwsdt", dict(COST_MODELS["uwsdt"].constants(), select_tuple=9.0)
        )
        env_path = tmp_path / "env.json"
        CalibrationProfile({"uwsdt": env_model}).save(str(env_path))
        monkeypatch.setenv(cost_module.COST_PROFILE_ENV, str(env_path))
        # Simulate a fresh process that has not consulted the env var yet.
        monkeypatch.setattr(cost_module, "_PROFILE_ENV_CHECKED", False)
        explicit = CostModel.from_constants(
            "uwsdt", dict(COST_MODELS["uwsdt"].constants(), select_tuple=42.0)
        )
        install_cost_profile({"uwsdt": explicit})
        assert CostModel.for_engine("uwsdt").select_tuple == 42.0

    def test_malformed_env_profile_falls_back_to_hand_tuned(self, monkeypatch, tmp_path):
        import repro.core.planner.cost as cost_module

        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "repro-cost-profile", "version": 1,'
            ' "engines": {"uwsdt": {"select_tuple": null}}}'
        )
        monkeypatch.setenv(cost_module.COST_PROFILE_ENV, str(path))
        monkeypatch.setattr(cost_module, "_PROFILE_ENV_CHECKED", False)
        assert CostModel.for_engine("uwsdt") is COST_MODELS["uwsdt"]

    def test_saved_document_format(self, tmp_path):
        profile = CalibrationProfile(
            {"database": CostModel.from_constants("database", COST_MODELS["database"].constants())}
        )
        path = tmp_path / "profile.json"
        profile.save(str(path))
        document = json.loads(path.read_text())
        assert document["format"] == "repro-cost-profile"
        assert document["version"] == 1
        assert set(document["engines"]["database"]) == set(CostModel.CONSTANT_FIELDS)


class TestProfilesWithRemovedConstants:
    """Profiles written while the sharded backend existed carry three
    parallelism constants (``shard_setup``, ``shard_ship_tuple``,
    ``shard_merge_tuple``) in every engine, plus ``columnar`` and
    ``sharded`` engine entries.  Those constants no longer exist."""

    @staticmethod
    def _old_profile(tmp_path):
        shard_constants = {"shard_setup": 50.0, "shard_ship_tuple": 0.5, "shard_merge_tuple": 1.0}
        engines = {
            name: dict(COST_MODELS[source].constants(), **shard_constants)
            for name, source in (
                ("database", "database"),
                ("wsd", "wsd"),
                ("uwsdt", "uwsdt"),
                ("columnar", "database"),
                ("sharded", "uwsdt"),
            )
        }
        path = tmp_path / "old_profile.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-cost-profile",
                    "version": 1,
                    "engines": engines,
                    "metadata": {"self_tuned": True},
                }
            )
        )
        return path

    def test_load_rejects_removed_shard_constants(self, tmp_path):
        path = self._old_profile(tmp_path)
        with pytest.raises(ValueError, match="shard_setup"):
            load_cost_profile(str(path))
        assert CostModel.for_engine("database") is COST_MODELS["database"]

    def test_env_profile_with_removed_constants_falls_back_to_hand_tuned(
        self, monkeypatch, tmp_path
    ):
        import repro.core.planner.cost as cost_module
        from repro.relational import Database, Relation, RelationSchema, eq

        path = self._old_profile(tmp_path)
        monkeypatch.setenv(cost_module.COST_PROFILE_ENV, str(path))
        monkeypatch.setattr(cost_module, "_PROFILE_ENV_CHECKED", False)
        database = Database(
            [Relation(RelationSchema("R", ("A", "B")), [(i % 3, i) for i in range(20)])]
        )
        query = BaseRelation("R").select(eq("A", 1))
        planned = query.plan(database)
        assert planned.statistics.cost_model() is COST_MODELS["database"]
        assert "cost model: database (hand-tuned constants)" in planned.explain()
        assert sorted(query.run(database, "out", plan=planned)) == [
            (1, i) for i in range(1, 20, 3)
        ]
