"""UWSDT structure, the census workload, c-tables, baselines, applications and the harness."""

import pytest

from repro.apps import (
    MedicalScenario,
    consistent_answer,
    key_violation_groups,
    minimal_repairs,
    possible_answer,
    repairs_to_uwsdt,
)
from repro.baselines import extensional, naive
from repro.baselines.orset_engine import (
    is_representable_as_orsets,
    orset_representation_size,
    project as orset_project,
    select_constant,
)
from repro.bench import (
    census_instance,
    clear_instance_cache,
    density_label,
    format_records,
    run_component_size_experiment,
    run_representation_size_experiment,
)
from repro.census import (
    CENSUS_QUERIES,
    CensusGenerator,
    census_attributes,
    census_dependencies,
    census_schema,
    query_names,
)
from repro.core import (
    UWSDT,
    WSD,
    WSDT,
    FunctionalDependency,
    chase_uwsdt,
    chase_wsd,
    uwsdt_possible_with_confidence,
)
from repro.core.algebra import evaluate_on_database, evaluate_on_uwsdt
from repro.ctables import CTable, Equality, TrueFormula, Variable, VTable, wsdt_to_ctable
from repro.relational import (
    Database,
    PLACEHOLDER,
    Relation,
    RelationSchema,
    RepresentationError,
    eq,
)
from repro.worlds import OrSet, OrSetRelation


class TestUWSDTStructure:
    def test_uniform_relations_roundtrip(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        uniform = uwsdt.to_uniform_relations()
        assert uniform["C"].schema.attributes == ("REL", "TID", "ATTR", "LWID", "VAL")
        assert uniform["F"].schema.attributes == ("REL", "TID", "ATTR", "CID")
        assert uniform["W"].schema.attributes == ("CID", "LWID", "PR")
        rebuilt = UWSDT.from_uniform_relations(
            uwsdt.schema, uwsdt.templates, uniform, probabilistic=True
        )
        rebuilt.validate()
        assert rebuilt.rep().same_distribution(uwsdt.rep())

    def test_statistics_match_paper_quantities(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        statistics = uwsdt.statistics()
        assert statistics["template_size"] == 2
        assert statistics["placeholders"] == 4
        assert statistics["components"] == 4
        assert statistics["components_gt1"] == 0
        # |C| counts (field, local world) pairs: 2 + 2 + 2 + 4.
        assert statistics["component_relation_size"] == 10
        uniform = uwsdt.to_uniform_relations()
        assert len(uniform["C"]) == statistics["component_relation_size"]

    def test_validate_detects_broken_placeholder(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        # Remove a component without fixing the template.
        cid = next(iter(uwsdt.components))
        uwsdt.remove_component(cid)
        with pytest.raises(RepresentationError):
            uwsdt.validate()

    def test_validate_detects_corrupted_placeholder_mask(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        uwsdt.validate()
        # The mask is F indexed by tuple id; corrupt it behind F's back.
        missing = uwsdt.copy()
        tuple_id = next(iter(missing.placeholder_mask("R")))
        missing._masks["R"][tuple_id].clear()
        with pytest.raises(RepresentationError, match="placeholder mask"):
            missing.validate()
        extra = uwsdt.copy()
        next(iter(extra.placeholder_mask("R").values())).add("not-a-placeholder")
        with pytest.raises(RepresentationError, match="placeholder mask"):
            extra.validate()
        stray = uwsdt.copy()
        stray._masks["R"]["no-such-tuple"] = {"S"}
        with pytest.raises(RepresentationError, match="placeholder mask"):
            stray.validate()

    def test_validate_detects_wrong_placeholder_count(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        uwsdt._placeholder_counts["R"] += 1
        with pytest.raises(RepresentationError, match="placeholder counts"):
            uwsdt.validate()

    def test_certain_world_skips_placeholder_tuples(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        assert len(uwsdt.certain_world().relation("R")) == 0  # both tuples are uncertain
        certain_only = UWSDT.from_relation(
            Relation(RelationSchema("R", ("A",)), [(1,), (2,)])
        )
        assert len(certain_only.certain_world().relation("R")) == 2

    def test_wsdt_uwsdt_conversions(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        wsdt = WSDT.from_wsd(wsd)
        uwsdt = UWSDT.from_wsdt(wsdt)
        assert uwsdt.to_wsdt().rep().same_distribution(wsdt.rep())
        assert UWSDT.from_wsd(wsd).rep().same_distribution(wsd.rep())

    def test_merge_components(self, census_forms):
        from repro.core import FieldRef

        uwsdt = UWSDT.from_orset_relation(census_forms)
        first = uwsdt.component_of(FieldRef("R", 1, "S"))
        second = uwsdt.component_of(FieldRef("R", 2, "S"))
        merged = uwsdt.merge_components([first, second])
        assert uwsdt.component_of(FieldRef("R", 1, "S")) == merged
        assert uwsdt.component_of(FieldRef("R", 2, "S")) == merged
        assert uwsdt.components[merged].arity == 2
        uwsdt.validate()

    def test_duplicate_relation_rejected(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        with pytest.raises(RepresentationError):
            uwsdt.add_relation(RelationSchema("R", ("A",)))


class TestCensusWorkload:
    def test_schema_shape(self):
        schema = census_schema()
        assert schema.arity == 50
        assert "CITIZEN" in schema.attributes and "POWSTATE" in schema.attributes
        assert len(census_attributes()) == 50

    def test_clean_data_satisfies_dependencies(self):
        generator = CensusGenerator(seed=7)
        relation = generator.clean_relation(300)
        attributes = relation.schema.attributes
        for dependency in census_dependencies():
            for row in relation:
                values = dict(zip(attributes, row))
                assert dependency.holds_for(values), (dependency, values)

    def test_noise_injection_density_and_original_value_kept(self):
        generator = CensusGenerator(seed=3)
        clean = generator.clean_relation(200)
        noisy = generator.add_noise(clean, 0.01)
        uncertain = noisy.uncertain_fields()
        expected = 200 * 50 * 0.01
        assert 0.2 * expected <= len(uncertain) <= 3 * expected
        # Every or-set contains the original (clean) value.
        for row_index, attribute in uncertain:
            original = clean.rows[row_index][clean.schema.position(attribute)]
            value = noisy.rows[row_index][noisy.schema.position(attribute)]
            assert original in value.values

    def test_generator_is_deterministic(self):
        first = CensusGenerator(seed=11).clean_relation(50)
        second = CensusGenerator(seed=11).clean_relation(50)
        assert first.row_set() == second.row_set()

    def test_queries_run_on_one_world(self):
        generator = CensusGenerator(seed=5)
        database = Database([generator.clean_relation(400)])
        for name in query_names():
            result = evaluate_on_database(CENSUS_QUERIES[name](), database, name)
            assert result.schema.name == name

    def test_query_results_on_uwsdt_contain_certain_answers(self):
        """Tuples selected from fully-certain rows must appear in the UWSDT answer."""
        instance = census_instance(300, 0.001, seed=13)
        chased = instance.chased()
        q1 = CENSUS_QUERIES["Q1"]()
        uwsdt = chased.copy()
        evaluate_on_uwsdt(q1, uwsdt, "A1")
        answer_rows = {row for row, _ in uwsdt_possible_with_confidence(uwsdt, "A1")}
        database = instance.one_world_database()
        clean_answer = evaluate_on_database(q1, database, "A1")
        # The clean world is one of the possible worlds, so every clean answer
        # tuple must be possible in the UWSDT answer.
        for row in clean_answer:
            assert row in answer_rows

    def test_chase_keeps_clean_world_possible(self):
        instance = census_instance(200, 0.002, seed=17)
        chased = instance.chased()
        assert chased.template_size("R") == 200
        # No certain violations were generated, so the chase never errors and
        # every component keeps at least one local world.
        for component in chased.components.values():
            assert component.size >= 1
            component.validate()

    def test_bench_density_labels(self):
        assert density_label(0.001) == "0.1%"
        assert density_label(0.0) == "0%"
        assert density_label(0.25) == "25%"


class TestCTables:
    def test_vtable_worlds(self):
        x = Variable("x")
        vtable = VTable(
            RelationSchema("R", ("A", "B")), [(x, 1), (2, 2)], {x: [10, 20]}
        )
        worlds = vtable.to_worldset()
        assert len(worlds) == 2
        assert worlds.possible_tuples("R") == {(10, 1), (20, 1), (2, 2)}

    def test_vtable_missing_domain(self):
        vtable = VTable(RelationSchema("R", ("A",)), [(Variable("x"),)])
        with pytest.raises(RepresentationError):
            list(vtable.valuations())

    def test_ctable_global_and_local_conditions(self):
        x, y = Variable("x"), Variable("y")
        ctable = CTable(
            RelationSchema("R", ("A", "B")),
            [(x, y), (1, 1)],
            {x: [1, 2], y: [1, 2]},
            local_conditions=[Equality(x, y), TrueFormula()],
            global_condition=Equality(x, 1, negated=True),
        )
        worlds = ctable.to_worldset()
        # x must be 2; the first tuple appears only when y = 2 as well.
        assert len(worlds) == 2
        assert worlds.possible_tuples("R") == {(2, 2), (1, 1)}

    def test_wsdt_to_ctable_equivalence(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        chase_wsd(
            wsd,
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        wsdt = WSDT.from_wsd(wsd)
        ctable = wsdt_to_ctable(wsdt, "R")
        assert ctable.to_worldset().same_worlds(wsd.rep())


class TestBaselines:
    def test_naive_query_and_clean(self, census_forms):
        from repro.core.algebra import BaseRelation

        worlds = census_forms.to_worldset()
        extended = naive.evaluate_query(worlds, BaseRelation("R").select(eq("N", "Smith")), "P")
        assert all(
            all(row[1] == "Smith" for row in world.database.relation("P"))
            for world in extended
        )
        assert naive.representation_size(worlds) == 32 * 6

    def test_orset_engine_selection_and_projection(self, census_forms):
        selected = select_constant(census_forms, eq("S", 185))
        assert len(selected) == 2
        projected = orset_project(census_forms, ["N"])
        assert projected.schema.attributes == ("N",)
        assert orset_representation_size(census_forms) == 12

    def test_orset_representability_oracle(self, census_forms):
        worlds = census_forms.to_worldset()
        assert is_representable_as_orsets(worlds, "R")
        cleaned = naive.clean(
            worlds,
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        assert not is_representable_as_orsets(cleaned, "R")

    def test_extensional_rules_match_naive(self):
        from repro.relational import RelationSchema
        from repro.worlds import TupleIndependentDatabase
        from repro.worlds.tuple_independent import TupleIndependentRelation

        relation = TupleIndependentRelation(RelationSchema("S", ("A", "B")))
        relation.insert((1, "x"), 0.5)
        relation.insert((1, "y"), 0.4)
        relation.insert((2, "z"), 0.9)
        database = TupleIndependentDatabase([relation])
        worlds = database.to_worldset()
        for key, probability in extensional.project_independent(relation, ["A"]):
            exact = sum(
                world.probability
                for world in worlds
                if any(row[0] == key[0] for row in world.database.relation("S"))
            )
            assert probability == pytest.approx(exact)


class TestApplications:
    def make_address_relation(self):
        return Relation(
            RelationSchema("Address", ("PERSON", "CITY")),
            [("alice", "Ithaca"), ("alice", "Oxford"), ("bob", "Paris")],
        )

    def test_minimal_repairs_and_answers(self):
        relation = self.make_address_relation()
        assert len(key_violation_groups(relation, ["PERSON"])) == 1
        repairs = minimal_repairs(relation, ["PERSON"])
        assert len(repairs) == 2
        assert consistent_answer(repairs, "Address") == {("bob", "Paris")}
        assert possible_answer(repairs, "Address") == set(relation.rows)

    def test_repairs_to_uwsdt_matches_enumeration(self):
        relation = self.make_address_relation()
        uwsdt = repairs_to_uwsdt(relation, ["PERSON"])
        uwsdt.validate()
        assert uwsdt.rep().same_worlds(minimal_repairs(relation, ["PERSON"]))
        assert uwsdt.component_count() == 1
        assert uwsdt.template_size() == 3

    def test_medical_scenario(self):
        scenario = MedicalScenario(
            [("flu", "a"), ("flu", "c"), ("cold", "b"), ("cold", "c")]
        )
        record = scenario.build_patient_record(
            "p1",
            observations={"FEVER": "yes"},
            candidate_clusters=[{"DIAGNOSIS": ["flu", "cold"]}],
            cluster_probabilities=[[0.7, 0.3]],
        )
        diagnoses = dict(scenario.possible_diagnoses(record))
        assert diagnoses == {"flu": pytest.approx(0.7), "cold": pytest.approx(0.3)}
        assert scenario.candidate_medications(record) == ["c"]
        assert scenario.common_medications([]) == []
        with pytest.raises(RepresentationError):
            scenario.build_patient_record(
                "p2", {}, [{"A": ["x"], "B": ["y", "z"]}]
            )

    def test_medical_scenario_requires_catalogue(self):
        with pytest.raises(RepresentationError):
            MedicalScenario([])


class TestBenchHarness:
    def test_census_instance_cached(self):
        clear_instance_cache()
        first = census_instance(100, 0.001, seed=23)
        second = census_instance(100, 0.001, seed=23)
        assert first is second
        clear_instance_cache()

    def test_component_size_experiment_shape(self):
        records = run_component_size_experiment(sizes=(200,), densities=(0.002,), seed=29)
        assert len(records) == 1
        record = records[0]
        assert record["size_1"] >= record["size_2"] >= record["size_3"]

    def test_representation_size_experiment_shows_exponential_gap(self):
        records = run_representation_size_experiment(field_counts=(2, 6, 10))
        assert [r["worlds"] for r in records] == [4, 64, 1024]
        assert all(r["wsd_values"] == r["orset_values"] for r in records)
        assert records[-1]["worldset_relation_values"] > 50 * records[-1]["wsd_values"]

    def test_format_records(self):
        text = format_records(
            [{"a": 1, "b": 0.123456}, {"a": 2, "b": 7}], ["a", "b"]
        )
        assert "a" in text and "0.1235" in text


class TestEndToEndIntegration:
    def test_tiny_census_pipeline_equivalence(self):
        """The full pipeline at tiny scale: WSD, UWSDT and the naive engine agree."""
        generator = CensusGenerator(seed=31)
        clean = generator.clean_relation(5)
        # Inject a handful of or-sets by hand (instead of random noise) so that
        # the explicit world-set stays small enough for the naive oracle and the
        # uncertainty touches attributes constrained by the dependencies.
        attributes = clean.schema.attributes
        noisy = OrSetRelation(clean.schema)
        for index, row in enumerate(clean):
            values = list(row)
            if index == 0:
                position = clean.schema.position("CITIZEN")
                values[position] = OrSet(sorted({row[position], 0, 1}))
            if index == 1:
                position = clean.schema.position("ENGLISH")
                values[position] = OrSet(sorted({row[position], 4}))
                position = clean.schema.position("MILITARY")
                values[position] = OrSet(sorted({row[position], 4}))
            if index == 2:
                position = clean.schema.position("WWII")
                values[position] = OrSet(sorted({row[position], 1, 0}))
            noisy.insert(tuple(values))
        assert noisy.world_count() <= 64
        dependencies = census_dependencies()

        uwsdt = UWSDT.from_orset_relation(noisy)
        chase_uwsdt(uwsdt, dependencies)
        wsd = WSD.from_orset_relation(noisy)
        chase_wsd(wsd, dependencies)
        reference = naive.clean(WSD.from_orset_relation(noisy).rep(), dependencies)
        assert uwsdt.rep().same_distribution(reference)
        assert wsd.rep().same_distribution(reference)

        query = CENSUS_QUERIES["Q2"]()
        answer = naive.query_answer_worlds(reference, query, "Q2")
        uwsdt_copy = uwsdt.copy()
        evaluate_on_uwsdt(query, uwsdt_copy, "Q2")
        for world in answer:
            rows = world.database.relation("Q2").row_set()
            if rows:
                possible_rows = {
                    row for row, _ in uwsdt_possible_with_confidence(uwsdt_copy, "Q2")
                }
                assert rows <= possible_rows
