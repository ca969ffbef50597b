"""Plan-cache correctness: fingerprints, version-key invalidation, oracles.

The service's :class:`~repro.service.plan_cache.PlanCache` memoizes the
whole planning pipeline (rewrite + join-order DP + sampling + lowering)
keyed by the query fingerprint and validated against the catalog version
keys of every touched base relation.  The contract under test:

* equal query text ⇒ equal fingerprint ⇒ cache hit with **zero** sampling
  and **zero** planner invocations,
* any mutation of a touched base relation (insert / remove / template
  insert / chase) invalidates exactly the entries that touch it,
* a cache *hit* never changes results: executing the cached physical plan
  matches a freshly planned run on all three engines — fuzzed against the
  possible-worlds oracle on the UWSDT.
"""

import asyncio
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation
from repro.core.chase import chase_uwsdt
from repro.core.exec import backend_for, lower
from repro.relational.errors import QueryError
from repro.core.planner import plan_call_count, sampling_call_count
from repro.core.planner.catalog import catalog_for
from repro.relational import Database, InconsistentWorldSetError, Relation, RelationSchema
from repro.relational.predicates import AttrAttr, AttrConst
from repro.service import plan_cache_for
from repro.worlds import OrSet, OrSetRelation

from _fixtures import assert_same_result_distribution, budgeted_orset_relations
from test_catalog_chase_fuzz import _query_pool
from test_planner_oracle import ORACLE_SCHEMAS, chase_dependencies


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "RV")), [(i % 5, i) for i in range(40)])
    s = Relation(RelationSchema("S", ("B", "C")), [(i % 5, i % 7) for i in range(40)])
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 7, i) for i in range(40)])
    return Database([r, s, t])


def small_orset_relations():
    relations = []
    for name, attributes in ORACLE_SCHEMAS:
        schema = RelationSchema(name, attributes)
        relation = OrSetRelation(schema)
        relation.insert((1, OrSet([1, 2]), 3) if name == "R" else (1, 2, 3))
        relation.insert((2, 0, 1))
        relations.append(relation)
    return relations


def populate(cache, query, engine):
    """Plan + lower + store, as the service's miss path does."""
    plan = query.plan(engine)
    physical = lower(plan.chosen, backend_for(engine), plan.statistics)
    return cache.store(query.fingerprint(), plan, physical)


class TestFingerprints:
    def test_equal_queries_share_fingerprint(self):
        first = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        second = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        assert first is not second
        assert first.fingerprint() == second.fingerprint()

    def test_different_queries_differ(self):
        base = BaseRelation("R").select(AttrConst("A", "=", 1))
        other_constant = BaseRelation("R").select(AttrConst("A", "=", 2))
        other_shape = BaseRelation("R").select(AttrAttr("A", "=", "RV"))
        prints = {q.fingerprint() for q in (base, other_constant, other_shape)}
        assert len(prints) == 3


class TestDatabaseInvalidation:
    def test_hit_skips_sampling_and_planning(self):
        database = small_database()
        cache = plan_cache_for(database)
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        entry = populate(cache, query, database)

        plans_before = plan_call_count()
        samples_before = sampling_call_count()
        hit = cache.lookup(query.fingerprint())
        assert hit is entry
        result = query.run(database, physical=hit.physical)
        assert plan_call_count() == plans_before
        assert sampling_call_count() == samples_before
        assert sorted(result) == sorted(query.run(database, optimize=False))
        assert cache.hits == 1 and cache.misses == 0

    def test_insert_invalidates_exactly_the_touched_entries(self):
        database = small_database()
        cache = plan_cache_for(database)
        joined = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        lone = BaseRelation("T").select(AttrConst("D", "=", 3))
        populate(cache, joined, database)
        populate(cache, lone, database)

        database.relation("R").insert((4, 999))
        assert cache.lookup(joined.fingerprint()) is None
        assert cache.lookup(lone.fingerprint()) is not None
        assert cache.invalidations == 1

    def test_remove_invalidates(self):
        database = small_database()
        cache = plan_cache_for(database)
        lone = BaseRelation("T").select(AttrConst("D", "=", 3))
        populate(cache, lone, database)
        database.relation("T").remove((0, 0))
        assert cache.lookup(lone.fingerprint()) is None

    def test_refreshed_entry_serves_again(self):
        database = small_database()
        cache = plan_cache_for(database)
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        populate(cache, query, database)
        database.relation("R").insert((4, 998))
        assert cache.lookup(query.fingerprint()) is None
        refreshed = populate(cache, query, database)
        assert cache.lookup(query.fingerprint()) is refreshed
        result = query.run(database, physical=refreshed.physical)
        assert sorted(result) == sorted(query.run(database, optimize=False))


class TestRepresentationEngines:
    def test_uwsdt_template_insert_invalidates(self):
        uwsdt = UWSDT.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(uwsdt)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        populate(cache, query, uwsdt)
        assert cache.lookup(query.fingerprint()) is not None

        uwsdt.add_template_tuple("R", "fresh", (7, 7, 7))
        assert cache.lookup(query.fingerprint()) is None

    def test_uwsdt_cached_physical_matches_cold_plan(self):
        uwsdt = UWSDT.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(uwsdt)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        entry = populate(cache, query, uwsdt)

        warm_copy = uwsdt.copy()
        query.run(warm_copy, "P", physical=entry.physical)
        cold_copy = uwsdt.copy()
        query.run(cold_copy, "P", optimize=False)
        assert_same_result_distribution(warm_copy.rep(), cold_copy.rep(), "P")

    def test_wsd_cache_is_conservative(self):
        # Every Q̂ run extends the WSD and bumps its revision — the version
        # key the cache snapshots — so WSD entries never outlive an
        # execution.  Always-miss is the documented conservative behavior.
        wsd = WSD.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(wsd)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        entry = populate(cache, query, wsd)
        assert cache.lookup(query.fingerprint()) is entry

        query.run(wsd, "P1", physical=entry.physical)
        assert cache.lookup(query.fingerprint()) is None
        assert cache.invalidations == 1

    def test_wsd_cached_physical_matches_cold_plan(self):
        wsd = WSD.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(wsd)
        query = BaseRelation("S").product(BaseRelation("T")).select(AttrAttr("B0", "=", "C0"))
        entry = populate(cache, query, wsd)

        warm_copy = wsd.copy()
        query.run(warm_copy, "P", physical=entry.physical)
        cold_copy = wsd.copy()
        query.run(cold_copy, "P", optimize=False)
        assert_same_result_distribution(warm_copy.rep(), cold_copy.rep(), "P")


class TestBackendKeying:
    """A cache belongs to one engine and keys its entries by fingerprint
    alone; every plan it holds was lowered for that engine's one backend,
    and a plan handed to another engine kind's backend refuses to run."""

    def test_executing_a_plan_on_the_wrong_backend_raises(self):
        database = small_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        plan = query.plan(database)
        database_physical = lower(plan.chosen, backend_for(database), plan.statistics)
        uwsdt = UWSDT.from_orset_relations(small_orset_relations())
        with pytest.raises(QueryError, match="cannot run on a 'uwsdt' backend"):
            database_physical.execute(backend_for(uwsdt), "mismatch")

    def test_invalidate_pops_only_that_fingerprint(self):
        database = small_database()
        cache = plan_cache_for(database)
        join = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        scan = BaseRelation("T").select(AttrConst("D", "=", 1))
        populate(cache, join, database)
        scan_entry = populate(cache, scan, database)

        cache.invalidate(join.fingerprint(), reason="replan")
        assert cache.lookup(join.fingerprint()) is None
        assert cache.lookup(scan.fingerprint()) is scan_entry

    def test_service_keys_cache_entries_by_fingerprint(self):
        from repro.service import QueryService

        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            session = service.session("database")
            query = BaseRelation("R").join(BaseRelation("S"), "A", "B")

            first = await session.execute(query)
            second = await session.execute(query)
            assert not first.cached and second.cached
            assert first.backend == second.backend == "database"
            assert sorted(first.value) == sorted(second.value)
            assert len(service.plan_cache("database")) == 1

        asyncio.run(scenario())


operations = st.lists(
    st.sampled_from(["chase", "insert", "remove", "run", "run"]),
    min_size=1,
    max_size=5,
)


class TestPlanCacheChaseFuzz:
    """The chase-fuzz machinery, retargeted at the plan cache.

    Invariant: whatever interleaving of chases and template mutations the
    engine went through, a cache *hit* executes to the same possible-worlds
    distribution as a cold fresh plan — i.e. version-key validation never
    serves a stale physical plan.
    """

    @given(
        relations=budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=3),
        ops=operations,
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_hits_never_serve_stale_plans(self, relations, ops, data):
        warm = UWSDT.from_orset_relations(relations)
        cache = plan_cache_for(warm)
        counter = itertools.count()
        executed_any_run = False

        for op in list(ops) + ["run"]:
            if op == "chase":
                dependency = data.draw(chase_dependencies())
                try:
                    chase_uwsdt(warm, [dependency])
                except InconsistentWorldSetError:
                    assume(False)
                warm.validate()
            elif op == "insert":
                warm.add_template_tuple("R", f"fuzz{next(counter)}", (1, 2, 3))
            elif op == "remove":
                template = warm.templates["R"]
                row = next(
                    (
                        row
                        for row in template
                        if not any(
                            field.tuple_id == row[0]
                            for field in warm.field_to_cid
                            if field.relation == "R"
                        )
                    ),
                    None,
                )
                if row is not None:
                    template.remove(row)
            else:
                executed_any_run = True
                query = data.draw(st.sampled_from(_query_pool()))
                entry = cache.lookup(query.fingerprint())
                served_from_cache = entry is not None
                if entry is None:
                    entry = populate(cache, query, warm)

                warm_copy = warm.copy()
                query.run(warm_copy, "P", physical=entry.physical)
                warm_copy.validate()
                cold_copy = warm.copy()
                query.run(cold_copy, "P", optimize=False)
                assert_same_result_distribution(warm_copy.rep(), cold_copy.rep(), "P")

                if served_from_cache:
                    # A hit must have been validated against live version
                    # keys, so an immediate lookup hits again.
                    assert cache.lookup(query.fingerprint()) is entry

        assert executed_any_run
