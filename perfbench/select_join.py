"""``fig30-select`` and ``join-chain``: one client, a closed loop of requests.

Each request plans against the long-lived chased master instance (so
planning is warm and executed-cardinality feedback persists), lowers and
executes on a fresh ``UWSDT.copy()`` of it, feeds the observed
cardinalities back into the master's catalog and computes the answers with
their confidences.  Every UWSDT request is followed by the same query on
the one-world ``Database``.  The copies keep the representation from
growing from one request to the next.
"""

from __future__ import annotations

import asyncio
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.exec as exec_module
from repro.census import (
    CENSUS_QUERIES,
    q5,
    q5_product_form,
    q6,
    q6_self_join_product_form,
    q_four_way_join,
)
from repro.core.algebra.query import Query, evaluate_on_database
from repro.core.planner import catalog_for
from repro.core.planner.sampling import sampling_call_count
from repro.obs.trace import get_tracer
from repro.service import QueryService

import common
import instrument

#: Rounds of the query set run during set-up, before the timed window: the
#: first plans cold and samples, the second already sees feedback.
WARMUP_ROUNDS = 2

#: A timed window runs at least this many rounds whatever ``--seconds`` says.
MIN_ROUNDS = 3


def q6_self_join() -> Query:
    """The join form of :func:`q6_self_join_product_form` (its reference)."""
    left = q6().rename("POWSTATE", "W1").rename("POB", "B1")
    right = q6().rename("POWSTATE", "W2").rename("POB", "B2")
    return left.join(right, "B1", "W2")


@dataclass(frozen=True)
class Spec:
    """One request-on-a-copy workload."""

    rows: int
    #: Query name -> factory of the AST the requests run.
    queries: Dict[str, Callable[[], Query]]
    #: Query name -> factory of the join-form AST whose unplanned
    #: evaluation is the reference answer.
    references: Dict[str, Callable[[], Query]]
    #: Whether the or-set noise comes from the workload seed (else from
    #: ``common.CENSUS_SEED``, with the seed driving the request order only).
    noise_from_seed: bool
    #: Rounds of the query set per second of ``--seconds`` in the traced
    #: run, whose windows are bounded by count so its counts repeat.
    traced_rounds_per_second: float


SPECS: Dict[str, Spec] = {
    "fig30-select": Spec(
        rows=5000,
        queries=dict(CENSUS_QUERIES),
        references=dict(CENSUS_QUERIES),
        noise_from_seed=True,
        traced_rounds_per_second=1.5,
    ),
    "join-chain": Spec(
        rows=3000,
        queries={
            "four_way": q_four_way_join,
            "q6_self_join": q6_self_join_product_form,
            "q5_product": q5_product_form,
        },
        references={"four_way": q_four_way_join, "q6_self_join": q6_self_join, "q5_product": q5},
        noise_from_seed=False,
        traced_rounds_per_second=0.6,
    ),
}


@dataclass
class Request:
    query: str
    seconds: float
    oneworld_seconds: float
    #: Index of the speed probe taken right before the request.
    probe: int
    answers: str
    oneworld_answers: str
    size_before: int
    size_after: int


class Episode:
    """A set-up master instance and the requests served against it."""

    def __init__(
        self,
        spec: Spec,
        seed: int,
        rows: Optional[int] = None,
        probe: Optional[common.SpeedProbe] = None,
    ) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.requests: List[Request] = []
        self.errors = 0
        self.counters = common.ReprCounters()
        self.probe = probe or common.SpeedProbe()
        #: Index of the speed probe taken right before the set-up.
        self.setup_probe = self.probe.measure()
        start = time.perf_counter()
        with get_tracer().span("bench.setup"):
            noise_seed = seed if spec.noise_from_seed else common.CENSUS_SEED
            self.instance = common.Instance(rows or spec.rows, noise_seed)
            self.master = self.instance.uwsdt
            self.database = self.instance.database
            catalog_for(self.master)
            catalog_for(self.database)
            for _ in range(WARMUP_ROUNDS):
                self.run_round(record=False)
        self.setup_seconds = time.perf_counter() - start
        self.probe.measure()

    def run_round(self, record: bool = True) -> None:
        names = list(self.spec.queries)
        for name in self.rng.sample(names, len(names)):
            self.request(name, record)

    def serve_rounds(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def serve_for(self, seconds: float) -> None:
        """Run whole rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``)."""
        deadline = time.perf_counter() + seconds
        self.serve_rounds(MIN_ROUNDS)
        while time.perf_counter() < deadline:
            self.run_round()

    def request(self, name: str, record: bool) -> None:
        query = self.spec.queries[name]()
        copy = self.master.copy()
        before = self.counters.snapshot(copy)
        size_before = common.representation_size(copy)
        probe = self.probe.measure() if record else -1
        try:
            start = time.perf_counter()
            with get_tracer().span("bench.request", query=name):
                plan = query.plan(self.master)
                backend = exec_module.resolve_backend(copy)
                physical = exec_module.lower(plan.chosen, backend, plan.statistics)
                result = physical.execute(backend, common.RESULT)
                exec_module.record_into_catalog(self.master, physical.metrics())
                ranked = common.confidence_module.uwsdt_possible_with_confidence(copy, result)
            seconds = time.perf_counter() - start
            start = time.perf_counter()
            relation = common.oneworld_request(query, self.database)
            oneworld_seconds = time.perf_counter() - start
        except Exception:  # a failed request is counted, and the run goes on
            self.errors += 1
            if self.errors == 1:
                traceback.print_exc(file=sys.stderr)
            return
        if not record:
            return
        self.counters.add(before, copy)
        self.requests.append(
            Request(
                name,
                seconds,
                oneworld_seconds,
                probe,
                common.digest(common.normalized(ranked)),
                common.oneworld_answers(relation),
                size_before,
                common.representation_size(copy),
            )
        )

    def wrong_answers(self) -> int:
        """Requests whose answers differ from the unplanned references."""
        expected: Dict[str, Tuple[str, str]] = {}
        for name, reference in self.spec.references.items():
            expected[name] = (
                common.reference_answers(reference(), self.master),
                common.oneworld_answers(evaluate_on_database(reference(), self.database)),
            )
        wrong = 0
        for request in self.requests:
            uwsdt, oneworld = expected[request.query]
            wrong += (request.answers != uwsdt) + (request.oneworld_answers != oneworld)
        return wrong


def run_timed(
    workload: str, seed: int, seconds: float, setups: int, rows: Optional[int] = None
) -> "common.Result":
    spec = SPECS[workload]
    probe = common.SpeedProbe()
    setup_seconds = []
    for _ in range(setups):
        episode = Episode(spec, seed, rows, probe)
        setup_seconds.append(episode.setup_seconds * probe.factor_at(episode.setup_probe))
    common.collect_setup_garbage()
    episode.serve_for(seconds)
    rss = common.peak_rss_mb()
    requests = episode.requests
    raw = [request.seconds for request in requests]
    latencies = [request.seconds * probe.factor_at(request.probe) for request in requests]
    pairs = [(request.query, request.seconds, request.oneworld_seconds) for request in requests]
    attempted = 2 * (len(requests) + episode.errors)
    failed = 2 * episode.errors + episode.wrong_answers()
    metrics = common.latency_metrics(setup_seconds, latencies, _throughput(episode))
    metrics.update(
        {
            "uwsdt_vs_oneworld": (common.uwsdt_vs_oneworld(pairs), "ratio"),
            "latency_drift": (common.drift(pairs), "ratio"),
            "repr_bloat": (
                sum(r.size_after for r in requests) / sum(r.size_before for r in requests),
                "ratio",
            ),
            "peak_rss_mb": (rss, "MB"),
            "correct_frac": (1.0 - failed / attempted, "ratio"),
        }
    )
    p99_ms = common.percentile(latencies, 0.99) * 1e3
    return common.Result(attempted, failed, metrics, raw, probe.seconds, p99_ms)


async def _service_probe(episode: Episode) -> QueryService:
    """Serve the workload's queries through a ``QueryService`` session.

    Each query runs twice (a plan-cache miss, then a hit); one write then
    moves R's version key and every query runs once more (invalidation and
    replanning).  The traced run reports the ``service.*`` layer from it.
    """
    service = QueryService()
    service.register_engine("census", episode.master.copy())
    session = service.session("census")
    for factory in episode.spec.queries.values():
        await common.service_read(session, factory())
        await common.service_read(session, factory())
    (record,) = common.write_records(common.CENSUS_SEED, 1)
    await session.mutate(lambda engine: common.apply_write(engine, record))
    for factory in episode.spec.queries.values():
        await common.service_read(session, factory())
    return service


def run_traced(
    workload: str, seed: int, seconds: float, rows: Optional[int] = None
) -> "common.Result":
    spec = SPECS[workload]
    rounds = max(1, round(spec.traced_rounds_per_second * seconds / 2))
    untraced = Episode(spec, seed, rows)
    untraced.serve_rounds(rounds)
    with instrument.instrumented():
        sampling_before = sampling_call_count()
        traced = Episode(spec, seed, rows)
        window_start = time.perf_counter()
        traced.serve_rounds(rounds)
        sampling_calls = sampling_call_count() - sampling_before
        probe_start = time.perf_counter()
        lock_before = common.lock_wait()
        service = asyncio.run(_service_probe(traced))
        lock_after = common.lock_wait()
    spans = get_tracer().finished_spans()
    window = [span for span in spans if window_start <= span.start < probe_start]
    probe = [span for span in spans if span.start >= probe_start]
    metrics = common.setup_layer_metrics(traced.instance)
    metrics["planner.sampling_calls"] = (sampling_calls, "count")
    metrics.update(instrument.layer_metrics(window, probe, spans))
    metrics.update(traced.counters.metrics())
    metrics.update(common.service_layer_metrics(service, lock_before, lock_after))
    metrics["trace.overhead"] = (_throughput(traced) / _throughput(untraced), "ratio")
    attempted = 2 * (len(traced.requests) + traced.errors)
    failed = 2 * traced.errors + traced.wrong_answers()
    raw = [request.seconds for request in traced.requests]
    return common.Result(attempted, failed, metrics, raw, traced.probe.seconds)


def _throughput(episode: Episode) -> float:
    """UWSDT requests per second of their summed, speed-scaled latency."""
    factor_at = episode.probe.factor_at
    busy = sum(request.seconds * factor_at(request.probe) for request in episode.requests)
    return len(episode.requests) / busy
