"""The asyncio query service: three engines, shared plan cache, self-correction.

:class:`QueryService` owns a set of registered engines (Database / WSD /
UWSDT) and serves concurrent client sessions.  Per request it

1. fingerprints the query (:meth:`Query.fingerprint`),
2. looks the fingerprint up in the engine's
   :class:`~repro.service.plan_cache.PlanCache` — a hit (validated against
   the catalog version keys of every touched base relation) skips rewrite,
   join-order DP, sampling and lowering entirely,
3. on a miss, plans + lowers once and caches the result,
4. executes the physical plan with metrics collection, which feeds
   estimated-vs-actual cardinalities into the statistics catalog's
   semantically keyed observation store
   (:mod:`~repro.core.planner.observed`),
5. checks the replan trigger: when an entry has executed at least
   ``replan_min_executions`` times and its worst per-operator q-error still
   exceeds ``replan_qerror``, the cached plan is evicted — the *next*
   request replans against statistics that now carry the observations, so
   hot, mis-estimated queries self-correct their join orders under live
   traffic without any operator intervention.

Engine access is serialized per engine through an ``asyncio.Lock``: the
representation engines mutate themselves on every ``Q̂`` execution, so two
interleaved queries against the same WSD/UWSDT must not overlap.  Requests
against *different* engines interleave freely.  The underlying shared
structures (statistics catalog, index pool, plan cache) carry their own
thread locks besides, so even thread-offloaded work cannot corrupt them.
"""

from __future__ import annotations

import asyncio
import collections
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from ..core.exec import backend_for, lower
from ..core.exec.metrics import ExecutionMetrics
from ..core.exec.physical import PhysicalPlan
from ..core.planner.catalog import catalog_for
from ..obs.metrics import LATENCY_BUCKETS, get_registry
from ..obs.trace import get_tracer
from .plan_cache import CachedPlan, PlanCache, plan_cache_for
from .session import Session

#: Evict (and thereby replan) a cached query whose worst per-operator
#: q-error still exceeds this bound after the minimum execution count.
DEFAULT_REPLAN_QERROR = 4.0

#: Executions before the replan trigger may fire — must be at least
#: :data:`~repro.core.planner.observed.OBSERVED_MIN_COUNT`, or the replan
#: would run before the planner is allowed to consume the observations.
DEFAULT_REPLAN_MIN_EXECUTIONS = 2

#: Environment variable overriding the slow-query threshold (milliseconds).
SLOW_QUERY_ENV = "REPRO_SLOW_QUERY_MS"

#: Default slow-query threshold in seconds (a request slower than this is
#: recorded in the slow-query log).
DEFAULT_SLOW_QUERY_SECONDS = 0.25

#: Bound on retained slow-query records.
SLOW_QUERY_LOG_SIZE = 256

_slow_log = logging.getLogger("repro.service.slow")


def slow_query_threshold_from_env(default: float = DEFAULT_SLOW_QUERY_SECONDS) -> float:
    """The slow-query threshold in seconds, honoring ``REPRO_SLOW_QUERY_MS``."""
    value = os.environ.get(SLOW_QUERY_ENV, "").strip()
    if not value:
        return default
    try:
        return float(value) / 1e3
    except ValueError:
        return default


@dataclass
class SlowQuery:
    """One request that exceeded the slow-query threshold."""

    fingerprint: str
    engine: str
    seconds: float
    #: Whether the offending request was served from the plan cache.
    cached: bool
    #: Worst per-operator q-error of the request (None without estimates).
    worst_qerror: Optional[float]
    trace_id: Optional[str]
    result_name: str


@dataclass
class QueryOutcome:
    """What one service request produced."""

    fingerprint: str
    engine: str
    value: Any
    result_name: str
    #: True when the request was served from the plan cache.
    cached: bool
    #: True when this execution evicted the cached plan for replanning.
    replanned: bool
    seconds: float
    metrics: Optional[ExecutionMetrics] = None
    #: The executed physical plan (its nodes carry this run's per-operator
    #: metrics) — what ``Session.explain_analyze`` renders.
    physical: Optional[PhysicalPlan] = None
    #: Trace id of the request span (None with tracing disabled).
    trace_id: Optional[str] = None
    #: Kind of the backend that executed the request (``"database"`` /
    #: ``"wsd"`` / ``"uwsdt"``).
    backend: Optional[str] = None


@dataclass
class ServiceStats:
    """Rolled-up service telemetry (latencies in seconds)."""

    requests: int = 0
    cache_hits: int = 0
    replans: int = 0
    cold_latencies: List[float] = field(default_factory=list)
    warm_latencies: List[float] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @staticmethod
    def percentile(values: List[float], fraction: float) -> Optional[float]:
        """Nearest-rank percentile (``fraction`` in [0, 1]); None when empty."""
        if not values:
            return None
        ordered = sorted(values)
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    def latency_summary(self) -> Dict[str, Optional[float]]:
        return {
            "cold_p50": self.percentile(self.cold_latencies, 0.50),
            "warm_p50": self.percentile(self.warm_latencies, 0.50),
            "warm_p95": self.percentile(self.warm_latencies, 0.95),
            "warm_p99": self.percentile(self.warm_latencies, 0.99),
        }


class QueryService:
    """An always-on query service over registered engines."""

    def __init__(
        self,
        replan_qerror: float = DEFAULT_REPLAN_QERROR,
        replan_min_executions: int = DEFAULT_REPLAN_MIN_EXECUTIONS,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        self.engines: Dict[str, Any] = {}
        self.replan_qerror = replan_qerror
        self.replan_min_executions = replan_min_executions
        #: Requests slower than this (seconds) land in :attr:`slow_queries`;
        #: defaults to ``REPRO_SLOW_QUERY_MS`` or 250 ms.
        self.slow_query_seconds = (
            slow_query_threshold_from_env() if slow_query_seconds is None else slow_query_seconds
        )
        self.stats = ServiceStats()
        #: Bounded log of requests that exceeded the slow-query threshold.
        self.slow_queries: Deque[SlowQuery] = collections.deque(maxlen=SLOW_QUERY_LOG_SIZE)
        self._locks: Dict[str, asyncio.Lock] = {}
        self._result_counter = 0

    # ------------------------------------------------------------------ #
    # Registration and sessions
    # ------------------------------------------------------------------ #

    def register_engine(self, name: str, engine: Any) -> None:
        """Register an engine; attaches its catalog and plan cache eagerly."""
        self.engines[name] = engine
        catalog_for(engine)
        plan_cache_for(engine)

    def session(self, engine_name: str, name: Optional[str] = None) -> Session:
        """Open a client session against one registered engine."""
        if engine_name not in self.engines:
            raise KeyError(f"no engine registered under {engine_name!r}")
        return Session(self, engine_name, name)

    def plan_cache(self, engine_name: str) -> PlanCache:
        return plan_cache_for(self.engines[engine_name])

    def _lock(self, engine_name: str) -> asyncio.Lock:
        lock = self._locks.get(engine_name)
        if lock is None:
            lock = self._locks[engine_name] = asyncio.Lock()
        return lock

    def _next_result_name(self) -> str:
        # Q̂ extends representation engines in place, so every execution
        # needs a result name not already present in the schema.
        self._result_counter += 1
        return f"__svc{self._result_counter}"

    # ------------------------------------------------------------------ #
    # The request path
    # ------------------------------------------------------------------ #

    async def execute(
        self,
        engine_name: str,
        query,
        result_name: Optional[str] = None,
    ) -> QueryOutcome:
        """Serve one query: plan-cache lookup, execute, feed back, maybe evict."""
        engine = self.engines[engine_name]
        cache = plan_cache_for(engine)
        executor = backend_for(engine)
        fingerprint = query.fingerprint()
        name = result_name or self._next_result_name()
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span("request", fingerprint=fingerprint, engine=engine_name) as root:
            trace_id = root.trace_id
            wait_start = time.perf_counter()
            async with self._lock(engine_name):
                waited = time.perf_counter() - wait_start
                registry.histogram(
                    "repro.service.lock_wait_seconds", LATENCY_BUCKETS
                ).observe(waited)
                start = time.perf_counter()
                with tracer.span("cache-lookup", backend=executor.kind):
                    entry = cache.lookup(fingerprint)
                cached = entry is not None
                if entry is None:
                    entry = self._plan_and_cache(engine, cache, query, fingerprint, executor)
                with tracer.span("execute", cached=cached):
                    result = query.run(
                        engine,
                        name,
                        physical=entry.physical,
                        collect_metrics=True,
                    )
                seconds = time.perf_counter() - start
                entry.executions += 1
                metrics = result.metrics
                metrics.fingerprint = fingerprint
                metrics.trace_id = trace_id
                replanned = self._maybe_evict(cache, entry, metrics)
            root.annotate(cached=cached, seconds=seconds, replanned=replanned)

        self.stats.requests += 1
        outcome_label = "hit" if cached else "miss"
        registry.counter("repro.service.requests", cache=outcome_label).inc()
        registry.histogram(
            "repro.service.request_seconds", LATENCY_BUCKETS, cache=outcome_label
        ).observe(seconds)
        if cached:
            self.stats.cache_hits += 1
            self.stats.warm_latencies.append(seconds)
        else:
            self.stats.cold_latencies.append(seconds)
        if replanned:
            self.stats.replans += 1
            registry.counter("repro.service.replans").inc()
        self._record_if_slow(fingerprint, engine_name, seconds, cached, metrics, trace_id, name)
        return QueryOutcome(
            fingerprint=fingerprint,
            engine=engine_name,
            value=result.value,
            result_name=name,
            cached=cached,
            replanned=replanned,
            seconds=seconds,
            metrics=metrics,
            physical=result.physical,
            trace_id=trace_id,
            backend=executor.kind,
        )

    def _record_if_slow(
        self,
        fingerprint: str,
        engine_name: str,
        seconds: float,
        cached: bool,
        metrics: ExecutionMetrics,
        trace_id: Optional[str],
        result_name: str,
    ) -> None:
        """Append to the slow-query log when the request crossed the threshold."""
        if self.slow_query_seconds is None or seconds < self.slow_query_seconds:
            return
        record = SlowQuery(
            fingerprint=fingerprint,
            engine=engine_name,
            seconds=seconds,
            cached=cached,
            worst_qerror=metrics.max_cardinality_error(),
            trace_id=trace_id,
            result_name=result_name,
        )
        self.slow_queries.append(record)
        get_registry().counter("repro.service.slow_queries").inc()
        _slow_log.warning(
            "slow query %s on %s: %.1f ms (%s, worst q-error %s, trace %s)",
            fingerprint,
            engine_name,
            seconds * 1e3,
            "cache hit" if cached else "cache miss",
            f"{record.worst_qerror:.2f}" if record.worst_qerror is not None else "n/a",
            trace_id or "-",
        )

    def _plan_and_cache(
        self,
        engine: Any,
        cache: PlanCache,
        query,
        fingerprint: str,
        backend,
    ) -> CachedPlan:
        plan = query.plan(engine)
        physical = lower(plan.chosen, backend, plan.statistics)
        return cache.store(fingerprint, plan, physical)

    def _maybe_evict(
        self, cache: PlanCache, entry: CachedPlan, metrics: ExecutionMetrics
    ) -> bool:
        """Evict a cached plan whose estimates stay badly wrong.

        Eviction (not in-place replanning) keeps the request path simple:
        the next request for this fingerprint replans against statistics
        that now include the recorded observations, and caches the
        corrected plan.
        """
        if entry.executions < self.replan_min_executions:
            return False
        error = metrics.max_cardinality_error()
        if error is None or error < self.replan_qerror:
            return False
        cache.invalidate(entry.fingerprint, reason="replan")
        return True

    # ------------------------------------------------------------------ #
    # Telemetry exposition
    # ------------------------------------------------------------------ #

    def stats_snapshot(self) -> Dict[str, Any]:
        """One JSON-ready snapshot of everything the service knows about
        itself: request/latency stats, per-engine plan-cache counters, the
        slow-query log, and the process-wide metrics registry."""
        caches = {}
        for name, engine in self.engines.items():
            cache = plan_cache_for(engine)
            caches[name] = {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "invalidations": cache.invalidations,
            }
        return {
            "requests": self.stats.requests,
            "cache_hits": self.stats.cache_hits,
            "hit_rate": self.stats.hit_rate,
            "replans": self.stats.replans,
            "latency_seconds": self.stats.latency_summary(),
            "plan_caches": caches,
            "slow_queries": [
                {
                    "fingerprint": record.fingerprint,
                    "engine": record.engine,
                    "seconds": record.seconds,
                    "cached": record.cached,
                    "worst_qerror": record.worst_qerror,
                    "trace_id": record.trace_id,
                }
                for record in self.slow_queries
            ],
            "registry": get_registry().snapshot(),
        }

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the process-wide registry."""
        return get_registry().to_prometheus_text()

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    async def mutate(self, engine_name: str, mutator: Callable[[Any], Any]) -> Any:
        """Apply ``mutator(engine)`` under the engine lock.

        No explicit cache bookkeeping is needed: any mutation that can
        affect results moves the touched relations' version keys, which the
        plan cache and the statistics catalog both poll.
        """
        engine = self.engines[engine_name]
        async with self._lock(engine_name):
            return mutator(engine)

    def __repr__(self) -> str:
        return (
            f"QueryService({sorted(self.engines)}, {self.stats.requests} requests, "
            f"hit rate {self.stats.hit_rate:.0%})"
        )
