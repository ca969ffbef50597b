"""Shared pieces of the benchmark: inputs, answers, statistics, machine speed.

Everything the program under test receives is generated here: the noisy
census UWSDT, its one-world twin and the records the service workload
writes.  The program's layers are only ever called through their public
functions.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import random
import resource
import time
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.census import CENSUS_RELATION, CensusGenerator, census_dependencies
from repro.census.schema import NAMED_ATTRIBUTES, attribute_domains
from repro.core import chase as chase_module
from repro.core import exec as exec_module
from repro.core.component import Component
from repro.core.fields import FieldRef
from repro.core.uwsdt import UWSDT
from repro.obs.metrics import LATENCY_BUCKETS, get_registry
from repro.obs.trace import get_tracer
from repro.relational.database import Database
from repro.relational.values import PLACEHOLDER

#: ``repro.core`` re-exports a ``confidence`` function under this module's
#: name, so the module is looked up explicitly.
confidence_module = importlib.import_module("repro.core.confidence")

#: Seed of the clean census extract.  It is part of the workload definition,
#: as the paper's one IPUMS extract is; the workload seed drives the request
#: stream on top of it (and in ``fig30-select`` the or-set noise).  42 is the
#: seed ``repro.bench.census_instance`` uses by default.
CENSUS_SEED = 42

#: Placeholder density of every workload (the paper's 0.1 %).
DENSITY = 0.001

#: Digits kept of a confidence when answers are compared.
CONFIDENCE_DIGITS = 9

#: Result name of every benchmark request on a per-request engine copy.
RESULT = "result"


class Instance:
    """One chased census UWSDT plus the clean relation as a one-world database."""

    def __init__(self, rows: int, noise_seed: int) -> None:
        self.rows = rows
        self.noise_seed = noise_seed
        start = time.perf_counter()
        with get_tracer().span("bench.generate"):
            clean = CensusGenerator(CENSUS_SEED).clean_relation(rows)
            noisy = CensusGenerator(noise_seed).add_noise(clean, DENSITY)
            self.uwsdt = UWSDT.from_orset_relation(noisy)
        self.generate_seconds = time.perf_counter() - start
        start = time.perf_counter()
        chase_module.chase_uwsdt(self.uwsdt, census_dependencies())
        self.chase_seconds = time.perf_counter() - start
        self.components = self.uwsdt.component_count()
        self.database = Database([clean.copy(CENSUS_RELATION)])


def representation_size(uwsdt: UWSDT) -> int:
    """Template rows plus component rows: the size ``repr_bloat`` compares."""
    return uwsdt.template_size() + uwsdt.component_relation_size()


class ReprCounters:
    """Representation growth summed over requests (the ``uwsdt.*`` counts)."""

    def __init__(self) -> None:
        self.template_rows_written = 0
        self.placeholders_added = 0
        self.component_rows_added = 0
        self.max_component_fields = 0
        self.relations = 0

    @staticmethod
    def snapshot(uwsdt: UWSDT) -> Tuple[int, int, int]:
        return uwsdt.template_size(), uwsdt.placeholder_count(), uwsdt.component_relation_size()

    def add(self, before: Tuple[int, int, int], uwsdt: UWSDT) -> None:
        after = self.snapshot(uwsdt)
        self.template_rows_written += after[0] - before[0]
        self.placeholders_added += after[1] - before[1]
        self.component_rows_added += after[2] - before[2]
        self.max_component_fields = max(
            self.max_component_fields, max(uwsdt.component_size_distribution(), default=0)
        )
        self.relations = max(self.relations, len(uwsdt.templates))

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        return {
            "uwsdt.template_rows_written": (self.template_rows_written, "count"),
            "uwsdt.placeholders_added": (self.placeholders_added, "count"),
            "uwsdt.component_rows_added": (self.component_rows_added, "count"),
            "uwsdt.max_component_fields": (self.max_component_fields, "count"),
            "uwsdt.relations": (self.relations, "count"),
        }


# --------------------------------------------------------------------------- #
# Answers
# --------------------------------------------------------------------------- #


def normalized(ranked: Sequence[Tuple[Tuple[Any, ...], float]]) -> List[Tuple[Any, ...]]:
    """Sorted ``(tuple, confidence)`` pairs, confidences rounded for comparison."""
    return sorted((tuple(row), round(conf, CONFIDENCE_DIGITS)) for row, conf in ranked)


def digest(answers: Any) -> str:
    """A stable fingerprint of a normalized answer."""
    return hashlib.sha1(repr(answers).encode("utf-8")).hexdigest()


def oneworld_answers(relation: Any) -> str:
    """Digest of a one-world result relation's tuples."""
    return digest(sorted(tuple(row) for row in relation))


def oneworld_request(query: Any, database: Database) -> Any:
    """Plan, lower, execute and feed back ``query`` on the one-world database."""
    with get_tracer().span("bench.oneworld"):
        plan = query.plan(database)
        backend = exec_module.resolve_backend(database)
        physical = exec_module.lower(plan.chosen, backend, plan.statistics)
        relation = physical.execute(backend, RESULT)
        exec_module.record_into_catalog(database, physical.metrics())
    return relation


async def service_read(session: Any, query: Any) -> List[Tuple[Tuple[Any, ...], float]]:
    """One service read: ``Session.execute``, then the answers with confidences."""
    with get_tracer().span("bench.request"):
        outcome = await session.execute(query)
        return confidence_module.uwsdt_possible_with_confidence(
            session.engine, outcome.result_name
        )


def reference_answers(query: Any, master: UWSDT) -> str:
    """Digest of the unplanned evaluation of ``query`` on a copy of ``master``."""
    scratch = master.copy()
    name = query.run(scratch, RESULT, optimize=False)
    return digest(normalized(confidence_module.uwsdt_possible_with_confidence(scratch, name)))


# --------------------------------------------------------------------------- #
# Writes of the service workload
# --------------------------------------------------------------------------- #

#: Tuple ids of inserted records start above any generated row's id.
WRITE_TID_BASE = 1_000_000


def write_records(seed: int, count: int) -> List[Tuple[int, Tuple[Any, ...], str, List[int]]]:
    """``count`` new noisy census records: one or-set field each.

    A record is ``(tuple id, template values, uncertain attribute,
    alternatives)``; the alternatives always include the drawn value.
    """
    generator = CensusGenerator(seed)
    rng = random.Random(seed)
    attributes = generator.attributes
    domains = attribute_domains()
    queried = [name for name, _ in NAMED_ATTRIBUTES]
    records = []
    for index in range(count):
        row = list(generator.generate_row())
        attribute = rng.choice(queried)
        position = attributes.index(attribute)
        size = rng.randint(2, min(8, domains[attribute]))
        alternatives = {row[position]}
        while len(alternatives) < size:
            alternatives.add(rng.randrange(domains[attribute]))
        row[position] = PLACEHOLDER
        records.append((WRITE_TID_BASE + index, tuple(row), attribute, sorted(alternatives)))
    return records


def apply_write(uwsdt: UWSDT, record: Tuple[int, Tuple[Any, ...], str, List[int]]) -> None:
    """Insert one record: a template tuple plus a uniform one-field component."""
    tuple_id, values, attribute, alternatives = record
    uwsdt.add_template_tuple(CENSUS_RELATION, tuple_id, values)
    uwsdt.new_component(Component.uniform(FieldRef(CENSUS_RELATION, tuple_id, attribute), alternatives))


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def uwsdt_vs_oneworld(samples: Sequence[Tuple[str, float, float]]) -> float:
    """Fig. 30's ratio: UWSDT latency over one-world latency, over the query set.

    ``samples`` are ``(query, UWSDT latency, one-world latency)`` triples,
    the one-world request timed right after the UWSDT one.  Per query, the
    median of the ratio of each pair is weighted by the query's median
    one-world latency: that is the sum of the median UWSDT latencies over
    the sum of the median one-world latencies whenever a query's ratio is
    steady.  Taking the ratio pair by pair cancels the machine's speed at
    that moment, which moves small one-world requests and large UWSDT ones
    by different amounts.
    """
    ratios: Dict[str, List[float]] = {}
    oneworlds: Dict[str, List[float]] = {}
    for query, uwsdt, oneworld in samples:
        ratios.setdefault(query, []).append(uwsdt / oneworld)
        oneworlds.setdefault(query, []).append(oneworld)
    weights = {query: median(values) for query, values in oneworlds.items()}
    weighted = sum(median(ratios[query]) * weight for query, weight in weights.items())
    return weighted / sum(weights.values())


def drift(samples: Sequence[Tuple[str, float, float]], share: float = 1 / 3) -> float:
    """How much slower UWSDT requests run at the end of a window than at its start.

    ``samples`` are ``(query, UWSDT latency, one-world latency)`` triples in
    the order they ran, the one-world request timed right after the UWSDT
    one.  The one-world database never changes, so dividing by it cancels
    the machine's own speed changes.  Per query, the median of that ratio
    over the last ``share`` of the window is divided by its median over the
    first ``share``; the result is the geometric mean over queries.
    """
    width = max(1, int(len(samples) * share))

    def ratios(part: Sequence[Tuple[str, float, float]]) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for query, uwsdt, oneworld in part:
            grouped.setdefault(query, []).append(uwsdt / oneworld)
        return grouped

    first, last = ratios(samples[:width]), ratios(samples[-width:])
    queries = sorted(first.keys() & last.keys())
    logs = [math.log(median(last[q]) / median(first[q])) for q in queries]
    return math.exp(sum(logs) / len(logs))


def collect_setup_garbage() -> None:
    """Collect what the earlier set-ups of a run left behind.

    Only the last set-up serves the window; the instances of the others
    are cyclic garbage, and without this the collector would free them at
    some point inside the window and time it as a request.
    """
    gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Machine speed
# --------------------------------------------------------------------------- #

#: Seconds :func:`_probe_kernel` takes on the reference machine (a 2-CPU
#: 2.1 GHz VM, Python 3.11).  End-to-end times are reported at that speed.
REFERENCE_PROBE_SECONDS = 0.0018


def _probe_kernel() -> int:
    """A fixed slice of tuple, dict and sort work, independent of the program."""
    rows = [(i % 97, i, (i * 7) % 13) for i in range(1500)]
    index: Dict[int, List[Tuple[int, int, int]]] = {}
    for row in rows:
        index.setdefault(row[0], []).append(row)
    joined = [left + right for left in rows[:150] for right in index[left[2]]]
    return len(sorted(set(joined), key=lambda row: (row[2], row[0])))


class SpeedProbe:
    """The machine's speed, measured between requests.

    On a shared machine the speed of the same code swings by a third from
    one second to the next.  Every end-to-end time is put on the reference
    machine's clock by multiplying it with a factor: the reference probe
    time over the median probe time around it.  A request is scaled by the
    median of the ``SMOOTHING`` probes before it and the ``SMOOTHING``
    after it, as a single probe jitters too much to stand for one request;
    a set-up is scaled the same way.  The probe runs with the cyclic
    collector paused, so the program's heap does not slow it.
    """

    SMOOTHING = 3

    def __init__(self) -> None:
        self.seconds: List[float] = []

    def measure(self) -> int:
        """Probe once; returns the probe's index, which requests refer to."""
        best = float("inf")
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                _probe_kernel()
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.seconds.append(best)
        return len(self.seconds) - 1

    def factor_at(self, index: int) -> float:
        """The factor of a request (or set-up) timed right after probe ``index``."""
        around = self.seconds[max(0, index - self.SMOOTHING + 1) : index + self.SMOOTHING + 1]
        return REFERENCE_PROBE_SECONDS / median(around)


# --------------------------------------------------------------------------- #
# Results and layer metrics shared by the workloads
# --------------------------------------------------------------------------- #

Metrics = Dict[str, Tuple[float, str]]


class Result:
    """What one benchmark run reports."""

    def __init__(
        self,
        attempted: int,
        failed: int,
        metrics: Metrics,
        raw_latencies: Sequence[float],
        probe_seconds: Sequence[float],
        p99_ms: Optional[float] = None,
    ) -> None:
        self.attempted = attempted
        self.failed = failed
        self.metrics = metrics
        #: Unscaled request latencies behind the percentiles, in seconds.
        self.raw_latencies = list(raw_latencies)
        #: The speed probe's measurements during the run, in seconds.
        self.probe_seconds = list(probe_seconds)
        #: Speed-scaled p99 latency of a timed run: printed, not a metric.
        self.p99_ms = p99_ms


def latency_metrics(
    setups: Sequence[float], latencies: Sequence[float], throughput: float
) -> Metrics:
    """``setup_s``, ``throughput_qps``, ``latency_p50_ms`` and ``latency_p90_ms``.

    ``setups`` and ``latencies`` are speed-scaled, in seconds.
    """
    return {
        "setup_s": (median(setups), "s"),
        "throughput_qps": (throughput, "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
    }


def setup_layer_metrics(instance: Instance) -> Metrics:
    return {
        "census.generate_s": (instance.generate_seconds, "s"),
        "chase.s": (instance.chase_seconds, "s"),
        "chase.components": (instance.components, "count"),
    }


def lock_wait() -> Tuple[int, float]:
    """``(count, seconds)`` observed so far by the service's lock-wait histogram."""
    histogram = get_registry().histogram("repro.service.lock_wait_seconds", LATENCY_BUCKETS)
    return histogram.count, histogram.sum


def service_layer_metrics(
    service: Any, lock_before: Tuple[int, float], lock_after: Tuple[int, float]
) -> Metrics:
    """Plan-cache, replan and lock-wait counters of the one engine of ``service``."""
    (name,) = service.engines
    cache = service.plan_cache(name)
    lookups = cache.hits + cache.misses
    waits = lock_after[0] - lock_before[0]
    return {
        "service.cache_hit_rate": (cache.hits / lookups if lookups else 0.0, "ratio"),
        "service.invalidations": (cache.invalidations, "count"),
        "service.replans": (service.stats.replans, "count"),
        "service.lock_wait_ms": (
            (lock_after[1] - lock_before[1]) / waits * 1e3 if waits else 0.0,
            "ms",
        ),
    }
