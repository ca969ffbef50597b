"""``service-mixed``: two sessions of one long-lived ``QueryService``.

Both sessions run a closed loop over one seeded stream of 95 % reads and
5 % writes against one chased census UWSDT.  A read is ``Session.execute``
(plan-cache lookup, execution, feedback) followed by
``uwsdt_possible_with_confidence`` on its result; a write is
``Session.mutate`` inserting one new noisy census record, which moves R's
version key.  Every ``Q̂`` result stays in the engine, so the
representation grows over the run: the window is bounded by request count
and ends at the same size every time.

The census instance, or-set noise included, is fixed
(``common.CENSUS_SEED``): where the noise lands decides how much the
representation grows, by a fifth from one noise seed to the next.  The
workload seed drives the request stream and the written records.

After each read, outside the window, the same query runs on the one-world
database, so both sides of ``uwsdt_vs_oneworld`` are timed under the same
machine conditions.  After the window, the seeded write sequence is
replayed on a fresh chased instance and every read is checked against
unplanned evaluation at the same write count.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.census import CENSUS_QUERIES, q4_citizen
from repro.core.algebra.query import evaluate_on_database
from repro.core.planner.sampling import sampling_call_count
from repro.obs.trace import get_tracer
from repro.service import QueryService

import common
import instrument

ROWS = 2000

#: The read mix: the six Fig. 29 queries and the unselective ``q4_citizen``.
QUERIES = dict(CENSUS_QUERIES, Q4_citizen=q4_citizen)

#: Share of the requests that are writes.
WRITE_SHARE = 0.05

#: Closed-loop client sessions (at most the machine's processor count).
SESSIONS = 2

#: Requests per second of ``--seconds`` in a timed run (a traced run halves
#: it, for each of its two windows).
REQUESTS_PER_SECOND = 24

#: Each session measures the machine's speed before every this many requests.
PROBE_EVERY = 5

ENGINE = "census"

WRITE = "write"


def sessions() -> int:
    return max(1, min(SESSIONS, os.cpu_count() or 1))


def request_stream(seed: int, requests: int) -> List[str]:
    """The seeded request stream: reads and evenly spaced writes.

    Reads cycle through the query mix, in a fresh seeded order each cycle;
    every ``1 / WRITE_SHARE``-th request is a write.  Sessions take turns
    on it, so it is also the order the engine serves.
    """
    rng = random.Random(seed)
    spacing = round(1 / WRITE_SHARE)
    stream: List[str] = []
    cycle: List[str] = []
    for position in range(1, requests + 1):
        if position % spacing == 0:
            stream.append(WRITE)
            continue
        if not cycle:
            cycle = rng.sample(list(QUERIES), len(QUERIES))
        stream.append(cycle.pop())
    return stream


class Read:
    __slots__ = (
        "query",
        "writes",
        "seconds",
        "oneworld_seconds",
        "probe",
        "answers",
        "oneworld_answers",
    )

    def __init__(
        self,
        query: str,
        writes: int,
        seconds: float,
        oneworld_seconds: float,
        probe: int,
        answers: str,
        oneworld_answers: str,
    ) -> None:
        self.query = query
        #: Writes applied when the read executed.
        self.writes = writes
        self.seconds = seconds
        self.oneworld_seconds = oneworld_seconds
        #: Index of the last speed probe taken before the read.
        self.probe = probe
        self.answers = answers
        self.oneworld_answers = oneworld_answers


class Episode:
    """A set-up service and the seeded request stream it serves."""

    def __init__(
        self,
        seed: int,
        requests: int,
        rows: int = ROWS,
        probe: Optional[common.SpeedProbe] = None,
    ) -> None:
        self.seed = seed
        stream = request_stream(seed, requests)
        self.streams = [stream[i :: sessions()] for i in range(sessions())]
        self.records = common.write_records(seed + 1, stream.count(WRITE))
        self.writes_done = 0
        self.reads: List[Read] = []
        self.writes_timed = 0
        #: ``(seconds, probe index)`` of every timed request: the window.
        self.timed: List[Tuple[float, int]] = []
        self.errors = 0
        self.counters = common.ReprCounters()
        self.probe = probe or common.SpeedProbe()
        #: Index of the speed probe taken right before the set-up.
        self.setup_probe = self.probe.measure()
        start = time.perf_counter()
        with get_tracer().span("bench.setup"):
            self.instance = common.Instance(rows, common.CENSUS_SEED)
            self.service = QueryService()
            self.service.register_engine(ENGINE, self.instance.uwsdt)
            asyncio.run(self._warm_up())
        self.setup_seconds = time.perf_counter() - start
        self.probe.measure()

    @property
    def engine(self) -> Any:
        return self.service.engines[ENGINE]

    async def _warm_up(self) -> None:
        session = self.service.session(ENGINE, "warm-up")
        for factory in QUERIES.values():
            await common.service_read(session, factory())
            common.oneworld_request(factory(), self.instance.database)

    def _write(self, engine: Any) -> None:
        common.apply_write(engine, self.records[self.writes_done])
        self.writes_done += 1

    async def _request(self, session: Any, op: str) -> Optional[List[Any]]:
        """One request; returns a read's ranked answers (None for a write)."""
        if op == WRITE:
            await session.mutate(self._write)
            return None
        return await common.service_read(session, QUERIES[op]())

    async def _client(self, session: Any, stream: List[str]) -> None:
        for index, op in enumerate(stream):
            if index % PROBE_EVERY == 0:
                self.probe.measure()
            probe = len(self.probe.seconds) - 1
            before = self.counters.snapshot(self.engine)
            try:
                start = time.perf_counter()
                ranked = await self._request(session, op)
                seconds = time.perf_counter() - start
            except Exception:  # a failed request is counted, and the run goes on
                self.errors += 1
                if self.errors == 1:
                    traceback.print_exc(file=sys.stderr)
                await asyncio.sleep(0)
                continue
            self.counters.add(before, self.engine)
            self.timed.append((seconds, probe))
            if ranked is None:
                self.writes_timed += 1
            else:
                oneworld_start = time.perf_counter()
                relation = common.oneworld_request(QUERIES[op](), self.instance.database)
                oneworld_seconds = time.perf_counter() - oneworld_start
                self.reads.append(
                    Read(
                        op,
                        self.writes_done,
                        seconds,
                        oneworld_seconds,
                        probe,
                        common.digest(common.normalized(ranked)),
                        common.oneworld_answers(relation),
                    )
                )
            # Yield to the other session, as a client awaiting a reply would.
            await asyncio.sleep(0)

    async def _drive(self) -> None:
        await asyncio.gather(
            *(
                self._client(self.service.session(ENGINE, f"client-{index}"), stream)
                for index, stream in enumerate(self.streams)
            )
        )

    def serve(self) -> float:
        """Run the whole stream; returns requests completed per scaled second.

        Execution is serialized on the engine, so the timed window is the
        sum of the requests' speed-scaled latencies.
        """
        self.size_before = common.representation_size(self.engine)
        asyncio.run(self._drive())
        self.size_after = common.representation_size(self.engine)
        busy = sum(seconds * self.probe.factor_at(probe) for seconds, probe in self.timed)
        return len(self.timed) / busy

    def wrong_answers(self) -> int:
        """Reads whose UWSDT or one-world answers differ from unplanned evaluation.

        The write sequence is replayed on a fresh chased instance; each
        ``(query, write count)`` pair that was read is evaluated once,
        unplanned, on a copy of it at that write count.
        """
        wanted: Dict[int, set] = {}
        for read in self.reads:
            wanted.setdefault(read.writes, set()).add(read.query)
        replay = common.Instance(self.instance.rows, self.instance.noise_seed).uwsdt
        expected: Dict[Tuple[str, int], str] = {}
        for count in range(self.writes_done + 1):
            if count:
                common.apply_write(replay, self.records[count - 1])
            for name in sorted(wanted.get(count, ())):
                expected[name, count] = common.reference_answers(QUERIES[name](), replay)
        oneworld = {
            name: common.oneworld_answers(evaluate_on_database(factory(), self.instance.database))
            for name, factory in QUERIES.items()
        }
        return sum(
            (read.answers != expected[read.query, read.writes])
            + (read.oneworld_answers != oneworld[read.query])
            for read in self.reads
        )

    def attempted(self) -> int:
        return 2 * len(self.reads) + self.writes_timed + self.errors


def run_timed(
    workload: str, seed: int, seconds: float, setups: int, rows: Optional[int] = None
) -> "common.Result":
    requests = max(2 * sessions(), round(REQUESTS_PER_SECOND * seconds))
    probe = common.SpeedProbe()
    setup_seconds = []
    for _ in range(setups):
        episode = Episode(seed, requests, rows or ROWS, probe)
        setup_seconds.append(episode.setup_seconds * probe.factor_at(episode.setup_probe))
    common.collect_setup_garbage()
    throughput = episode.serve()
    rss = common.peak_rss_mb()
    reads = episode.reads
    pairs = [(read.query, read.seconds, read.oneworld_seconds) for read in reads]
    latencies = [read.seconds * probe.factor_at(read.probe) for read in reads]
    failed = episode.errors + episode.wrong_answers()
    attempted = episode.attempted()
    metrics = common.latency_metrics(setup_seconds, latencies, throughput)
    metrics.update(
        {
            "uwsdt_vs_oneworld": (common.uwsdt_vs_oneworld(pairs), "ratio"),
            "latency_drift": (common.drift(pairs), "ratio"),
            "repr_bloat": (episode.size_after / episode.size_before, "ratio"),
            "peak_rss_mb": (rss, "MB"),
            "correct_frac": (1.0 - failed / attempted, "ratio"),
        }
    )
    raw = [read.seconds for read in reads]
    p99_ms = common.percentile(latencies, 0.99) * 1e3
    return common.Result(attempted, failed, metrics, raw, probe.seconds, p99_ms)


def run_traced(
    workload: str, seed: int, seconds: float, rows: Optional[int] = None
) -> "common.Result":
    requests = max(2 * sessions(), round(REQUESTS_PER_SECOND * seconds / 2))
    untraced = Episode(seed, requests, rows or ROWS)
    untraced_throughput = untraced.serve()
    with instrument.instrumented():
        sampling_before = sampling_call_count()
        traced = Episode(seed, requests, rows or ROWS)
        lock_before = common.lock_wait()
        window_start = time.perf_counter()
        traced_throughput = traced.serve()
        lock_after = common.lock_wait()
        sampling_calls = sampling_call_count() - sampling_before
    spans = get_tracer().finished_spans()
    window = [span for span in spans if span.start >= window_start]
    metrics = common.setup_layer_metrics(traced.instance)
    metrics["planner.sampling_calls"] = (sampling_calls, "count")
    metrics.update(instrument.layer_metrics(window, window, spans))
    metrics.update(traced.counters.metrics())
    metrics.update(common.service_layer_metrics(traced.service, lock_before, lock_after))
    metrics["trace.overhead"] = (traced_throughput / untraced_throughput, "ratio")
    failed = traced.errors + traced.wrong_answers()
    raw = [read.seconds for read in traced.reads]
    return common.Result(traced.attempted(), failed, metrics, raw, traced.probe.seconds)
