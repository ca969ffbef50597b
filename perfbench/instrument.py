"""The traced run: spans around the layers' public calls, and their self times.

:func:`instrumented` wraps the public functions the workloads call —
``Query.plan``, ``repro.core.exec.lower``, ``PhysicalPlan.execute``,
``record_into_catalog``, ``uwsdt_possible_with_confidence``,
``chase_uwsdt``, ``Session.execute`` and ``Session.mutate`` — in spans of
the process-wide ``repro.obs`` tracer, and enables that tracer, so the
spans the program already emits (``plan``, ``rewrite``, ``join-dp``,
``sampling``, ``lowering``, ``execute-operator:*``, ``request``,
``cache-lookup``, ``execute``) nest under the benchmark's own.  Spans stay
in memory until the episode ends; :func:`self_times` then charges each span
its duration minus the time its child spans cover.

Only the traced run installs the wrappers.  The timed runs call the same
functions unwrapped, with the tracer's no-op fast path.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.core.chase as chase_module
import repro.core.exec as exec_module
import repro.service.server as server_module
from repro.core.algebra.query import Query
from repro.core.exec.physical import PhysicalPlan
from repro.obs.trace import Span, get_tracer
from repro.service.session import Session

import common

#: Span families reported as ``span.<family>.self_ms``: the benchmark's own
#: spans first, then the program's.  ``execute-operator:<Op>`` spans are
#: summed into one ``execute-operator`` family.
SPAN_FAMILIES: Tuple[str, ...] = (
    "bench.setup",
    "bench.generate",
    "bench.chase",
    "bench.request",
    "bench.oneworld",
    "bench.plan",
    "bench.lower",
    "bench.execute",
    "bench.feedback",
    "bench.confidence",
    "bench.session-execute",
    "bench.session-mutate",
    "plan",
    "rewrite",
    "join-dp",
    "sampling",
    "lowering",
    "execute-operator",
    "request",
    "cache-lookup",
    "execute",
)


def _annotate_plan(span: Any, args: Tuple[Any, ...], plan: Any) -> None:
    span.annotate(engine=plan.statistics.engine, improved=plan.improved)


def _annotate_lower(span: Any, args: Tuple[Any, ...], physical: Any) -> None:
    span.annotate(engine=physical.engine)


def _annotate_feedback(span: Any, args: Tuple[Any, ...], result: Any) -> None:
    span.annotate(engine=args[1].engine)


def _annotate_execute(span: Any, args: Tuple[Any, ...], value: Any) -> None:
    physical = args[0]
    metrics = physical.metrics()
    span.annotate(
        engine=physical.engine,
        operator_rows=metrics.total_rows_out,
        qerror=metrics.max_cardinality_error(),
    )


def _annotate_confidence(span: Any, args: Tuple[Any, ...], ranked: Any) -> None:
    span.annotate(answers=len(ranked))


def _annotate_session(span: Any, args: Tuple[Any, ...], outcome: Any) -> None:
    span.annotate(cached=outcome.cached)


def _wrapped(original: Callable, name: str, annotate: Any) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with get_tracer().span(name) as span:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
            return result

    return wrapper


def _wrapped_async(original: Callable, name: str, annotate: Any) -> Callable:
    @functools.wraps(original)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        with get_tracer().span(name) as span:
            result = await original(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
            return result

    return wrapper


#: ``(owner, attribute, span name, annotate, is async)`` of every wrapped call.
#: ``lower`` is patched where the service imported it by name, too.
_TARGETS = (
    (Query, "plan", "bench.plan", _annotate_plan, False),
    (exec_module, "lower", "bench.lower", _annotate_lower, False),
    (server_module, "lower", "bench.lower", _annotate_lower, False),
    (PhysicalPlan, "execute", "bench.execute", _annotate_execute, False),
    (exec_module, "record_into_catalog", "bench.feedback", _annotate_feedback, False),
    (
        common.confidence_module,
        "uwsdt_possible_with_confidence",
        "bench.confidence",
        _annotate_confidence,
        False,
    ),
    (chase_module, "chase_uwsdt", "bench.chase", None, False),
    (Session, "execute", "bench.session-execute", _annotate_session, True),
    (Session, "mutate", "bench.session-mutate", None, True),
)


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Trace everything inside the block; restores the program on exit."""
    tracer = get_tracer()
    tracer.reset()
    originals = []
    try:
        for owner, attribute, name, annotate, is_async in _TARGETS:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            originals.append((owner, attribute, original))
            wrap = _wrapped_async if is_async else _wrapped
            setattr(owner, attribute, wrap(original, name, annotate))
        tracer.enable()
        yield
    finally:
        tracer.disable()
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self seconds per span family."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.seconds
    totals: Dict[str, float] = {name: 0.0 for name in SPAN_FAMILIES}
    for span in spans:
        key = span.name.split(":", 1)[0]
        if key in totals:
            totals[key] += span.seconds - covered[span.span_id]
    return totals


def durations(spans: List[Span], name: str, **attrs: Any) -> List[float]:
    """Durations of the spans called ``name`` whose attributes match ``attrs``."""
    return [
        span.seconds
        for span in spans
        if span.name == name and all(span.attrs.get(k) == v for k, v in attrs.items())
    ]


def attribute_values(spans: List[Span], name: str, attribute: str, **attrs: Any) -> List[Any]:
    """One attribute of the matching spans (spans without it are skipped)."""
    return [
        span.attrs[attribute]
        for span in spans
        if span.name == name
        and attribute in span.attrs
        and all(span.attrs.get(k) == v for k, v in attrs.items())
    ]


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(
    window: List[Span], service: List[Span], episode: List[Span]
) -> Dict[str, Tuple[float, str]]:
    """The span-derived per-layer metrics of one traced episode.

    ``window`` holds the spans of the traced requests and of the one-world
    requests that follow them (per-call medians, sums and maxima),
    ``service`` those of the requests served through ``QueryService``
    sessions, and ``episode`` every span of the episode, set-up included
    (self-time totals).
    """
    improved = attribute_values(window, "bench.plan", "improved", engine="uwsdt")
    qerrors = [
        error
        for error in attribute_values(window, "bench.execute", "qerror", engine="uwsdt")
        if error is not None
    ]
    metrics: Dict[str, Tuple[float, str]] = {
        "planner.plan_ms": (_median_ms(durations(window, "bench.plan", engine="uwsdt")), "ms"),
        "planner.rewritten_share": (
            sum(improved) / len(improved) if improved else 0.0,
            "ratio",
        ),
        "exec.max_qerror": (max(qerrors, default=1.0), "ratio"),
        "exec.lower_ms": (_median_ms(durations(window, "bench.lower", engine="uwsdt")), "ms"),
        "exec.execute_ms": (
            _median_ms(durations(window, "bench.execute", engine="uwsdt")),
            "ms",
        ),
        "exec.feedback_ms": (
            _median_ms(durations(window, "bench.feedback", engine="uwsdt")),
            "ms",
        ),
        "exec.operator_rows": (
            sum(attribute_values(window, "bench.execute", "operator_rows", engine="uwsdt")),
            "count",
        ),
        "confidence.ms": (_median_ms(durations(window, "bench.confidence")), "ms"),
        "confidence.answers": (sum(attribute_values(window, "bench.confidence", "answers")), "count"),
        "service.hit_ms": (
            _median_ms(durations(service, "bench.session-execute", cached=True)),
            "ms",
        ),
        "service.miss_ms": (
            _median_ms(durations(service, "bench.session-execute", cached=False)),
            "ms",
        ),
        "service.write_ms": (_median_ms(durations(service, "bench.session-mutate")), "ms"),
        "oneworld.latency_ms": (_median_ms(durations(window, "bench.oneworld")), "ms"),
    }
    for name, seconds in self_times(episode).items():
        metrics[f"span.{name}.self_ms"] = (seconds * 1e3, "ms")
    return metrics
