"""Fingerprinted plan cache with version-key validation.

A :class:`PlanCache` memoizes the full planning pipeline per engine: logical
rewrite, join-order DP, and lowering.  Entries are keyed by the query's
:meth:`~repro.core.algebra.query.Query.fingerprint` (a stable hash of the
canonical ``to_text()`` rendering) and validated by the *catalog version
keys* of every base relation the query touches — the exact per-engine
tokens :class:`~repro.core.planner.catalog.StatisticsCatalog` already uses
to invalidate statistics (``Relation.version`` on a Database, template
version + placeholder count on a UWSDT, ``WSD.revision`` on a WSD).

Validation is by *polling* at lookup time: a hit compares each stored
version key against the relation's current one, so any mutation of any
touched base relation invalidates exactly the entries that read it — no
more (untouched queries keep their plans) and no less (a stale plan is
never served).  Polling costs a few integer comparisons per base relation,
and it composes with every mutation path for free: classical inserts,
template inserts, component surgery, the chase — anything that moves the
version key.

Note the WSD caveat: ``WSD.revision`` bumps on *every* relation addition,
including the intermediates ``Q̂`` itself creates, so on a WSD the cache is
deliberately conservative — each execution invalidates all entries.  The
Database and UWSDT keys are precise and serve repeated traffic sample- and
DP-free.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.exec.backends import backend_for
from ..core.exec.physical import PhysicalPlan
from ..core.planner.catalog import StatisticsCatalog, catalog_for
from ..core.planner.planner import Plan
from ..obs.metrics import get_registry

#: Attribute under which :func:`plan_cache_for` stores the cache on an engine.
CACHE_ATTRIBUTE = "_plan_cache"

#: Eviction reasons recorded in ``repro.plan_cache.evictions{reason=...}``:
#: ``stale-version`` (a base relation's version key moved under the entry),
#: ``replan`` (the service's q-error trigger), ``explicit`` (direct
#: invalidation), ``clear`` (whole-cache drop).
EVICTION_REASONS = ("stale-version", "replan", "explicit", "clear")


@dataclass
class CachedPlan:
    """One fully planned and lowered query, ready to re-execute."""

    fingerprint: str
    plan: Plan
    physical: PhysicalPlan
    base_relations: Tuple[str, ...]
    #: Version key of every base relation at planning time; the entry is
    #: valid exactly while all of them still match.
    version_keys: Dict[str, Tuple[Any, ...]]
    #: How many times this entry has been executed (feeds the replan
    #: trigger: one execution is never enough evidence to replan).
    executions: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)


class PlanCache:
    """Per-engine cache of lowered plans, validated by version-key polling.

    A cache belongs to one engine, and every engine has exactly one
    executor, so an entry is keyed by the query fingerprint alone.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.catalog: StatisticsCatalog = catalog_for(engine)
        self._lock = threading.RLock()
        self._entries: Dict[str, CachedPlan] = {}
        #: Engine kind every cached plan must have been lowered for.
        self.engine_kind = backend_for(engine).kind
        self.hits = 0
        self.misses = 0
        #: Entries dropped because a base relation's version key moved.
        self.invalidations = 0

    def _current_keys(self, relations: Tuple[str, ...]) -> Optional[Dict[str, Tuple[Any, ...]]]:
        try:
            return {name: self.catalog.version_key(name) for name in relations}
        except KeyError:
            return None  # a base relation was dropped: treat as invalid

    def lookup(self, fingerprint: str) -> Optional[CachedPlan]:
        """The valid cached plan for ``fingerprint``, or None.

        A structurally present but stale entry (any base relation's version
        key moved) is dropped and counted as an invalidation + miss.
        """
        registry = get_registry()
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                registry.counter("repro.plan_cache.misses").inc()
                return None
            current = self._current_keys(entry.base_relations)
            if current != entry.version_keys:
                del self._entries[fingerprint]
                self.invalidations += 1
                self.misses += 1
                registry.counter("repro.plan_cache.misses").inc()
                registry.counter(
                    "repro.plan_cache.evictions", reason="stale-version"
                ).inc()
                return None
            self.hits += 1
            registry.counter("repro.plan_cache.hits").inc()
            from ..analysis import invariants

            if invariants.verification_enabled():
                invariants.verify_cached_backend(entry.physical.engine, self.engine_kind)
            return entry

    def peek(self, fingerprint: str) -> Optional[CachedPlan]:
        """The raw entry, without validation or hit/miss accounting (telemetry
        and ``explain_analyze`` provenance; never use it to serve a plan)."""
        with self._lock:
            return self._entries.get(fingerprint)

    def store(self, fingerprint: str, plan: Plan, physical: PhysicalPlan) -> CachedPlan:
        """Cache a freshly planned + lowered query under its fingerprint."""
        from ..analysis import invariants

        if invariants.verification_enabled():
            invariants.verify_cached_backend(physical.engine, self.engine_kind)
        with self._lock:
            relations = tuple(sorted(plan.original.base_relations()))
            keys = self._current_keys(relations)
            entry = CachedPlan(
                fingerprint=fingerprint,
                plan=plan,
                physical=physical,
                base_relations=relations,
                version_keys=keys if keys is not None else {},
            )
            self._entries[fingerprint] = entry
            return entry

    def invalidate(self, fingerprint: Optional[str] = None, reason: str = "explicit") -> None:
        """Drop one entry (or all of them when ``fingerprint`` is None).

        ``reason`` labels the eviction counter (see :data:`EVICTION_REASONS`); the
        service passes ``"replan"`` from its q-error trigger.
        """
        registry = get_registry()
        with self._lock:
            if fingerprint is None:
                if self._entries:
                    registry.counter("repro.plan_cache.evictions", reason="clear").inc(
                        len(self._entries)
                    )
                self._entries.clear()
                return
            if self._entries.pop(fingerprint, None) is not None:
                registry.counter("repro.plan_cache.evictions", reason=reason).inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._entries)
        return (
            f"PlanCache({count} plans, {self.hits} hits / "
            f"{self.misses} misses, {self.invalidations} invalidations)"
        )


def plan_cache_for(engine: Any) -> PlanCache:
    """The plan cache attached to ``engine``, created on first use.

    Engine ``copy()`` methods do not carry the cache over, mirroring the
    statistics catalog's attachment discipline.
    """
    cache = getattr(engine, CACHE_ATTRIBUTE, None)
    if cache is None:
        cache = PlanCache(engine)
        try:
            setattr(engine, CACHE_ATTRIBUTE, cache)
        except AttributeError:
            pass
    return cache
