"""Secondary indexes over in-memory relations.

The paper's prototype tunes query evaluation on the fixed UWSDT schema
"by employing indices and materializing often used temporary results"
(Section 5).  The UWSDT component relation ``C[FID, LWID, VAL]`` and the
mapping relation ``F[FID, CID]`` are looked up by field identifier and by
component identifier on every operator, so the UWSDT engine builds hash
indexes over those columns.  This module provides the two index flavours
used by the engine: an exact-match hash index and a sorted index supporting
range scans.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .relation import Relation, Row


class HashIndex:
    """Exact-match index mapping a key (one or more attributes) to rows."""

    __slots__ = ("relation", "attributes", "_positions", "_buckets")

    def __init__(self, relation: Relation, attributes: Sequence[str]) -> None:
        self.relation = relation
        self.attributes = tuple(attributes)
        self._positions = relation.schema.positions(self.attributes)
        self._buckets: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in relation:
            self.add(row)

    def _key(self, row: Row) -> Tuple[Any, ...]:
        return tuple(row[p] for p in self._positions)

    def add(self, row: Row) -> None:
        """Register a row that has been inserted in the indexed relation."""
        self._buckets.setdefault(self._key(row), []).append(row)

    def lookup(self, *key: Any) -> List[Row]:
        """Return the rows whose indexed attributes equal ``key``."""
        return list(self._buckets.get(tuple(key), ()))

    def contains(self, *key: Any) -> bool:
        """Return True iff some row has the given key."""
        return tuple(key) in self._buckets

    def keys(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over the distinct keys present in the index."""
        return iter(self._buckets)

    def group_sizes(self) -> Dict[Tuple[Any, ...], int]:
        """Return the number of rows per key (used for component statistics)."""
        return {key: len(rows) for key, rows in self._buckets.items()}

    def __len__(self) -> int:
        return len(self._buckets)


class IndexPool:
    """A version-validated cache of :class:`HashIndex` objects.

    The engines ask the pool for an index on every pushed-down equality
    selection; the pool rebuilds an index only when the underlying relation
    has actually changed (tracked via :attr:`Relation.version`), so repeated
    selections over the same base relation probe a shared index instead of
    rescanning it.  Keys use ``id(relation)`` — the pool must therefore keep
    a reference to the relation, which it does via the stored index.

    One pool is shared per engine, so concurrent sessions can race on the
    cache dict; a lock makes check-then-build atomic.  (Two sessions racing
    the build would each get a *correct* index either way — the lock mainly
    prevents dict corruption and duplicated build work.)
    """

    __slots__ = ("_cache", "_lock")

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, Tuple[str, ...]], Tuple[int, HashIndex]] = {}
        self._lock = threading.RLock()

    def hash_index(self, relation: Relation, attributes: Sequence[str]) -> HashIndex:
        """Return a (cached) hash index over ``attributes`` of ``relation``."""
        with self._lock:
            key = (id(relation), tuple(attributes))
            entry = self._cache.get(key)
            if entry is not None and entry[0] == relation.version and entry[1].relation is relation:
                return entry[1]
            index = HashIndex(relation, attributes)
            self._cache[key] = (relation.version, index)
            return index

    def invalidate(self, relation: Relation) -> None:
        """Drop all cached indexes of one relation."""
        with self._lock:
            stale = [key for key in self._cache if key[0] == id(relation)]
            for key in stale:
                del self._cache[key]

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


class SortedIndex:
    """Sorted single-attribute index supporting range lookups."""

    __slots__ = ("relation", "attribute", "_position", "_keys", "_rows")

    def __init__(self, relation: Relation, attribute: str) -> None:
        self.relation = relation
        self.attribute = attribute
        self._position = relation.schema.position(attribute)
        pairs = sorted(
            ((row[self._position], row) for row in relation),
            key=lambda pair: pair[0],
        )
        self._keys = [key for key, _ in pairs]
        self._rows = [row for _, row in pairs]

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[Row]:
        """Return rows whose key lies in the interval ``[low, high]``.

        ``None`` bounds are unbounded.  Inclusion of each endpoint is
        controlled by ``include_low`` / ``include_high``.
        """
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif include_high:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return self._rows[start:stop]

    def equal(self, key: Any) -> List[Row]:
        """Return rows whose key equals ``key``."""
        return self.range(key, key)

    def min_key(self) -> Optional[Any]:
        """Smallest key, or None if the relation is empty."""
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[Any]:
        """Largest key, or None if the relation is empty."""
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._rows)
