"""Certainty dataflow: which parts of a plan can only see certain values.

An abstract interpretation over logical :class:`Query` trees with a
three-point lattice per relation/attribute:

* ``certain`` — provably placeholder-free (``?`` can never flow here);
* ``maybe``   — a placeholder may appear (some source field is uncertain);
* ``unknown`` — the analysis has no information about the source.

Facts originate at base relations — from the catalog's placeholder
densities (``density == 0`` ⇒ certain) or from a caller-supplied probe —
and propagate structurally: σ and π keep facts, δ relabels them, × / ⋈
concatenate, ∪ takes the pointwise least upper bound, − / ∩ keep the left
side's facts.

The verdicts are diagnostic: ``Plan.explain()`` and ``explain_analyze``
render each node's verdict as ``[certain]`` / ``[maybe]``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..core.algebra.query import (
    BaseRelation,
    Difference,
    Intersection,
    Join,
    Product,
    Project,
    Query,
    Rename,
    Select,
    Union,
)

#: Lattice points, ordered certain < unknown < maybe for the lub.
CERTAIN = "certain"
UNKNOWN = "unknown"
MAYBE = "maybe"

_ORDER = {CERTAIN: 0, UNKNOWN: 1, MAYBE: 2}


def lub(left: str, right: str) -> str:
    """Least upper bound: a value is certain only if both sources are."""
    return left if _ORDER[left] >= _ORDER[right] else right


class CertaintyContext:
    """Per-relation certainty facts, from densities or a live probe.

    ``densities`` maps relation name → placeholder density (0.0 ⇒ certain,
    anything greater ⇒ maybe); relations absent from the map fall through
    to ``probe`` (if given), else ``unknown``.  Probe results are memoized —
    one engine query per relation per context.
    """

    def __init__(
        self,
        densities: Optional[Mapping[str, float]] = None,
        probe: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._densities: Dict[str, float] = dict(densities or {})
        self._probe = probe
        self._cache: Dict[str, str] = {}

    @classmethod
    def from_statistics(cls, statistics: Any) -> "CertaintyContext":
        return cls(densities=statistics.placeholder_densities)

    def relation(self, name: str) -> str:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        density = self._densities.get(name)
        if density is not None:
            fact = CERTAIN if density == 0.0 else MAYBE
        elif self._probe is not None:
            fact = CERTAIN if self._probe(name) else MAYBE
        else:
            fact = UNKNOWN
        self._cache[name] = fact
        return fact

    def relations(self, names: Iterable[str]) -> str:
        """Combined fact over several base relations (lub; empty ⇒ unknown)."""
        fact: Optional[str] = None
        for name in names:
            fact = self.relation(name) if fact is None else lub(fact, self.relation(name))
        return fact if fact is not None else UNKNOWN

    def __repr__(self) -> str:
        return f"CertaintyContext({sorted(self._densities)})"


# --------------------------------------------------------------------------- #
# Per-attribute dataflow over logical trees
# --------------------------------------------------------------------------- #


def attribute_facts(
    query: Query, context: CertaintyContext, schema_context: Any = None
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Ordered ``(attribute, fact)`` pairs for ``query``'s output, or None.

    ``schema_context`` (a :class:`~repro.analysis.schema.SchemaContext`)
    supplies base-relation attribute lists; without one (or for relations
    it does not know) the result is None and callers fall back to the
    relation-level facts of :func:`node_certainty`.
    """

    def walk(node: Query) -> Optional[Tuple[Tuple[str, str], ...]]:
        if isinstance(node, BaseRelation):
            if schema_context is None:
                return None
            attrs = schema_context.relation_attributes(node.name)
            if attrs is None:
                return None
            fact = context.relation(node.name)
            return tuple((a, fact) for a in attrs)
        if isinstance(node, Select):
            return walk(node.child)
        if isinstance(node, Project):
            child = walk(node.child)
            if child is None:
                return None
            facts = dict(child)
            return tuple((a, facts.get(a, UNKNOWN)) for a in node.attributes)
        if isinstance(node, Rename):
            child = walk(node.child)
            if child is None:
                return None
            return tuple(
                (node.new if a == node.old else a, fact) for a, fact in child
            )
        if isinstance(node, (Product, Join)):
            left = walk(node.left)
            right = walk(node.right)
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, Union):
            left = walk(node.left)
            right = walk(node.right)
            if left is None or right is None:
                return None
            if len(left) != len(right):
                return None
            return tuple(
                (attr, lub(fact, right_fact))
                for (attr, fact), (_, right_fact) in zip(left, right)
            )
        if isinstance(node, (Difference, Intersection)):
            # Output tuples are drawn from the left side only.
            return walk(node.left)
        return None

    return walk(query)


def node_certainty(query: Query, context: CertaintyContext) -> Dict[int, str]:
    """Relation-level fact per node, keyed by ``id(node)``.

    A node's fact is the lub over the base relations its subtree reads.
    """
    facts: Dict[int, str] = {}

    def walk(node: Query) -> str:
        if isinstance(node, BaseRelation):
            fact = context.relation(node.name)
        else:
            children = node.children()
            fact = UNKNOWN if not children else None  # type: ignore[assignment]
            for child in children:
                child_fact = walk(child)
                fact = child_fact if fact is None else lub(fact, child_fact)
        facts[id(node)] = fact
        return fact

    walk(query)
    return facts


def render_with_certainty(
    query: Query, context: CertaintyContext, indent: str = ""
) -> str:
    """``Query.to_text`` with each node's certainty verdict appended.

    ``unknown`` nodes render unannotated — a statistics-free plan would
    otherwise drown in noise.
    """
    facts = node_certainty(query, context)

    def walk(node: Query, prefix: str) -> list:
        fact = facts[id(node)]
        suffix = f"  [{fact}]" if fact != UNKNOWN else ""
        lines = [prefix + node.node_label() + suffix]
        for child in node.children():
            lines.extend(walk(child, prefix + "  "))
        return lines

    return "\n".join(walk(query, indent))


def physical_certainty(
    base_relations: Sequence[str], context: CertaintyContext
) -> str:
    """Verdict for a physical operator via its recorded base relations."""
    if not base_relations:
        return UNKNOWN
    return context.relations(base_relations)
