"""Lowering: logical :class:`Query` trees → :class:`PhysicalPlan`.

This is where physical alternatives are decided, using the same per-operator
cost steps the planner's join-order DP uses (so the DP's assumptions and the
lowered plan agree):

* a ``Select`` with a hashable equality predicate directly over a base
  relation becomes an :class:`~repro.core.exec.physical.IndexScan` on
  backends that can probe one (Database index pool, UWSDT template index);
* a ``Join`` whose *right* input is a bare base-relation scan becomes an
  :class:`~repro.core.exec.physical.IndexNestedLoopJoin` when
  :func:`~repro.core.planner.cost.index_join_step` beats
  :func:`~repro.core.planner.cost.join_step` under the estimated
  cardinalities (the join-order DP steers the bare scan to the right-hand
  side whenever that orientation wins, so the two layers compose);
* an ``Intersection`` is native on the Database backend and lowered through
  its ``A − (A − B)`` expansion on the representation backends.

Every physical node carries the planner's cardinality estimate for its
output, so executed plans can report estimated-vs-actual cardinality errors.
"""

from __future__ import annotations

from typing import Optional

from ...relational.errors import QueryError
from ...relational.predicates import AttrConst
from ..algebra import query as logical
from ..planner.observed import cardinality_key
from ..planner.cost import (
    DEFAULT_ARITY,
    CostModel,
    Statistics,
    equality_join_selectivity,
    estimate_forest,
    index_join_step,
    join_step,
    output_attributes,
)
from .backends import EngineBackend
from .physical import (
    Difference,
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Intersection,
    PhysicalOperator,
    PhysicalPlan,
    Product,
    Project,
    Rename,
    Scan,
    Union,
)

#: Values for the ``force_join`` knob (benchmarks compare the algorithms).
JOIN_ALGORITHMS = ("hash", "index-nested-loop")


def _hashable_equality(predicate) -> bool:
    if not isinstance(predicate, AttrConst) or predicate.op not in ("=", "=="):
        return False
    try:
        hash(predicate.constant)
    except TypeError:
        return False
    return True


class _Lowering:
    def __init__(
        self,
        backend: EngineBackend,
        statistics: Statistics,
        model: CostModel,
        force_join: Optional[str],
    ) -> None:
        self.backend = backend
        self.statistics = statistics
        self.model = model
        self.force_join = force_join
        #: Per-node estimates keyed by node identity, filled by one bottom-up
        #: pass before lowering starts (re-estimating every subtree here
        #: would be quadratic in the statistics' sample work).
        self.estimates = {}
        #: Every tree the memo was seeded from.  The memo is keyed by
        #: ``id(node)``, so seeded nodes must stay alive for the lowering's
        #: lifetime — a freed node (e.g. a transient ``expanded()`` tree)
        #: could otherwise alias a later allocation's id and serve it a
        #: stale estimate.
        self._anchored = []

    def seed_estimates(self, query: logical.Query) -> None:
        self._anchored.append(query)
        try:
            estimate_forest(query, self.statistics, self.model, self.estimates)
        except TypeError:
            # Unknown node types surface as a QueryError from lower() below,
            # with the query text attached, rather than a bare TypeError here.
            pass

    def estimate(self, node: logical.Query):
        cached = self.estimates.get(id(node))
        if cached is not None:
            return cached
        # Nodes synthesized during lowering (the intersection expansion)
        # extend the memo on first sight; their children are already cached.
        self.seed_estimates(node)
        return self.estimates.get(id(node))

    def estimated_rows(self, node: logical.Query) -> Optional[float]:
        estimate = self.estimate(node)
        return estimate.rows if estimate is not None else None

    def lower(self, node: logical.Query) -> PhysicalOperator:
        physical = self._lower_node(node)
        # Every physical node remembers the *semantic* identity of the
        # logical subtree it computes, so its executed cardinality can be
        # recorded under a key future planning passes will look up again —
        # and the base relations whose versions scope that observation.
        physical.cardinality_key = cardinality_key(node)
        physical.base_relation_names = tuple(sorted(node.base_relations()))
        return physical

    def _lower_node(self, node: logical.Query) -> PhysicalOperator:
        rows = self.estimated_rows(node)
        if isinstance(node, logical.BaseRelation):
            return Scan(node.name, rows)
        if isinstance(node, logical.Select):
            if (
                self.backend.supports_index_scan
                and isinstance(node.child, logical.BaseRelation)
                and _hashable_equality(node.predicate)
            ):
                return IndexScan(node.child.name, node.predicate, rows)
            return Filter(self.lower(node.child), node.predicate, rows)
        if isinstance(node, logical.Project):
            return Project(self.lower(node.child), node.attributes, rows)
        if isinstance(node, logical.Rename):
            return Rename(self.lower(node.child), node.old, node.new, rows)
        if isinstance(node, logical.Product):
            return Product(self.lower(node.left), self.lower(node.right), rows)
        if isinstance(node, logical.Union):
            return Union(self.lower(node.left), self.lower(node.right), rows)
        if isinstance(node, logical.Difference):
            return Difference(self.lower(node.left), self.lower(node.right), rows)
        if isinstance(node, logical.Intersection):
            if self.backend.native_intersection:
                return Intersection(self.lower(node.left), self.lower(node.right), rows)
            return self.lower(node.expanded())
        if isinstance(node, logical.Join):
            return self.lower_join(node, rows)
        raise QueryError(
            "cannot lower query node to a physical operator:\n" + node.to_text("  ")
        )

    def lower_join(self, node: logical.Join, rows: float) -> PhysicalOperator:
        left = self.lower(node.left)
        right = self.lower(node.right)
        applicable = (
            self.backend.supports_index_join
            and isinstance(right, Scan)
            and self.force_join != "hash"
        )
        if applicable and self.force_join != "index-nested-loop":
            # Same cost comparison as the join-order DP: hash build+probe
            # versus per-outer-tuple probes of the engine's cached index.
            left_estimate = self.estimate(node.left)
            right_estimate = self.estimate(node.right)
            if left_estimate is None or right_estimate is None:
                applicable = False
            else:
                selectivity = equality_join_selectivity(
                    left_estimate.sample, node.left_attr, right_estimate.sample, node.right_attr
                )
                attributes = output_attributes(node, self.statistics)
                out_arity = len(attributes) if attributes is not None else DEFAULT_ARITY
                _, hash_cost = join_step(
                    left_estimate.rows, right_estimate.rows, selectivity, out_arity, self.model
                )
                _, inlj_cost = index_join_step(
                    left_estimate.rows, right_estimate.rows, selectivity, out_arity, self.model
                )
                applicable = inlj_cost < hash_cost
        if applicable:
            return IndexNestedLoopJoin(left, right, node.left_attr, node.right_attr, rows)
        return HashJoin(left, right, node.left_attr, node.right_attr, rows)


def lower(
    query: logical.Query,
    backend: EngineBackend,
    statistics: Optional[Statistics] = None,
    force_join: Optional[str] = None,
) -> PhysicalPlan:
    """Lower a logical query tree into a physical plan for ``backend``.

    ``statistics`` should be the statistics the logical plan was built with
    (physical choices then see the same cardinality estimates); without
    them, lowering falls back to default statistics for the backend's
    engine kind.  ``force_join`` overrides the hash-vs-index choice where an
    index join is structurally possible (``"hash"`` / ``"index-nested-loop"``).
    """
    if force_join is not None and force_join not in JOIN_ALGORITHMS:
        raise ValueError(f"unknown join algorithm {force_join!r}; expected {JOIN_ALGORITHMS}")
    if statistics is None:
        statistics = Statistics(engine=backend.kind)
    from ...obs.trace import get_tracer

    with get_tracer().span("lowering", engine=backend.kind):
        lowering = _Lowering(backend, statistics, statistics.cost_model(), force_join)
        lowering.seed_estimates(query)
        physical = PhysicalPlan(lowering.lower(query), backend.kind)
        from ...analysis import invariants

        if invariants.verification_enabled():
            from ...analysis.schema import SchemaContext

            invariants.verify_physical(
                physical,
                backend=backend,
                schema_context=SchemaContext.from_statistics(statistics),
            )
        return physical
