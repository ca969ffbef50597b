"""Relational algebra query ASTs and their evaluation on all three engines.

A :class:`Query` is a small algebra expression tree (the operators of
Section 2: σ, π, ×, ∪, −, δ, plus an equi-join convenience node).  The same
tree can be evaluated

* on an ordinary :class:`~repro.relational.database.Database` (classical,
  one-world semantics) — used for the naive baseline and the 0 %-density
  runs of Figure 30,
* on a :class:`~repro.core.wsd.WSD` via the operators of Figure 9,
* on a :class:`~repro.core.uwsdt.UWSDT` via the native operators of
  Section 5.

For the WSD/UWSDT engines the query processor ``Q̂`` extends the input
representation with one intermediate relation per operator (so correlations
with the input are preserved) and returns the name of the result relation.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple

from ...relational import algebra as relational_algebra
from ...relational.database import Database
from ...relational.errors import QueryError
from ...relational.indexes import IndexPool
from ...relational.predicates import AttrConst, Predicate
from ...relational.relation import Relation
from ..uwsdt import UWSDT
from ..wsd import WSD
from . import uwsdt_ops, wsd_ops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..exec.backends import EngineBackend
    from ..exec.physical import PhysicalPlan
    from ..planner.planner import Plan


class Query:
    """Base class of relational algebra query expressions."""

    # -- convenient combinators -------------------------------------------- #

    def select(self, predicate: Predicate) -> "Select":
        return Select(self, predicate)

    def project(self, attributes: Sequence[str]) -> "Project":
        return Project(self, attributes)

    def product(self, other: "Query") -> "Product":
        return Product(self, other)

    def union(self, other: "Query") -> "Union":
        node = Union(self, other)
        _check_set_operation("∪", self, other, node)
        return node

    def difference(self, other: "Query") -> "Difference":
        node = Difference(self, other)
        _check_set_operation("−", self, other, node)
        return node

    def intersection(self, other: "Query") -> "Intersection":
        node = Intersection(self, other)
        _check_set_operation("∩", self, other, node)
        return node

    def rename(self, old: str, new: str) -> "Rename":
        return Rename(self, old, new)

    def join(self, other: "Query", left_attr: str, right_attr: str) -> "Join":
        return Join(self, other, left_attr, right_attr)

    def children(self) -> Tuple["Query", ...]:
        raise NotImplementedError

    def with_children(self, children: Tuple["Query", ...]) -> "Query":
        """Clone this node with new children (used by the planner's rewrites)."""
        if isinstance(self, BaseRelation):
            return self
        if isinstance(self, Select):
            return Select(children[0], self.predicate)
        if isinstance(self, Project):
            return Project(children[0], self.attributes)
        if isinstance(self, Rename):
            return Rename(children[0], self.old, self.new)
        if isinstance(self, Product):
            return Product(children[0], children[1])
        if isinstance(self, Union):
            return Union(children[0], children[1])
        if isinstance(self, Difference):
            return Difference(children[0], children[1])
        if isinstance(self, Intersection):
            return Intersection(children[0], children[1])
        if isinstance(self, Join):
            return Join(children[0], children[1], self.left_attr, self.right_attr)
        raise TypeError(f"cannot rebuild {self!r}")

    def base_relations(self) -> List[str]:
        """Names of base relations referenced by the query."""
        names: List[str] = []
        for child in self.children():
            for name in child.base_relations():
                if name not in names:
                    names.append(name)
        return names

    # -- rendering --------------------------------------------------------- #

    def node_label(self) -> str:
        """This operator alone, in σ/π/⋈ notation (no children)."""
        raise NotImplementedError

    def to_text(self, indent: str = "") -> str:
        """Multi-line indented rendering of the query tree.

        ``__repr__`` is the compact one-line algebra expression; this is the
        two-dimensional form used by ``Plan.explain()`` and error messages,
        where deep trees are unreadable on a single line.
        """
        lines = [indent + self.node_label()]
        for child in self.children():
            lines.append(child.to_text(indent + "  "))
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Stable identity of this query's canonical text rendering.

        Two structurally identical trees fingerprint identically, whatever
        object identities built them — the plan-cache key of
        :mod:`repro.service`.  Uses SHA-1 rather than ``hash()`` so the value
        is stable across processes (``PYTHONHASHSEED``) and usable in logs.
        """
        import hashlib

        return hashlib.sha1(self.to_text().encode("utf-8")).hexdigest()[:16]

    # -- planned evaluation ------------------------------------------------ #

    def plan(self, engine: Optional[Any] = None, statistics: Optional[Any] = None) -> "Plan":
        """Build a :class:`~repro.core.planner.Plan` for this query.

        ``engine`` may be a Database, WSD or UWSDT: statistics are served
        from the engine's attached
        :class:`~repro.core.planner.catalog.StatisticsCatalog`, so planning
        a repeated (or similar) query against an unchanged engine performs
        zero sampling work.  Alternatively pass prebuilt ``statistics``.
        With neither, planning runs with default statistics (schema-blind
        rewrites only).
        """
        from ..planner import Statistics, plan as build_plan

        if statistics is None and engine is not None:
            statistics = Statistics.from_engine(
                engine, sample_relations=tuple(self.base_relations())
            )
        return build_plan(self, statistics)

    def _lowered(
        self,
        engine: Any,
        optimize: bool,
        plan: Optional["Plan"],
        force_join: Optional[str] = None,
    ) -> "Tuple[EngineBackend, PhysicalPlan]":
        """Resolve the executable tree and lower it for ``engine``'s backend."""
        from ..exec import backend_for, lower
        from ..planner import Statistics

        backend = backend_for(engine)  # fails fast on unknown engine types
        if plan is None and optimize:
            plan = self.plan(engine)
        if plan is not None:
            executable, statistics = plan.chosen, plan.statistics
        else:
            # Verbatim execution: no sampling, but the backend's cost model
            # still drives structural physical choices.
            executable, statistics = self, Statistics(engine=backend.kind)
        return backend, lower(executable, backend, statistics, force_join=force_join)

    def physical_plan(
        self,
        engine: Any,
        optimize: bool = True,
        plan: Optional["Plan"] = None,
        force_join: Optional[str] = None,
    ) -> "PhysicalPlan":
        """The :class:`~repro.core.exec.PhysicalPlan` this query would run.

        ``physical_plan(engine).explain()`` shows the chosen physical
        operators (index scans, hash vs index-nested-loop joins) without
        executing anything.
        """
        _, physical = self._lowered(engine, optimize, plan, force_join)
        return physical

    def run(
        self,
        engine: Any,
        result_name: str = "result",
        optimize: bool = True,
        plan: Optional["Plan"] = None,
        collect_metrics: bool = False,
        force_join: Optional[str] = None,
        physical: Optional["PhysicalPlan"] = None,
    ) -> Any:
        """Evaluate this query on any of the three engines.

        * on a :class:`~repro.relational.database.Database` — returns the
          result :class:`~repro.relational.relation.Relation`;
        * on a :class:`~repro.core.wsd.WSD` or :class:`~repro.core.uwsdt.UWSDT`
          — extends the representation in place and returns the name of the
          result relation (the paper's ``Q̂`` convention).

        With ``optimize=True`` (the default) the query is first rewritten by
        the logical planner (selection pushdown, join fusion, join-order
        search, projection pushdown, rename elimination) using statistics
        gathered from the engine; pass a prebuilt ``plan`` to skip
        re-planning, or ``optimize=False`` to execute this AST verbatim.

        Either way the tree is lowered to a
        :class:`~repro.core.exec.PhysicalPlan` and executed through the
        engine's :class:`~repro.core.exec.EngineBackend` — engine-specific
        dispatch lives entirely in :mod:`repro.core.exec`.  With
        ``collect_metrics=True`` the return value is an
        :class:`~repro.core.exec.ExecutionResult` bundling the result with
        per-operator runtime metrics (also folded into the engine's
        statistics catalog as actual-cardinality feedback); ``force_join``
        overrides the hash-vs-index join choice for benchmarking.

        Pass a previously lowered ``physical`` plan (for the same engine
        kind) to skip planning *and* lowering entirely — the plan-cache hit
        path of :mod:`repro.service`.  The caller is responsible for the
        plan's freshness; a stale plan still computes the query it was
        lowered from, just possibly sub-optimally.
        """
        if physical is not None:
            from ..exec import backend_for

            backend = backend_for(engine)
        else:
            backend, physical = self._lowered(engine, optimize, plan, force_join)
        value = physical.execute(backend, result_name)
        if collect_metrics:
            from ..exec import ExecutionResult, record_into_catalog

            metrics = physical.metrics()
            record_into_catalog(engine, metrics)
            return ExecutionResult(value, metrics, physical)
        return value

    def explain_analyze(
        self,
        engine: Any,
        result_name: str = "__explain",
        optimize: bool = True,
    ) -> str:
        """Run this query with metrics and render its EXPLAIN ANALYZE report.

        Plans (honoring ``optimize``), executes with metrics collection, and
        returns the physical tree annotated per operator with estimated vs
        actual rows, q-error, per-child input rows and self vs cumulative
        time.  Note the representation-engine convention still applies: on a
        WSD/UWSDT the run *extends* the representation with ``result_name``.
        For cache/feedback provenance, use
        :meth:`repro.service.Session.explain_analyze`, which serves the
        query through the plan cache.
        """
        plan = self.plan(engine) if optimize else None
        result = self.run(
            engine,
            result_name,
            optimize=optimize,
            plan=plan,
            collect_metrics=True,
        )
        observed = frozenset(plan.statistics.observed) if plan is not None else frozenset()
        header = []
        certainty = None
        if plan is not None:
            model = plan.statistics.cost_model()
            header.append(f"cost model: {model.name} ({model.source} constants)")
            if plan.join_order is not None:
                header.append(f"join order: {plan.join_order}")
            if plan.statistics.placeholder_densities:
                from ...analysis.certainty import CertaintyContext

                certainty = CertaintyContext.from_statistics(plan.statistics)
        return result.physical.explain_analyze(observed, header, certainty)


class BaseRelation(Query):
    """A reference to a stored relation."""

    def __init__(self, name: str) -> None:
        self.name = name

    def children(self) -> Tuple[Query, ...]:
        return ()

    def base_relations(self) -> List[str]:
        return [self.name]

    def node_label(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


class Select(Query):
    """Selection σ_pred."""

    def __init__(self, child: Query, predicate: Predicate) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> Tuple[Query, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"σ[{self.predicate!r}]"

    def __repr__(self) -> str:
        return f"σ[{self.predicate!r}]({self.child!r})"


class Project(Query):
    """Projection π_U."""

    def __init__(self, child: Query, attributes: Sequence[str]) -> None:
        self.child = child
        self.attributes = tuple(attributes)

    def children(self) -> Tuple[Query, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"π[{', '.join(self.attributes)}]"

    def __repr__(self) -> str:
        return f"π[{', '.join(self.attributes)}]({self.child!r})"


class Product(Query):
    """Cartesian product ×."""

    def __init__(self, left: Query, right: Query) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def node_label(self) -> str:
        return "×"

    def __repr__(self) -> str:
        return f"({self.left!r} × {self.right!r})"


class Union(Query):
    """Union ∪."""

    def __init__(self, left: Query, right: Query) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def node_label(self) -> str:
        return "∪"

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


class Difference(Query):
    """Difference −."""

    def __init__(self, left: Query, right: Query) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def node_label(self) -> str:
        return "−"

    def __repr__(self) -> str:
        return f"({self.left!r} − {self.right!r})"


class Intersection(Query):
    """Intersection ∩ (derived: ``A ∩ B = A − (A − B)``).

    The Database engine evaluates it natively; the representation engines
    evaluate the difference expansion, which is world-by-world equivalent
    and therefore correct on WSDs/UWSDTs by Theorem 1.
    """

    def __init__(self, left: Query, right: Query) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def expanded(self) -> Difference:
        """The ``A − (A − B)`` form the representation engines evaluate."""
        return Difference(self.left, Difference(self.left, self.right))

    def node_label(self) -> str:
        return "∩"

    def __repr__(self) -> str:
        return f"({self.left!r} ∩ {self.right!r})"


class Rename(Query):
    """Attribute renaming δ_{A→A'}."""

    def __init__(self, child: Query, old: str, new: str) -> None:
        self.child = child
        self.old = old
        self.new = new

    def children(self) -> Tuple[Query, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"δ[{self.old}→{self.new}]"

    def __repr__(self) -> str:
        return f"δ[{self.old}→{self.new}]({self.child!r})"


class Join(Query):
    """Equi-join ⋈_{A=B} (a derived operator: product followed by selection)."""

    def __init__(self, left: Query, right: Query, left_attr: str, right_attr: str) -> None:
        self.left = left
        self.right = right
        self.left_attr = left_attr
        self.right_attr = right_attr

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def node_label(self) -> str:
        return f"⋈[{self.left_attr}={self.right_attr}]"

    def __repr__(self) -> str:
        return f"({self.left!r} ⋈[{self.left_attr}={self.right_attr}] {self.right!r})"


def _check_set_operation(operator: str, left: Query, right: Query, node: Query) -> None:
    """Eagerly reject structurally incompatible set operations.

    Called from the ``union``/``difference``/``intersection`` combinators —
    deliberately *not* from the constructors, so the planner's
    ``with_children`` rebuilds never re-validate mid-rewrite.  Raises
    :class:`~repro.analysis.schema.AnalysisError` (a ``SchemaError``) with
    both operand schemas when the attribute lists provably differ.
    """
    # Lazy import: repro.analysis depends on this module.
    from ...analysis.schema import check_set_operation

    check_set_operation(operator, left, right, node)


# --------------------------------------------------------------------------- #
# Evaluation on an ordinary database (one world)
# --------------------------------------------------------------------------- #


def evaluate_on_database(
    query: Query,
    database: Database,
    result_name: str = "result",
    index_pool: Optional[IndexPool] = None,
) -> Relation:
    """Classical evaluation: returns the result relation.

    Pass an :class:`~repro.relational.indexes.IndexPool` to let equality
    selections over base relations probe shared hash indexes (the pool is
    reusable across queries against the same database).
    """
    relation = _evaluate_db(query, database, index_pool)
    return relation.copy(result_name)


def _evaluate_db(query: Query, database: Database, pool: Optional[IndexPool] = None) -> Relation:
    if isinstance(query, BaseRelation):
        return database.relation(query.name)
    if isinstance(query, Select):
        child = _evaluate_db(query.child, database, pool)
        index = None
        if (
            pool is not None
            and isinstance(query.child, BaseRelation)
            and isinstance(query.predicate, AttrConst)
            and query.predicate.op in ("=", "==")
        ):
            index = pool.hash_index(child, (query.predicate.attribute,))
        return relational_algebra.select(child, query.predicate, index=index)
    if isinstance(query, Project):
        return relational_algebra.project(
            _evaluate_db(query.child, database, pool), query.attributes
        )
    if isinstance(query, Product):
        return relational_algebra.product(
            _evaluate_db(query.left, database, pool), _evaluate_db(query.right, database, pool)
        )
    if isinstance(query, Union):
        return relational_algebra.union(
            _evaluate_db(query.left, database, pool), _evaluate_db(query.right, database, pool)
        )
    if isinstance(query, Difference):
        return relational_algebra.difference(
            _evaluate_db(query.left, database, pool), _evaluate_db(query.right, database, pool)
        )
    if isinstance(query, Intersection):
        return relational_algebra.intersection(
            _evaluate_db(query.left, database, pool), _evaluate_db(query.right, database, pool)
        )
    if isinstance(query, Rename):
        return relational_algebra.rename(
            _evaluate_db(query.child, database, pool), query.old, query.new
        )
    if isinstance(query, Join):
        return relational_algebra.equi_join(
            _evaluate_db(query.left, database, pool),
            _evaluate_db(query.right, database, pool),
            query.left_attr,
            query.right_attr,
        )
    raise QueryError(f"unknown query node {query!r}")


# --------------------------------------------------------------------------- #
# Evaluation on WSDs (Figure 9)
# --------------------------------------------------------------------------- #


def _name_generator(prefix: str, schema=None) -> Iterator[str]:
    """Fresh intermediate relation names, skipping any already in ``schema``.

    The skip matters when several queries run against the same (in-place
    extended) representation: each evaluation restarts the counter, and
    ``__q1`` from an earlier run is still part of the schema.
    """
    for index in itertools.count(1):
        name = f"{prefix}{index}"
        if schema is not None and schema.has_relation(name):
            continue
        yield name


def evaluate_on_wsd(query: Query, wsd: WSD, result_name: str = "result") -> str:
    """Evaluate ``query`` on ``wsd`` in place; return the result relation's name.

    The WSD is extended with one relation per operator of the query; the
    final operator's output is named ``result_name``.
    """
    names = _name_generator("__q", wsd.schema)
    final = _evaluate_wsd(query, wsd, names, result_name)
    return final


def _evaluate_wsd(query: Query, wsd: WSD, names: Iterator[str], result_name: Optional[str]) -> str:
    def fresh(child_result: Optional[str] = None) -> str:
        return result_name if result_name is not None else next(names)

    if isinstance(query, BaseRelation):
        if result_name is not None and result_name != query.name:
            wsd_ops.copy_relation(wsd, query.name, result_name)
            return result_name
        return query.name
    if isinstance(query, Select):
        child = _evaluate_wsd(query.child, wsd, names, None)
        target = fresh()
        wsd_ops.select(wsd, child, target, query.predicate)
        return target
    if isinstance(query, Project):
        child = _evaluate_wsd(query.child, wsd, names, None)
        target = fresh()
        wsd_ops.project(wsd, child, target, query.attributes)
        return target
    if isinstance(query, Product):
        left = _evaluate_wsd(query.left, wsd, names, None)
        right = _evaluate_wsd(query.right, wsd, names, None)
        target = fresh()
        wsd_ops.product(wsd, left, right, target)
        return target
    if isinstance(query, Union):
        left = _evaluate_wsd(query.left, wsd, names, None)
        right = _evaluate_wsd(query.right, wsd, names, None)
        if right == left:
            # Union of a relation with itself: tuple ids are derived from the
            # operand names, so alias one side to keep them distinct.
            alias = next(names)
            wsd_ops.copy_relation(wsd, right, alias)
            right = alias
        target = fresh()
        wsd_ops.union(wsd, left, right, target)
        return target
    if isinstance(query, Difference):
        left = _evaluate_wsd(query.left, wsd, names, None)
        right = _evaluate_wsd(query.right, wsd, names, None)
        target = fresh()
        wsd_ops.difference(wsd, left, right, target)
        return target
    if isinstance(query, Intersection):
        return _evaluate_wsd(query.expanded(), wsd, names, result_name)
    if isinstance(query, Rename):
        child = _evaluate_wsd(query.child, wsd, names, None)
        target = fresh()
        wsd_ops.rename(wsd, child, target, query.old, query.new)
        return target
    if isinstance(query, Join):
        left = _evaluate_wsd(query.left, wsd, names, None)
        right = _evaluate_wsd(query.right, wsd, names, None)
        target = fresh()
        wsd_ops.equi_join(wsd, left, right, query.left_attr, query.right_attr, target)
        return target
    raise QueryError(f"unknown query node {query!r}")


# --------------------------------------------------------------------------- #
# Evaluation on UWSDTs (Section 5)
# --------------------------------------------------------------------------- #


def evaluate_on_uwsdt(query: Query, uwsdt: UWSDT, result_name: str = "result") -> str:
    """Evaluate ``query`` on ``uwsdt`` in place; return the result relation's name."""
    names = _name_generator("__q", uwsdt.schema)
    return _evaluate_uwsdt(query, uwsdt, names, result_name)


def _evaluate_uwsdt(
    query: Query, uwsdt: UWSDT, names: Iterator[str], result_name: Optional[str]
) -> str:
    def fresh() -> str:
        return result_name if result_name is not None else next(names)

    if isinstance(query, BaseRelation):
        if result_name is not None and result_name != query.name:
            # Implement copy as a selection with a vacuous predicate-free path.
            uwsdt_ops.rename(
                uwsdt,
                query.name,
                result_name,
                uwsdt.schema.relation(query.name).attributes[0],
                uwsdt.schema.relation(query.name).attributes[0],
            )
            return result_name
        return query.name
    if isinstance(query, Select):
        child = _evaluate_uwsdt(query.child, uwsdt, names, None)
        target = fresh()
        uwsdt_ops.select(uwsdt, child, target, query.predicate)
        return target
    if isinstance(query, Project):
        child = _evaluate_uwsdt(query.child, uwsdt, names, None)
        target = fresh()
        uwsdt_ops.project(uwsdt, child, target, query.attributes)
        return target
    if isinstance(query, Product):
        left = _evaluate_uwsdt(query.left, uwsdt, names, None)
        right = _evaluate_uwsdt(query.right, uwsdt, names, None)
        target = fresh()
        uwsdt_ops.product(uwsdt, left, right, target)
        return target
    if isinstance(query, Union):
        left = _evaluate_uwsdt(query.left, uwsdt, names, None)
        right = _evaluate_uwsdt(query.right, uwsdt, names, None)
        if right == left:
            # Union of a relation with itself: result tuple ids are derived
            # from the operand names, so alias one side first.
            alias = next(names)
            attribute = uwsdt.schema.relation(right).attributes[0]
            uwsdt_ops.rename(uwsdt, right, alias, attribute, attribute)
            right = alias
        target = fresh()
        uwsdt_ops.union(uwsdt, left, right, target)
        return target
    if isinstance(query, Difference):
        left = _evaluate_uwsdt(query.left, uwsdt, names, None)
        right = _evaluate_uwsdt(query.right, uwsdt, names, None)
        target = fresh()
        uwsdt_ops.difference(uwsdt, left, right, target)
        return target
    if isinstance(query, Intersection):
        return _evaluate_uwsdt(query.expanded(), uwsdt, names, result_name)
    if isinstance(query, Rename):
        child = _evaluate_uwsdt(query.child, uwsdt, names, None)
        target = fresh()
        uwsdt_ops.rename(uwsdt, child, target, query.old, query.new)
        return target
    if isinstance(query, Join):
        left = _evaluate_uwsdt(query.left, uwsdt, names, None)
        right = _evaluate_uwsdt(query.right, uwsdt, names, None)
        target = fresh()
        uwsdt_ops.equi_join(uwsdt, left, right, query.left_attr, query.right_attr, target)
        return target
    raise QueryError(f"unknown query node {query!r}")
