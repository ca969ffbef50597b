"""Physical operator trees: what the engines actually execute.

A :class:`PhysicalPlan` is the lowered form of a logical
:class:`~repro.core.algebra.query.Query` tree: every logical operator has
been mapped to a concrete algorithm (``Select`` over an equality on a base
relation becomes an :class:`IndexScan`; a ``Join`` becomes a
:class:`HashJoin` or an :class:`IndexNestedLoopJoin` depending on the cost
model and index availability).  The plan is engine-agnostic — executing it
against an :class:`~repro.core.exec.backends.EngineBackend` produces a
classical relation on a Database and extends the representation in place on
a WSD/UWSDT, exactly as the paper's ``Q̂`` convention prescribes.

Execution records an :class:`~repro.core.exec.metrics.OperatorMetrics` per
node (rows in/out, wall time, estimated vs actual cardinality), which
``PhysicalPlan.metrics()`` rolls up and ``PhysicalPlan.explain()`` renders
next to the chosen operators.
"""

from __future__ import annotations

import time
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from ...obs.metrics import LATENCY_BUCKETS, QERROR_BUCKETS, get_registry
from ...obs.trace import get_tracer
from ...relational.errors import QueryError
from ...relational.predicates import Predicate
from .metrics import ExecutionMetrics, OperatorMetrics


class PhysicalOperator:
    """Base class of physical plan nodes."""

    op_name = "physical"

    def __init__(
        self,
        children: Tuple["PhysicalOperator", ...] = (),
        estimated_rows: Optional[float] = None,
    ) -> None:
        self.children = tuple(children)
        self.estimated_rows = estimated_rows
        #: Filled in by execution (None until the node has run).
        self.metrics: Optional[OperatorMetrics] = None
        #: Semantic cardinality key of the logical subtree this operator was
        #: lowered from, attached by :mod:`~repro.core.exec.lower` (None for
        #: hand-built plans).  Execution stamps it onto the operator's
        #: metrics so observations land in the planner-consumable store.
        self.cardinality_key: Optional[str] = None
        #: Sorted base relations the lowered subtree reads.
        self.base_relation_names: Tuple[str, ...] = ()

    def label(self) -> str:
        """One-line rendering of this operator (no children)."""
        return self.op_name

    def walk(self) -> List["PhysicalOperator"]:
        """All nodes of the subtree, children before parents (execution order)."""
        nodes: List[PhysicalOperator] = []
        for child in self.children:
            nodes.extend(child.walk())
        nodes.append(self)
        return nodes


class Scan(PhysicalOperator):
    """Full scan of a stored base relation."""

    op_name = "Scan"

    def __init__(self, relation: str, estimated_rows: Optional[float] = None) -> None:
        super().__init__((), estimated_rows)
        self.relation = relation

    def label(self) -> str:
        return f"Scan({self.relation})"


class IndexScan(PhysicalOperator):
    """Equality selection over a base relation served by a hash-index probe.

    On a Database the probe hits the engine's shared
    :class:`~repro.relational.indexes.IndexPool`; on a UWSDT it hits the
    cached ``template_index`` (probing the constant plus the ``?``
    placeholder key, per Figure 16's uncertain-field path).
    """

    op_name = "IndexScan"

    def __init__(
        self, relation: str, predicate: Predicate, estimated_rows: Optional[float] = None
    ) -> None:
        super().__init__((), estimated_rows)
        self.relation = relation
        self.predicate = predicate

    def label(self) -> str:
        return f"IndexScan({self.relation}, {self.predicate!r})"


class Filter(PhysicalOperator):
    """Selection σ_pred over an arbitrary input."""

    op_name = "Filter"

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: Predicate,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.predicate = predicate

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(PhysicalOperator):
    """Projection π_U (set semantics)."""

    op_name = "Project"

    def __init__(
        self,
        child: PhysicalOperator,
        attributes: Sequence[str],
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.attributes = tuple(attributes)

    def label(self) -> str:
        return f"Project({', '.join(self.attributes)})"


class Rename(PhysicalOperator):
    """Attribute renaming δ."""

    op_name = "Rename"

    def __init__(
        self,
        child: PhysicalOperator,
        old: str,
        new: str,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.old = old
        self.new = new

    def label(self) -> str:
        return f"Rename({self.old}→{self.new})"


class Product(PhysicalOperator):
    """Cartesian product ×."""

    op_name = "Product"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Union(PhysicalOperator):
    """Union ∪."""

    op_name = "Union"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Difference(PhysicalOperator):
    """Difference −."""

    op_name = "Difference"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Intersection(PhysicalOperator):
    """Native intersection ∩ (Database backend only; the representation
    engines execute the lowered ``A − (A − B)`` expansion instead)."""

    op_name = "Intersection"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class HashJoin(PhysicalOperator):
    """Equi-join via an ephemeral build-and-probe hash table."""

    op_name = "HashJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_attr: str,
        right_attr: str,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)
        self.left_attr = left_attr
        self.right_attr = right_attr

    def label(self) -> str:
        return f"HashJoin({self.left_attr} = {self.right_attr})"


class IndexNestedLoopJoin(PhysicalOperator):
    """Equi-join probing the engine's cached index over a base relation.

    The *inner* child must be a :class:`Scan` of a stored relation: the
    backend never executes it — each outer tuple probes the engine's
    persistent hash index (Database :class:`~repro.relational.indexes.IndexPool`
    / ``UWSDT.template_index``) instead.
    """

    op_name = "IndexNestedLoopJoin"

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: Scan,
        left_attr: str,
        right_attr: str,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((outer, inner), estimated_rows)
        self.outer = outer
        self.inner = inner
        self.left_attr = left_attr
        self.right_attr = right_attr

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.left_attr} = "
            f"{self.inner.relation}.{self.right_attr})"
        )


class ExecutionResult:
    """A query result bundled with its execution metrics and physical plan.

    ``value`` is what ``Query.run`` returns without metrics collection: the
    result :class:`~repro.relational.relation.Relation` on a Database, the
    result relation's name on a WSD/UWSDT.
    """

    def __init__(self, value: Any, metrics: ExecutionMetrics, physical: "PhysicalPlan") -> None:
        self.value = value
        self.metrics = metrics
        self.physical = physical

    def __repr__(self) -> str:
        return (
            f"ExecutionResult({self.value!r}, {len(self.metrics.records)} operators, "
            f"{self.metrics.total_seconds * 1e3:.3f} ms)"
        )


class PhysicalPlan:
    """An executable physical operator tree for one engine kind."""

    def __init__(self, root: PhysicalOperator, engine: str) -> None:
        self.root = root
        self.engine = engine

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, backend: Any, result_name: str = "result") -> Any:
        """Run the plan against ``backend``; returns the backend's result
        (the result :class:`~repro.relational.relation.Relation` on a
        Database, the result relation's *name* on a WSD/UWSDT)."""
        if backend.kind != self.engine:
            raise QueryError(
                f"plan lowered for the {self.engine!r} engine cannot run on "
                f"a {backend.kind!r} backend"
            )
        backend.begin(result_name)
        handle = self._execute(self.root, backend, result_name)
        return backend.finish(handle, result_name)

    def _execute(self, node: PhysicalOperator, backend: Any, result_name: Optional[str]) -> Any:
        tracer = get_tracer()
        if not tracer.enabled:
            # Strict fast path: one attribute check, no span objects.
            return self._execute_node(node, backend, result_name)
        # The span covers the whole subtree (children nest inside it), so
        # its duration is *cumulative* time; ``OperatorMetrics.seconds``
        # stays the operator's own self time.
        with tracer.span(f"execute-operator:{node.op_name}", label=node.label()) as span:
            handle = self._execute_node(node, backend, result_name)
            if node.metrics is not None:
                span.annotate(
                    rows_out=node.metrics.rows_out,
                    self_seconds=node.metrics.seconds,
                    estimated_rows=node.metrics.estimated_rows,
                )
        return handle

    def _execute_node(self, node: PhysicalOperator, backend: Any, result_name: Optional[str]) -> Any:
        if isinstance(node, IndexNestedLoopJoin):
            # The inner Scan is never executed: the backend probes the
            # engine's cached index over the stored relation directly.
            outer = self._execute(node.outer, backend, None)
            rows_in = (backend.row_count(outer), backend.base_rows(node.inner.relation))
            arity_in = (backend.arity(outer), backend.base_arity(node.inner.relation))
            start = time.perf_counter()
            handle = backend.index_join(
                outer, node.inner.relation, node.left_attr, node.right_attr, result_name
            )
            seconds = time.perf_counter() - start
            self._record(node, backend, handle, rows_in, arity_in, seconds)
            return handle

        handles = [self._execute(child, backend, None) for child in node.children]
        rows_in = tuple(backend.row_count(handle) for handle in handles)
        arity_in = tuple(backend.arity(handle) for handle in handles)
        start = time.perf_counter()
        if isinstance(node, Scan):
            handle = backend.scan(node.relation, result_name)
        elif isinstance(node, IndexScan):
            handle = backend.index_scan(node.relation, node.predicate, result_name)
        elif isinstance(node, Filter):
            handle = backend.filter(handles[0], node.predicate, result_name)
        elif isinstance(node, Project):
            handle = backend.project(handles[0], node.attributes, result_name)
        elif isinstance(node, Rename):
            handle = backend.rename(handles[0], node.old, node.new, result_name)
        elif isinstance(node, Product):
            handle = backend.product(handles[0], handles[1], result_name)
        elif isinstance(node, Union):
            handle = backend.union(handles[0], handles[1], result_name)
        elif isinstance(node, Difference):
            handle = backend.difference(handles[0], handles[1], result_name)
        elif isinstance(node, Intersection):
            handle = backend.intersection(handles[0], handles[1], result_name)
        elif isinstance(node, HashJoin):
            handle = backend.hash_join(
                handles[0], handles[1], node.left_attr, node.right_attr, result_name
            )
        else:
            raise QueryError(f"unknown physical operator {node.label()}")
        seconds = time.perf_counter() - start
        if isinstance(node, (Scan, IndexScan)):
            rows_in = (backend.base_rows(node.relation),)
            arity_in = (backend.base_arity(node.relation),)
        self._record(node, backend, handle, rows_in, arity_in, seconds)
        return handle

    def _record(
        self,
        node: PhysicalOperator,
        backend: Any,
        handle: Any,
        rows_in: Tuple[int, ...],
        arity_in: Tuple[int, ...],
        seconds: float,
    ) -> None:
        node.metrics = OperatorMetrics(
            operator=node.op_name,
            label=node.label(),
            rows_in=rows_in,
            rows_out=backend.row_count(handle),
            arity_in=arity_in,
            arity_out=backend.arity(handle),
            seconds=seconds,
            estimated_rows=node.estimated_rows,
            semantic_key=node.cardinality_key,
            relations=node.base_relation_names,
        )
        # Feed the process-wide registry: one histogram observation per
        # executed operator (not per tuple — constant overhead per node).
        registry = get_registry()
        registry.histogram(
            "repro.exec.operator_seconds",
            LATENCY_BUCKETS,
            operator=node.op_name,
            backend=backend.kind,
        ).observe(seconds)
        error = node.metrics.cardinality_error
        if error is not None:
            registry.histogram(
                "repro.exec.operator_qerror",
                QERROR_BUCKETS,
                operator=node.op_name,
                backend=backend.kind,
            ).observe(error)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def operators(self) -> List[PhysicalOperator]:
        """All nodes, children before parents (execution order)."""
        return self.root.walk()

    def uses(self, op_name: str) -> bool:
        """True iff some operator of the plan is of the named kind."""
        return any(node.op_name == op_name for node in self.operators())

    def metrics(self) -> ExecutionMetrics:
        """Roll up the per-operator records (empty before execution)."""
        return ExecutionMetrics(
            self.engine,
            [node.metrics for node in self.operators() if node.metrics is not None],
        )

    def explain(self) -> str:
        """Human-readable physical tree with estimates (and, once the plan
        has executed, the actual cardinalities and timings)."""
        header = f"physical plan ({self.engine})"
        lines = [header, "=" * len(header)]
        lines.extend(self._render(self.root, "", ""))
        return "\n".join(lines)

    def cumulative_seconds(self, node: Optional[PhysicalOperator] = None) -> float:
        """Self time of ``node`` plus all of its descendants (0 before
        execution; unexecuted nodes such as the INLJ's inner scan count 0)."""
        node = self.root if node is None else node
        own = node.metrics.seconds if node.metrics is not None else 0.0
        return own + sum(self.cumulative_seconds(child) for child in node.children)

    def explain_analyze(
        self,
        observed_keys: FrozenSet[str] = frozenset(),
        header_lines: Sequence[str] = (),
        certainty: Optional[Any] = None,
    ) -> str:
        """The executed plan, annotated per node with estimated vs actual
        rows, q-error, self vs cumulative time, and per-child input rows.

        ``observed_keys`` are the semantic cardinality keys whose estimates
        came from executed-cardinality feedback rather than samples — nodes
        lowered from those subtrees are tagged ``est←feedback``.  Must run
        after :meth:`execute`; unexecuted nodes render without actuals.
        ``certainty`` (a :class:`~repro.analysis.certainty.CertaintyContext`)
        additionally tags each node with its placeholder-certainty verdict.
        """
        header = f"EXPLAIN ANALYZE ({self.engine})"
        lines = [header, "=" * len(header)]
        lines.extend(header_lines)
        metrics = self.metrics()
        worst = metrics.max_cardinality_error()
        summary = (
            f"total {metrics.total_seconds * 1e3:.3f} ms across "
            f"{len(metrics.records)} operators"
        )
        if worst is not None:
            summary += f"; worst q-error {worst:.2f}"
        lines.append(summary)
        lines.extend(self._render_analyze(self.root, "", "", observed_keys, certainty))
        return "\n".join(lines)

    def _render_analyze(
        self,
        node: PhysicalOperator,
        prefix: str,
        child_prefix: str,
        observed_keys: FrozenSet[str],
        certainty: Optional[Any] = None,
    ) -> List[str]:
        annotations: List[str] = []
        if node.estimated_rows is not None:
            source = (
                "est←feedback"
                if node.cardinality_key is not None and node.cardinality_key in observed_keys
                else "est"
            )
            annotations.append(f"{source} {node.estimated_rows:,.0f}")
        record = node.metrics
        if record is not None:
            if record.rows_in:
                annotations.append(
                    "in " + " × ".join(f"{rows:,}" for rows in record.rows_in)
                )
            annotations.append(f"actual {record.rows_out:,}")
            if record.cardinality_error is not None:
                annotations.append(f"q-err {record.cardinality_error:.2f}")
            annotations.append(f"self {record.seconds * 1e3:.3f} ms")
            annotations.append(f"cum {self.cumulative_seconds(node) * 1e3:.3f} ms")
        elif node.op_name == "Scan":
            annotations.append("not executed (index probe target)")
        if certainty is not None:
            from ...analysis.certainty import UNKNOWN, physical_certainty

            verdict = physical_certainty(node.base_relation_names, certainty)
            if verdict != UNKNOWN:
                annotations.append(verdict)
        suffix = f"  [{' | '.join(annotations)}]" if annotations else ""
        lines = [f"{prefix}{node.label()}{suffix}"]
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            branch = "└── " if last else "├── "
            extend = "    " if last else "│   "
            lines.extend(
                self._render_analyze(
                    child, child_prefix + branch, child_prefix + extend, observed_keys,
                    certainty,
                )
            )
        return lines

    def _render(self, node: PhysicalOperator, prefix: str, child_prefix: str) -> List[str]:
        annotations = []
        if node.estimated_rows is not None:
            annotations.append(f"est {node.estimated_rows:,.0f} rows")
        if node.metrics is not None:
            annotations.append(
                f"actual {node.metrics.rows_out:,} rows, "
                f"{node.metrics.seconds * 1e3:.3f} ms"
            )
        suffix = f"  [{'; '.join(annotations)}]" if annotations else ""
        lines = [f"{prefix}{node.label()}{suffix}"]
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            branch = "└── " if last else "├── "
            extend = "    " if last else "│   "
            lines.extend(self._render(child, child_prefix + branch, child_prefix + extend))
        return lines

    def __repr__(self) -> str:
        return f"PhysicalPlan({self.engine}, {len(self.operators())} operators)"
