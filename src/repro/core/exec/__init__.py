"""The physical execution layer: plans, backends, metrics, self-tuning.

The logical planner produces a :class:`~repro.core.planner.Plan`; this
package *lowers* its chosen tree into a :class:`PhysicalPlan` of concrete
operators (``Scan`` / ``IndexScan`` / ``Filter`` / ``HashJoin`` /
``IndexNestedLoopJoin`` / ``Product`` / ``Project`` / ``Rename`` /
``Union`` / ``Difference`` / ``Intersection``) and executes it through an
:class:`EngineBackend` — exactly one per representation system
(``DatabaseBackend``, ``WSDBackend``, ``UWSDTBackend``), each wrapping the
operator module that implements the paper's semantics.  Execution records
per-operator runtime metrics, and :mod:`repro.core.exec.feedback` folds
them back into the calibrated cost profile (the self-tuning loop).

* :mod:`repro.core.exec.physical` — operator nodes, the executor,
  ``PhysicalPlan.explain()``.
* :mod:`repro.core.exec.backends` — the ``EngineBackend`` protocol and the
  Database/WSD/UWSDT implementations; :func:`backend_for` is the only place
  engine types are dispatched on.
* :mod:`repro.core.exec.lower`    — logical → physical lowering, including
  the hash-join vs index-nested-loop-join cost decision.
* :mod:`repro.core.exec.metrics`  — ``OperatorMetrics`` /
  ``ExecutionMetrics`` (rows in/out, wall time, estimated vs actual
  cardinality).
* :mod:`repro.core.exec.feedback` — exponentially weighted cost-constant
  updates persisted through the ``repro-cost-profile`` JSON path, plus
  actual-cardinality feedback into the statistics catalog.
"""

from .backends import (
    DatabaseBackend,
    EngineBackend,
    UWSDTBackend,
    WSDBackend,
    backend_for,
    index_pool_for,
)
from .feedback import (
    DEFAULT_ALPHA,
    FeedbackResult,
    apply_feedback,
    cost_model_error,
    fold_metrics,
    observed_cost_units,
    record_into_catalog,
)
from .lower import JOIN_ALGORITHMS, lower
from .metrics import ExecutionMetrics, OperatorMetrics
from .physical import (
    Difference,
    ExecutionResult,
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

#: Alias of :func:`backend_for`, kept because callers outside the package
#: (the ``perfbench/`` scripts among them) resolve executors by this name.
#: Every engine has exactly one executor, so there is nothing to choose.
resolve_backend = backend_for

__all__ = [
    "DatabaseBackend",
    "EngineBackend",
    "UWSDTBackend",
    "WSDBackend",
    "backend_for",
    "index_pool_for",
    "resolve_backend",
    "DEFAULT_ALPHA",
    "FeedbackResult",
    "apply_feedback",
    "cost_model_error",
    "fold_metrics",
    "observed_cost_units",
    "record_into_catalog",
    "JOIN_ALGORITHMS",
    "lower",
    "ExecutionMetrics",
    "OperatorMetrics",
    "Difference",
    "ExecutionResult",
    "Filter",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "Intersection",
    "PhysicalOperator",
    "PhysicalPlan",
    "Product",
    "Project",
    "Rename",
    "Scan",
    "Union",
]
