"""Static analysis over plan trees and over the codebase itself.

The algebra on world-set decompositions is only sound when every rewrite
preserves schema and every operator respects placeholder semantics.  Until
this package existed those invariants were enforced only *dynamically* — by
the possible-worlds oracle at test time — while a malformed query surfaced
as a deep ``KeyError`` in the middle of an operator.  ``repro.analysis``
checks them statically, at plan-construction time:

* :mod:`~repro.analysis.schema` — bottom-up attribute/type inference over
  the logical :class:`~repro.core.algebra.query.Query` algebra.  Unknown
  attributes, duplicate attributes after a join or rename, arity/type
  mismatches across set operations and ill-typed predicates are rejected at
  ``Query`` build or ``plan()`` time with a rendered tree pointing at the
  offending node.
* :mod:`~repro.analysis.invariants` — the plan-invariant verifier: every
  rewrite-rule output is checked against the pre-rewrite inferred schema
  (rewrites must be schema-preserving) and every lowered physical plan for
  structural well-formedness (attribute resolution, join key
  compatibility, index applicability, backend-kind consistency).  Enabled
  by ``REPRO_VERIFY_PLANS=1``; the tier-1 suite turns it on globally.
* :mod:`~repro.analysis.certainty` — an abstract-interpretation pass
  propagating per-attribute certain/maybe-placeholder facts through logical
  trees; ``explain()`` and ``explain_analyze`` render its per-node
  verdicts.
* :mod:`~repro.analysis.lint` — Python-AST lint rules specific to this
  repository (``python -m repro.analysis --lint``), with a checked-in
  baseline so CI fails only on *new* violations.
"""

from __future__ import annotations

from .certainty import (
    CERTAIN,
    MAYBE,
    UNKNOWN,
    CertaintyContext,
    node_certainty,
    render_with_certainty,
)
from .invariants import (
    PlanInvariantError,
    VERIFY_ENV,
    verification_enabled,
    verify_physical,
    verify_rewrite,
)
from .schema import (
    AnalysisError,
    InferredSchema,
    SchemaContext,
    analyze,
    check_set_operation,
    inferred_attributes,
)

__all__ = [
    "AnalysisError",
    "CERTAIN",
    "CertaintyContext",
    "InferredSchema",
    "MAYBE",
    "PlanInvariantError",
    "SchemaContext",
    "UNKNOWN",
    "VERIFY_ENV",
    "analyze",
    "check_set_operation",
    "inferred_attributes",
    "node_certainty",
    "render_with_certainty",
    "verification_enabled",
    "verify_physical",
    "verify_rewrite",
]
