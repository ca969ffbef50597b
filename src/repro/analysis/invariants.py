"""The plan-invariant verifier: rewrites and lowered plans, checked.

Two families of invariants, both enabled by ``REPRO_VERIFY_PLANS=1`` (the
tier-1 suite and the possible-worlds oracle turn the flag on globally, so
every rewrite-rule application and every lowering in every test is
checked):

* **Rewrites are schema-preserving.**  After every successful rule firing
  the planner compares the inferred output attribute list of the tree
  before and after the rewrite (via
  :func:`~repro.analysis.schema.inferred_attributes`).  A rule that
  changes the output schema is a planner bug, reported with the rule name,
  both trees and both schemas.

* **Physical plans are well-formed.**  After lowering, the physical tree
  is checked for: attribute resolution through every operator (the same
  checks as the logical analyzer), hash-join/INLJ key compatibility,
  ``IndexScan`` only where the backend can probe an index (hashable
  equality predicate over a stored relation), and the plan's engine kind
  matching the backend that will execute it.  The plan cache checks that
  every plan it stores or serves was lowered for its own engine's kind.

Violations raise :class:`PlanInvariantError`.  Verification is off by
default in library use (zero overhead beyond one truthiness check); tests
and the CI suite run with it on.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple

from ..relational.errors import QueryError
from ..core.exec.physical import (
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
from .schema import SchemaContext, inferred_attributes

#: Environment variable that switches verification on (``1``/``true``/...).
VERIFY_ENV = "REPRO_VERIFY_PLANS"

_OVERRIDE: Optional[bool] = None
_REWRITES_VERIFIED = 0
_PLANS_VERIFIED = 0


class PlanInvariantError(QueryError):
    """A rewrite or a lowered plan violated a planner invariant."""


def set_verification(enabled: Optional[bool]) -> Optional[bool]:
    """Force verification on/off for this process (None restores the env
    variable's say); returns the previous override, for restoring."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = enabled
    return previous


def verification_enabled() -> bool:
    """Whether plan verification is active (override, else ``REPRO_VERIFY_PLANS``)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    value = os.environ.get(VERIFY_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def rewrites_verified() -> int:
    """Rewrite applications checked so far in this process (test probe)."""
    return _REWRITES_VERIFIED


def plans_verified() -> int:
    """Physical plans checked so far in this process (test probe)."""
    return _PLANS_VERIFIED


# --------------------------------------------------------------------------- #
# Rewrite verification
# --------------------------------------------------------------------------- #


def verify_rewrite(
    rule_name: str,
    phase: str,
    before: Any,
    after: Any,
    schema_context: Optional[SchemaContext] = None,
) -> None:
    """Assert one rule firing preserved the subtree's output schema.

    Comparison is on the *ordered* attribute list — a rule that permutes
    columns changes query results and is just as wrong as one that drops
    them.  Either side inferring to None (unknown base schema) skips the
    check: absence of information is not a violation.
    """
    global _REWRITES_VERIFIED
    _REWRITES_VERIFIED += 1
    before_attrs = inferred_attributes(before, schema_context)
    after_attrs = inferred_attributes(after, schema_context)
    if before_attrs is None or after_attrs is None:
        return
    if tuple(before_attrs) != tuple(after_attrs):
        raise PlanInvariantError(
            f"rewrite rule {rule_name!r} (phase {phase!r}) is not "
            f"schema-preserving:\n"
            f"  before {tuple(before_attrs)!r}:\n{before.to_text('    ')}\n"
            f"  after  {tuple(after_attrs)!r}:\n{after.to_text('    ')}"
        )


# --------------------------------------------------------------------------- #
# Physical plan verification
# --------------------------------------------------------------------------- #


def _fail(plan: PhysicalPlan, node: PhysicalOperator, reason: str) -> None:
    raise PlanInvariantError(
        f"malformed physical plan: {reason}\n"
        f"  at operator: {node.label()}\n{plan.explain()}"
    )


def _hashable_equality(predicate: Any) -> bool:
    from ..relational.predicates import AttrConst

    if not isinstance(predicate, AttrConst) or predicate.op not in ("=", "=="):
        return False
    try:
        hash(predicate.constant)
    except TypeError:
        return False
    return True


def verify_physical(
    plan: PhysicalPlan,
    backend: Any = None,
    schema_context: Optional[SchemaContext] = None,
) -> None:
    """Check a lowered plan's structural well-formedness.

    ``backend`` (optional) contributes capability checks — engine-kind
    match, index support; ``schema_context`` contributes attribute
    resolution.  Any information not supplied simply disables the checks
    that need it.
    """
    global _PLANS_VERIFIED
    _PLANS_VERIFIED += 1
    context = schema_context or SchemaContext.empty()

    if backend is not None and backend.kind != plan.engine:
        raise PlanInvariantError(
            f"plan lowered for engine kind {plan.engine!r} paired with a "
            f"{backend.kind!r} backend"
        )

    def visit(node: PhysicalOperator) -> Optional[Tuple[str, ...]]:
        """The subtree's output attributes, or None when unknown."""
        if isinstance(node, Scan):
            return context.relation_attributes(node.relation)
        if isinstance(node, IndexScan):
            if backend is not None and not backend.supports_index_scan:
                _fail(plan, node, "IndexScan on a backend without index support")
            if not _hashable_equality(node.predicate):
                _fail(
                    plan,
                    node,
                    f"IndexScan predicate {node.predicate!r} is not a hashable "
                    "equality — no index can serve it",
                )
            attrs = context.relation_attributes(node.relation)
            if attrs is not None:
                for attribute in node.predicate.attributes():
                    if attribute not in attrs:
                        _fail(
                            plan,
                            node,
                            f"IndexScan predicate references {attribute!r}, not an "
                            f"attribute of {node.relation!r} {tuple(attrs)!r}",
                        )
            return attrs
        if isinstance(node, IndexNestedLoopJoin):
            if not isinstance(node.inner, Scan):
                _fail(
                    plan,
                    node,
                    "IndexNestedLoopJoin inner input must be a base-relation Scan",
                )
            if backend is not None and not backend.supports_index_join:
                _fail(
                    plan, node, "IndexNestedLoopJoin on a backend without index joins"
                )
            outer_attrs = visit(node.outer)
            inner_attrs = context.relation_attributes(node.inner.relation)
            if outer_attrs is not None and node.left_attr not in outer_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.left_attr!r} not produced by the outer input "
                    f"{tuple(outer_attrs)!r}",
                )
            if inner_attrs is not None and node.right_attr not in inner_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.right_attr!r} not an attribute of "
                    f"{node.inner.relation!r} {tuple(inner_attrs)!r}",
                )
            if outer_attrs is None or inner_attrs is None:
                return None
            return outer_attrs + inner_attrs

        results = [visit(child) for child in node.children]
        if isinstance(node, Filter):
            attrs = results[0]
            if attrs is not None:
                for attribute in node.predicate.attributes():
                    if attribute not in attrs:
                        _fail(
                            plan,
                            node,
                            f"filter predicate references {attribute!r}, not in the "
                            f"input schema {tuple(attrs)!r}",
                        )
            return attrs
        if isinstance(node, Project):
            attrs = results[0]
            if attrs is not None:
                for attribute in node.attributes:
                    if attribute not in attrs:
                        _fail(
                            plan,
                            node,
                            f"projection references {attribute!r}, not in the input "
                            f"schema {tuple(attrs)!r}",
                        )
            return tuple(node.attributes)
        if isinstance(node, Rename):
            attrs = results[0]
            if attrs is None:
                return None
            if node.old not in attrs:
                _fail(
                    plan,
                    node,
                    f"rename of {node.old!r}, not in the input schema {tuple(attrs)!r}",
                )
            if node.new != node.old and node.new in attrs:
                _fail(
                    plan,
                    node,
                    f"rename {node.old!r}→{node.new!r} collides with an existing "
                    f"attribute in {tuple(attrs)!r}",
                )
            return tuple(node.new if a == node.old else a for a in attrs)
        if isinstance(node, HashJoin):
            left_attrs, right_attrs = results[0], results[1]
            if left_attrs is not None and node.left_attr not in left_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.left_attr!r} not produced by the left input "
                    f"{tuple(left_attrs)!r}",
                )
            if right_attrs is not None and node.right_attr not in right_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.right_attr!r} not produced by the right input "
                    f"{tuple(right_attrs)!r}",
                )
            if left_attrs is None or right_attrs is None:
                return None
            return left_attrs + right_attrs
        if isinstance(node, Product):
            left_attrs, right_attrs = results[0], results[1]
            if left_attrs is not None and right_attrs is not None:
                overlap = set(left_attrs) & set(right_attrs)
                if overlap:
                    _fail(
                        plan,
                        node,
                        f"product sides share attributes {sorted(overlap)!r}",
                    )
                return left_attrs + right_attrs
            return None
        if isinstance(node, (Union, Difference, Intersection)):
            left_attrs, right_attrs = results[0], results[1]
            if left_attrs is not None and right_attrs is not None:
                if tuple(left_attrs) != tuple(right_attrs):
                    _fail(
                        plan,
                        node,
                        f"{node.op_name} inputs are not union-compatible: "
                        f"{tuple(left_attrs)!r} vs {tuple(right_attrs)!r}",
                    )
            return left_attrs if left_attrs is not None else right_attrs
        # Unknown / future operator kinds: nothing to check structurally.
        return None

    visit(plan.root)


# --------------------------------------------------------------------------- #
# Plan-cache backend-kind consistency
# --------------------------------------------------------------------------- #


def verify_cached_backend(physical_engine: str, cache_engine: str) -> None:
    """Assert a plan-cache entry was lowered for its cache's engine kind.

    A cache belongs to one engine and is keyed by query fingerprint alone,
    so a plan lowered for any other kind must never enter or leave it.
    """
    if physical_engine != cache_engine:
        raise PlanInvariantError(
            f"plan-cache entry was lowered for {physical_engine!r}, but the "
            f"cache belongs to a {cache_engine!r} engine"
        )
