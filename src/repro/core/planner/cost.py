"""Cost model for the logical planner.

The planner compares rewritten plans through a simple cost model: estimated
operator work as a function of input cardinalities.  The cardinalities come
from :class:`Statistics`, which every engine can produce cheaply —

* a :class:`~repro.relational.database.Database` reports relation sizes,
* a :class:`~repro.core.wsd.WSD` reports tuple counts per relation plus the
  fraction of fields whose component has more than one local world,
* a :class:`~repro.core.uwsdt.UWSDT` reports template-row counts plus the
  placeholder density per template (the quantity the paper's Figure 27
  tracks as ``|R|`` and ``#comp``).

Since PR 3 the statistics also carry a bounded reservoir *sample* of each
relation's template rows (:mod:`~repro.core.planner.sampling`): predicate
and join selectivities are estimated from the sample whenever one is
available, and fall back to the fixed constants (``EQUALITY_SELECTIVITY``
etc.) otherwise — so schema-only planning keeps working unchanged.

Per-operator constants are engine-specific (:class:`CostModel`): a WSD
product pays component ``ext`` copies per output tuple while a classical
product just concatenates rows, and the difference operator composes
components pairwise on both representation engines.  The planner only ever
compares plans for the *same* engine, so only the constants' ratios matter.

Uncertainty matters to cost: a selection over a template keeps every tuple
whose referenced field is a placeholder (lines 2–6 of Figure 16), so its
effective selectivity is ``s + d·(1 − s)`` for placeholder density ``d``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from ...relational.predicates import And, AttrAttr, AttrConst, Not, Or, Predicate, TruePredicate
from ..algebra.query import (
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
from .observed import ObservedCardinality, cardinality_key
from .sampling import (
    DEFAULT_SAMPLE_SIZE,
    RelationSample,
    join_selectivity,
    sample_database,
    sample_uwsdt,
    sample_wsd,
)

#: Cardinality assumed for relations the statistics do not know about.
DEFAULT_ROW_COUNT = 1_000

#: Assumed selectivity of an equality atom ``A = c`` / ``A = B`` when no
#: sample is available.
EQUALITY_SELECTIVITY = 0.1

#: Assumed selectivity of a range atom (``<``, ``<=``, ``>``, ``>=``).
RANGE_SELECTIVITY = 1.0 / 3.0

#: Floor applied to fixed-constant selectivity estimates before they feed a
#: cost formula — mirrors :func:`~repro.core.planner.sampling.floor_selectivity`
#: for sampled estimates.  A predicate the constants deem impossible (e.g.
#: ``¬TRUE``, or a deep conjunction of equalities) must not zero out every
#: cost downstream of it and make an arbitrarily bad plan look free.
FIXED_SELECTIVITY_FLOOR = 0.5 / DEFAULT_SAMPLE_SIZE


@dataclass(frozen=True)
class CostModel:
    """Per-engine cost constants, in units of "one tuple through one operator".

    The constants were calibrated by timing each operator on the census
    workload at bench sizes and normalizing to the classical select:

    * ``Database`` operators move plain tuples; the hash join's build and
      probe are as cheap as a scan.
    * ``WSD`` operators copy component columns (``ext``) per output tuple
      and ``select``/``project`` run the per-local-world machinery of
      Figure 9; ``difference`` composes components pairwise.
    * ``UWSDT`` operators are template-relation work plus component ``ext``
      only for placeholder fields — cheaper than WSD, dearer than classical.
    """

    name: str = "generic"
    select_tuple: float = 1.0
    project_tuple: float = 1.0
    rename_tuple: float = 1.0
    union_tuple: float = 1.0
    emit_tuple: float = 1.0
    join_build: float = 1.0
    join_probe: float = 1.0
    #: Per-outer-tuple cost of probing a prebuilt (cached) hash index in an
    #: index nested-loop join.  Dearer than ``join_probe`` — each probe is an
    #: individual index lookup rather than a bulk build-then-stream pass —
    #: but the inner side pays nothing, so small-outer/large-inner joins win.
    index_probe: float = 3.0
    difference_pair: float = 1.0
    #: ``"hand-tuned"`` for the built-in defaults, ``"calibrated"`` for
    #: constants fitted by :mod:`~repro.core.planner.calibrate`.
    source: str = "hand-tuned"

    #: The fields a calibration profile carries (everything but name/source).
    CONSTANT_FIELDS: ClassVar[Tuple[str, ...]] = (
        "select_tuple",
        "project_tuple",
        "rename_tuple",
        "union_tuple",
        "emit_tuple",
        "join_build",
        "join_probe",
        "index_probe",
        "difference_pair",
    )

    def constants(self) -> Dict[str, float]:
        """The tunable constants as a plain dict (profile JSON payload)."""
        return {field: getattr(self, field) for field in self.CONSTANT_FIELDS}

    @classmethod
    def from_constants(
        cls, name: str, constants: Mapping[str, float], source: str = "calibrated"
    ) -> "CostModel":
        """Build a model from a profile payload; unknown keys are rejected."""
        unknown = sorted(set(constants) - set(cls.CONSTANT_FIELDS))
        if unknown:
            raise ValueError(f"unknown cost constants {unknown!r}")
        return cls(name=name, source=source, **{k: float(v) for k, v in constants.items()})

    @classmethod
    def for_engine(cls, engine_name: str) -> "CostModel":
        """The active model for an engine: calibrated profile first, then the
        hand-tuned constants as fallback.

        A profile is active after :func:`load_cost_profile` /
        :func:`install_cost_profile`, or automatically when the
        ``REPRO_COST_PROFILE`` environment variable names a profile JSON
        file at first use.
        """
        _ensure_env_profile()
        model = _PROFILE_MODELS.get(engine_name)
        if model is not None:
            return model
        return COST_MODELS.get(engine_name, GENERIC_COST)


#: Back-compatible defaults: with every constant at 1.0 the formulas reduce
#: to the PR 1 cost model exactly.
GENERIC_COST = CostModel()

DATABASE_COST = CostModel(
    name="database",
    select_tuple=0.5,
    project_tuple=0.6,
    rename_tuple=0.4,
    union_tuple=0.8,
    emit_tuple=1.0,
    join_build=1.0,
    join_probe=1.0,
    index_probe=2.5,
    difference_pair=0.8,
)

WSD_COST = CostModel(
    name="wsd",
    select_tuple=2.5,
    project_tuple=3.0,
    rename_tuple=2.0,
    union_tuple=2.0,
    emit_tuple=6.0,
    join_build=1.5,
    join_probe=1.5,
    difference_pair=25.0,
)

UWSDT_COST = CostModel(
    name="uwsdt",
    select_tuple=1.0,
    project_tuple=1.5,
    rename_tuple=1.8,
    union_tuple=1.2,
    emit_tuple=2.5,
    join_build=1.0,
    join_probe=1.0,
    index_probe=2.5,
    difference_pair=15.0,
)

#: Cost models keyed by ``Statistics.engine``.
COST_MODELS: Dict[str, CostModel] = {
    "generic": GENERIC_COST,
    "database": DATABASE_COST,
    "wsd": WSD_COST,
    "uwsdt": UWSDT_COST,
}


# --------------------------------------------------------------------------- #
# Calibrated-constant profiles (written by repro.core.planner.calibrate)
# --------------------------------------------------------------------------- #

#: Environment variable naming a profile JSON file to auto-load at first use.
COST_PROFILE_ENV = "REPRO_COST_PROFILE"

#: The ``format`` marker every profile JSON document must carry.
COST_PROFILE_FORMAT = "repro-cost-profile"

_PROFILE_MODELS: Dict[str, CostModel] = {}
_PROFILE_PATH: Optional[str] = None
_PROFILE_ENV_CHECKED = False


def parse_cost_profile(document: Mapping[str, Any]) -> Dict[str, CostModel]:
    """Parse a profile JSON document into per-engine calibrated models.

    The document format (see docs/planner.md) is::

        {"format": "repro-cost-profile", "version": 1,
         "engines": {"uwsdt": {"select_tuple": 1.03, ...}, ...},
         "metadata": {...}}
    """
    if document.get("format") != COST_PROFILE_FORMAT:
        raise ValueError(
            f"not a cost profile (format={document.get('format')!r}, "
            f"expected {COST_PROFILE_FORMAT!r})"
        )
    engines = document.get("engines")
    if not isinstance(engines, Mapping):
        raise ValueError("cost profile is missing the 'engines' mapping")
    return {
        name: CostModel.from_constants(name, constants)
        for name, constants in engines.items()
    }


def install_cost_profile(models: Mapping[str, CostModel], path: Optional[str] = None) -> None:
    """Make ``CostModel.for_engine`` serve the given calibrated models."""
    global _PROFILE_PATH, _PROFILE_ENV_CHECKED
    # An explicit install overrides (and must not later be clobbered by)
    # the REPRO_COST_PROFILE environment variable.
    _PROFILE_ENV_CHECKED = True
    _PROFILE_MODELS.clear()
    _PROFILE_MODELS.update(models)
    _PROFILE_PATH = path


def load_cost_profile(path: str) -> Dict[str, CostModel]:
    """Load and install a calibration profile from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    models = parse_cost_profile(document)
    install_cost_profile(models, path=os.fspath(path))
    return models


def clear_cost_profile() -> None:
    """Drop any installed profile; ``for_engine`` falls back to hand-tuned."""
    global _PROFILE_PATH, _PROFILE_ENV_CHECKED
    _PROFILE_MODELS.clear()
    _PROFILE_PATH = None
    _PROFILE_ENV_CHECKED = True  # an explicit clear also overrides the env var


def active_cost_profile_path() -> Optional[str]:
    """Path of the installed profile, or None when running on hand-tuned
    constants (or when the profile was installed without a path)."""
    return _PROFILE_PATH


def _ensure_env_profile() -> None:
    global _PROFILE_ENV_CHECKED
    if _PROFILE_ENV_CHECKED:
        return
    _PROFILE_ENV_CHECKED = True
    path = os.environ.get(COST_PROFILE_ENV)
    if not path:
        return
    try:
        load_cost_profile(path)
    except (OSError, TypeError, ValueError, json.JSONDecodeError):
        # A broken profile must never take planning down; fall back silently
        # to the hand-tuned constants.  (TypeError: non-numeric constants or
        # a non-mapping 'engines' payload.)
        pass


def uwsdt_relation_statistics(uwsdt: Any, relation_name: str) -> Tuple[int, float]:
    """``(row count, placeholder density)`` of one UWSDT relation.

    The single source of the density formula — shared by
    ``Statistics.from_uwsdt`` and the statistics catalog, whose cached
    entries must agree exactly with fresh statistics.
    """
    rows = uwsdt.template_size(relation_name)
    arity = uwsdt.schema.relation(relation_name).arity
    placeholders = uwsdt.relation_placeholder_count(relation_name)
    return rows, min(1.0, placeholders / max(1, rows * arity))


def wsd_relation_statistics(wsd: Any, relation_name: str) -> Tuple[int, float]:
    """``(row count, uncertain-field density)`` of one WSD relation.

    A field is uncertain when its component has more than one local world;
    shared by ``Statistics.from_wsd`` and the statistics catalog.
    """
    rows = len(wsd.tuple_ids.get(relation_name, ()))
    arity = wsd.schema.relation(relation_name).arity
    uncertain = 0
    for component in wsd.components:
        if component.size <= 1:
            continue
        uncertain += sum(1 for field in component.fields if field.relation == relation_name)
    return rows, min(1.0, uncertain / max(1, rows * arity))


class Statistics:
    """Per-relation cardinality/uncertainty statistics feeding the cost model."""

    def __init__(
        self,
        row_counts: Optional[Mapping[str, int]] = None,
        placeholder_densities: Optional[Mapping[str, float]] = None,
        attributes: Optional[Mapping[str, Tuple[str, ...]]] = None,
        samples: Optional[Mapping[str, RelationSample]] = None,
        engine: str = "generic",
        sample_provenance: Optional[Mapping[str, str]] = None,
        source: str = "adhoc",
        observed: Optional[Mapping[str, ObservedCardinality]] = None,
    ) -> None:
        self.row_counts: Dict[str, int] = dict(row_counts or {})
        self.placeholder_densities: Dict[str, float] = dict(placeholder_densities or {})
        #: Base-relation attribute lists (the planner's catalog for rewrites).
        self.attributes: Dict[str, Tuple[str, ...]] = {
            name: tuple(attrs) for name, attrs in (attributes or {}).items()
        }
        #: Bounded reservoir samples keyed by relation name (may be empty).
        self.samples: Dict[str, RelationSample] = dict(samples or {})
        #: Which engine these statistics describe (selects the CostModel).
        self.engine = engine
        #: Where these statistics came from: ``"catalog"`` for catalog views,
        #: ``"fresh"`` for direct engine sampling, ``"adhoc"`` for hand-built.
        self.source = source
        #: Per-relation estimate provenance for ``Plan.explain()``:
        #: ``"cached-sample"`` / ``"fresh-sample"`` / ``"fixed-constants"``.
        if sample_provenance is None:
            sample_provenance = {name: "fresh-sample" for name in self.samples}
        self.sample_provenance: Dict[str, str] = dict(sample_provenance)
        #: Executed-operator cardinality feedback, keyed by
        #: :func:`~repro.core.planner.observed.cardinality_key` and already
        #: filtered for observation count and staleness by
        #: :meth:`~repro.core.planner.catalog.StatisticsCatalog.observed_view`.
        #: When a subtree's key is present, its observed EWMA overrides the
        #: sampled estimate — runtime truth beats a 256-row sample.
        self.observed: Dict[str, ObservedCardinality] = dict(observed or {})
        #: Cheap guard: estimation only computes cardinality keys when at
        #: least one observation exists, so cold planning pays nothing.
        self.has_observed = bool(self.observed)

    def provenance(self, relation_name: str) -> str:
        """How this relation's estimates are derived (for ``explain()``)."""
        return self.sample_provenance.get(relation_name, "fixed-constants")

    def observed_rows(self, key: str) -> Optional[float]:
        """Observed output-cardinality EWMA for a keyed subtree, if any."""
        record = self.observed.get(key)
        return None if record is None else record.actual_rows

    # -- constructors ------------------------------------------------------ #

    @classmethod
    def from_database(
        cls,
        database: Any,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        sample_relations: Optional[Tuple[str, ...]] = None,
    ) -> "Statistics":
        rows = {relation.schema.name: len(relation) for relation in database}
        attrs = {relation.schema.name: relation.schema.attributes for relation in database}
        densities = {name: 0.0 for name in rows}
        samples = (
            sample_database(database, sample_size, only=sample_relations)
            if sample_size
            else {}
        )
        return cls(rows, densities, attrs, samples, engine="database", source="fresh")

    @classmethod
    def from_wsd(
        cls,
        wsd: Any,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        sample_relations: Optional[Tuple[str, ...]] = None,
    ) -> "Statistics":
        attrs = {rs.name: rs.attributes for rs in wsd.schema}
        rows: Dict[str, int] = {}
        densities: Dict[str, float] = {}
        for rs in wsd.schema:
            rows[rs.name], densities[rs.name] = wsd_relation_statistics(wsd, rs.name)
        samples = sample_wsd(wsd, sample_size, only=sample_relations) if sample_size else {}
        return cls(rows, densities, attrs, samples, engine="wsd", source="fresh")

    @classmethod
    def from_uwsdt(
        cls,
        uwsdt: Any,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        sample_relations: Optional[Tuple[str, ...]] = None,
    ) -> "Statistics":
        attrs = {rs.name: rs.attributes for rs in uwsdt.schema}
        rows: Dict[str, int] = {}
        densities: Dict[str, float] = {}
        for rs in uwsdt.schema:
            rows[rs.name], densities[rs.name] = uwsdt_relation_statistics(uwsdt, rs.name)
        samples = (
            sample_uwsdt(uwsdt, sample_size, only=sample_relations) if sample_size else {}
        )
        return cls(rows, densities, attrs, samples, engine="uwsdt", source="fresh")

    @classmethod
    def from_engine(
        cls,
        engine: Any,
        sample_size: Optional[int] = None,
        sample_relations: Optional[Tuple[str, ...]] = None,
    ) -> "Statistics":
        """Statistics for a live engine, served from its statistics catalog.

        This is a thin view over the engine's attached
        :class:`~repro.core.planner.catalog.StatisticsCatalog`: samples, row
        counts and densities are cached per relation and invalidated by
        version/revision counters, so planning a repeated (or similar) query
        against an unchanged engine performs **zero** sampling work.
        ``sample_relations`` restricts row sampling to the named relations —
        planning passes the query's base relations, so relations a query
        never touches are not scanned (their row counts, densities and
        attributes are still reported).  ``sample_size=None`` (the default)
        defers to the attached catalog's configured size, so an engine set
        up with ``catalog_for(engine, sample_size=...)`` keeps that choice
        across every ``Query.plan``/``Query.run``.  Use ``from_database`` /
        ``from_wsd`` / ``from_uwsdt`` to force fresh, uncached sampling.
        """
        from .catalog import catalog_for

        catalog = (
            catalog_for(engine)
            if sample_size is None
            else catalog_for(engine, sample_size)
        )
        return catalog.statistics(sample_relations, sample_size)

    # -- lookups ----------------------------------------------------------- #

    def row_count(self, relation_name: str) -> int:
        return self.row_counts.get(relation_name, DEFAULT_ROW_COUNT)

    def placeholder_density(self, relation_name: str) -> float:
        return self.placeholder_densities.get(relation_name, 0.0)

    def relation_attributes(self, relation_name: str) -> Optional[Tuple[str, ...]]:
        return self.attributes.get(relation_name)

    def sample(self, relation_name: str) -> Optional[RelationSample]:
        return self.samples.get(relation_name)

    def cost_model(self) -> CostModel:
        """The active model for this engine (calibrated profile, else hand-tuned)."""
        return CostModel.for_engine(self.engine)

    def without_samples(self) -> "Statistics":
        """A copy that estimates with the fixed constants only (for explain)."""
        return Statistics(
            self.row_counts, self.placeholder_densities, self.attributes, None, self.engine
        )

    def __repr__(self) -> str:
        return f"Statistics({self.row_counts!r}, engine={self.engine!r})"


@dataclass(frozen=True)
class CostEstimate:
    """Estimated output cardinality and cumulative operator work of a plan."""

    rows: float
    cost: float

    def __repr__(self) -> str:
        return f"CostEstimate(rows≈{self.rows:.0f}, cost≈{self.cost:.0f})"


def predicate_selectivity(predicate: Predicate) -> float:
    """Fixed-constant selectivity of a selection predicate (no sample)."""
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, (AttrConst, AttrAttr)):
        op = predicate.op
        if op in ("=", "=="):
            return EQUALITY_SELECTIVITY
        if op in ("!=", "<>"):
            return 1.0 - EQUALITY_SELECTIVITY
        return RANGE_SELECTIVITY
    if isinstance(predicate, And):
        selectivity = 1.0
        for part in predicate.parts:
            selectivity *= predicate_selectivity(part)
        return selectivity
    if isinstance(predicate, Or):
        miss = 1.0
        for part in predicate.parts:
            miss *= 1.0 - predicate_selectivity(part)
        return 1.0 - miss
    if isinstance(predicate, Not):
        return 1.0 - predicate_selectivity(predicate.inner)
    return 0.5


def floored_predicate_selectivity(predicate: Predicate) -> float:
    """Fixed-constant selectivity clamped into ``(0, 1]``.

    :func:`predicate_selectivity` itself is kept pure (so ``¬p`` composes as
    ``1 − p``); the floor is applied here, at the boundary where the value
    feeds a cost formula.
    """
    return max(min(predicate_selectivity(predicate), 1.0), FIXED_SELECTIVITY_FLOOR)


def selection_selectivity(predicate: Predicate, sample: Optional[RelationSample]) -> float:
    """Sampled selectivity when a sample can answer, fixed constants otherwise."""
    if sample is not None:
        sampled = sample.selectivity(predicate)
        if sampled is not None:
            return sampled
    return floored_predicate_selectivity(predicate)


def equality_join_selectivity(
    left_sample: Optional[RelationSample],
    left_attr: str,
    right_sample: Optional[RelationSample],
    right_attr: str,
) -> float:
    """Sampled ``A = B`` selectivity across two subplans, or the fixed constant."""
    if left_sample is not None and right_sample is not None:
        sampled = join_selectivity(left_sample, left_attr, right_sample, right_attr)
        if sampled is not None:
            return sampled
    return EQUALITY_SELECTIVITY


def output_attributes(query: Query, statistics: Statistics) -> Optional[Tuple[str, ...]]:
    """Output attribute list of a query, or None if a base schema is unknown.

    This is the planner's schema inference: rewrite legality (which side of a
    product a predicate may move to, what a projection may drop) and the
    width-aware cost factor both derive from it.
    """
    if isinstance(query, BaseRelation):
        return statistics.relation_attributes(query.name)
    if isinstance(query, Select):
        return output_attributes(query.child, statistics)
    if isinstance(query, Project):
        return tuple(query.attributes)
    if isinstance(query, Rename):
        child = output_attributes(query.child, statistics)
        if child is None:
            return None
        return tuple(query.new if a == query.old else a for a in child)
    if isinstance(query, (Product, Join)):
        left = output_attributes(query.left, statistics)
        right = output_attributes(query.right, statistics)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(query, (Union, Difference, Intersection)):
        return output_attributes(query.left, statistics)
    raise TypeError(f"cannot infer attributes of {query!r}")


#: Arity assumed when schema inference cannot resolve a subquery's width.
DEFAULT_ARITY = 4


def arity_width(arity: int) -> float:
    """Per-tuple cost factor growing with the tuple width.

    Census templates are ~50 attributes wide; materializing a product of two
    of them moves twice as many values per tuple as scanning one.
    """
    return 1.0 + 0.1 * arity


def _width_factor(query: Query, statistics: Statistics) -> float:
    attributes = output_attributes(query, statistics)
    return arity_width(len(attributes) if attributes is not None else DEFAULT_ARITY)


# --------------------------------------------------------------------------- #
# Per-operator steps — shared by estimate() and the join-order enumerator, so
# a plan assembled by the enumerator costs exactly what estimate() reports.
# --------------------------------------------------------------------------- #


def select_step(
    rows: float, selectivity: float, density: float, model: CostModel
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of a selection over ``rows`` input tuples.

    Placeholder rows survive every selection on the representation (they are
    filtered world-by-world inside their components), hence the density bump.
    """
    effective = selectivity + density * (1.0 - selectivity)
    return rows * effective, rows * model.select_tuple


def join_step(
    left_rows: float,
    right_rows: float,
    selectivity: float,
    out_arity: int,
    model: CostModel,
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of a hash equi-join: build + probe + emit."""
    out = left_rows * right_rows * selectivity
    cost = (
        left_rows * model.join_build
        + right_rows * model.join_probe
        + out * arity_width(out_arity) * model.emit_tuple
    )
    return out, cost


def index_join_step(
    outer_rows: float,
    inner_rows: float,
    selectivity: float,
    out_arity: int,
    model: CostModel,
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of an index nested-loop equi-join.

    The outer side probes a prebuilt hash index over the inner *base*
    relation (the :class:`~repro.relational.indexes.IndexPool` index on a
    Database, ``UWSDT.template_index`` on a UWSDT — both cached on the
    engine, so the inner side contributes no per-query build cost).
    """
    out = outer_rows * inner_rows * selectivity
    cost = outer_rows * model.index_probe + out * arity_width(out_arity) * model.emit_tuple
    return out, cost


#: Engines whose backends can execute an index nested-loop join (the WSD
#: operators resolve fields through components, so there is no index to probe).
INDEX_JOIN_ENGINES = ("database", "uwsdt")


def product_step(
    left_rows: float, right_rows: float, out_arity: int, model: CostModel
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of a cartesian product."""
    out = left_rows * right_rows
    return out, out * arity_width(out_arity) * model.emit_tuple


def project_step(rows: float, in_arity: int, model: CostModel) -> float:
    """Added cost of a projection over ``rows`` tuples of ``in_arity`` width."""
    return rows * arity_width(in_arity) * model.project_tuple


def observed_override(
    query: Query,
    statistics: Statistics,
    rows: float,
    added: float,
    out_arity: Optional[int],
    model: CostModel,
) -> Tuple[float, float]:
    """Replace an estimated output cardinality with its observed EWMA.

    Only the *emit* component of an operator's cost scales with output rows,
    so that term is repriced by the delta (when ``out_arity`` is given);
    build/probe/scan components depend on the inputs alone and stand.
    Shared by the recursive estimator and the join-order enumerator so both
    see the same corrected numbers for the same subtree.
    """
    observed = statistics.observed_rows(cardinality_key(query))
    if observed is None:
        return rows, added
    if out_arity is not None:
        added += (observed - rows) * arity_width(out_arity) * model.emit_tuple
    return observed, added


# --------------------------------------------------------------------------- #
# The recursive estimator
# --------------------------------------------------------------------------- #


@dataclass
class NodeEstimate:
    """Internal per-node estimate: cardinality, cost, derived sample, density."""

    rows: float
    cost: float
    sample: Optional[RelationSample]
    density: float

    def as_cost_estimate(self) -> CostEstimate:
        return CostEstimate(rows=self.rows, cost=self.cost)


def estimate(
    query: Query, statistics: Statistics, model: Optional[CostModel] = None
) -> CostEstimate:
    """Estimate output cardinality and total work of evaluating ``query``.

    The unit of cost is "one tuple touched by one operator", scaled by the
    per-engine constants of ``model`` (defaulting to the model matching
    ``statistics.engine``).  Selectivities come from the statistics' row
    samples when available and from the fixed constants otherwise.
    """
    if model is None:
        model = statistics.cost_model()
    return _estimate(query, statistics, model).as_cost_estimate()


def _estimate(
    query: Query,
    statistics: Statistics,
    model: CostModel,
    memo: Optional[Dict[int, NodeEstimate]] = None,
) -> NodeEstimate:
    """Per-node estimate, optionally memoized by node identity.

    The memo makes one top-level call record an estimate for *every* node of
    the tree — the executor's lowering pass reads per-node cardinalities
    from it in a single bottom-up traversal instead of re-estimating each
    subtree (which would be quadratic in the sample work).
    """
    if memo is not None:
        cached = memo.get(id(query))
        if cached is not None:
            return cached
    result = _estimate_uncached(query, statistics, model, memo)
    if memo is not None:
        memo[id(query)] = result
    return result


def _estimate_uncached(
    query: Query,
    statistics: Statistics,
    model: CostModel,
    memo: Optional[Dict[int, NodeEstimate]] = None,
) -> NodeEstimate:
    if isinstance(query, BaseRelation):
        return NodeEstimate(
            rows=float(statistics.row_count(query.name)),
            cost=0.0,
            sample=statistics.sample(query.name),
            density=statistics.placeholder_density(query.name),
        )
    if isinstance(query, Select):
        child = _estimate(query.child, statistics, model, memo)
        selectivity = selection_selectivity(query.predicate, child.sample)
        rows, added = select_step(child.rows, selectivity, child.density, model)
        if statistics.has_observed:
            # Selection cost is per *input* tuple; only the cardinality moves.
            rows, added = observed_override(query, statistics, rows, added, None, model)
        sample = child.sample.filter(query.predicate) if child.sample is not None else None
        return NodeEstimate(rows, child.cost + added, sample, child.density)
    if isinstance(query, Project):
        child = _estimate(query.child, statistics, model, memo)
        attributes = output_attributes(query.child, statistics)
        in_arity = len(attributes) if attributes is not None else DEFAULT_ARITY
        sample = child.sample.project(query.attributes) if child.sample is not None else None
        return NodeEstimate(
            child.rows,
            child.cost + project_step(child.rows, in_arity, model),
            sample,
            child.density,
        )
    if isinstance(query, Rename):
        child = _estimate(query.child, statistics, model, memo)
        sample = child.sample.rename(query.old, query.new) if child.sample is not None else None
        return NodeEstimate(
            child.rows, child.cost + child.rows * model.rename_tuple, sample, child.density
        )
    if isinstance(query, Product):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        attributes = output_attributes(query, statistics)
        out_arity = len(attributes) if attributes is not None else DEFAULT_ARITY
        rows, added = product_step(left.rows, right.rows, out_arity, model)
        if statistics.has_observed:
            rows, added = observed_override(query, statistics, rows, added, out_arity, model)
        sample = (
            left.sample.cross(right.sample)
            if left.sample is not None and right.sample is not None
            else None
        )
        return NodeEstimate(
            rows, left.cost + right.cost + added, sample, max(left.density, right.density)
        )
    if isinstance(query, Join):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        attributes = output_attributes(query, statistics)
        out_arity = len(attributes) if attributes is not None else DEFAULT_ARITY
        selectivity = equality_join_selectivity(
            left.sample, query.left_attr, right.sample, query.right_attr
        )
        rows, added = join_step(left.rows, right.rows, selectivity, out_arity, model)
        if statistics.has_observed:
            rows, added = observed_override(query, statistics, rows, added, out_arity, model)
        sample = (
            left.sample.equijoin(right.sample, query.left_attr, query.right_attr)
            if left.sample is not None and right.sample is not None
            else None
        )
        return NodeEstimate(
            rows, left.cost + right.cost + added, sample, max(left.density, right.density)
        )
    if isinstance(query, Union):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        out = left.rows + right.rows
        sample = None
        if (
            left.sample is not None
            and right.sample is not None
            and left.sample.attributes == right.sample.attributes
        ):
            sample = RelationSample(
                "",
                left.sample.attributes,
                left.sample.rows + right.sample.rows,
                max(1, left.sample.population + right.sample.population),
            )
        return NodeEstimate(
            out,
            left.cost + right.cost + out * model.union_tuple,
            sample,
            max(left.density, right.density),
        )
    if isinstance(query, Difference):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        # On WSDs/UWSDTs difference composes components pairwise — by far the
        # paper's most expensive operator — so it is costed quadratically.
        return NodeEstimate(
            left.rows,
            left.cost + right.cost + left.rows * max(1.0, right.rows) * model.difference_pair,
            left.sample,
            max(left.density, right.density),
        )
    if isinstance(query, Intersection):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        # Evaluated natively on a Database, as A − (A − B) on the
        # representation engines; either way the work is difference-like
        # (pairwise on representations), and the output is bounded by the
        # smaller side.
        return NodeEstimate(
            min(left.rows, right.rows),
            left.cost + right.cost + left.rows * max(1.0, right.rows) * model.difference_pair,
            None,
            max(left.density, right.density),
        )
    raise TypeError(f"cannot estimate cost of {query!r}")


def estimate_node(query: Query, statistics: Statistics, model: Optional[CostModel] = None) -> NodeEstimate:
    """Full per-node estimate (rows, cost, derived sample, density).

    Used by the join-order enumerator to seed leaf states that cost exactly
    what :func:`estimate` would report for the same subtree.
    """
    if model is None:
        model = statistics.cost_model()
    return _estimate(query, statistics, model)


def estimate_forest(
    query: Query,
    statistics: Statistics,
    model: Optional[CostModel] = None,
    memo: Optional[Dict[int, NodeEstimate]] = None,
) -> Dict[int, NodeEstimate]:
    """Estimates for *every* node of ``query``, keyed by ``id(node)``.

    One bottom-up pass fills the memo — the executor's lowering reads
    per-node cardinalities from it instead of re-estimating each subtree.
    Pass an existing ``memo`` to extend it with nodes of a further tree.
    """
    if model is None:
        model = statistics.cost_model()
    if memo is None:
        memo = {}
    _estimate(query, statistics, model, memo)
    return memo
