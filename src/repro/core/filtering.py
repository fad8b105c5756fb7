"""Attribute-filtering strategies (Section 3.6).

"Manu supports three strategies for attribute filtering and uses a
cost-based model to choose the most suitable strategy for each segment":

* ``PRE_FILTER`` — evaluate the predicate first, then brute-force scan only
  the passing rows.  Wins when the filter is selective (few rows pass):
  cost is roughly ``selectivity * n * dim`` MACs.
* ``POST_FILTER`` — run the vector index with an amplified ``k`` and drop
  non-passing hits afterwards.  Wins when almost everything passes: cost is
  the index's sub-linear search amplified by ``1 / selectivity``.
* ``SCAN_FILTER`` — the paper's middle ground, where the index skips
  masked rows while it collects candidates.  Here it is costed as such
  (its amplification capped at 3x, the post-filter's at 8x), but it runs
  the post-filter: ``planned_search`` branches on ``PRE_FILTER`` only, so
  a scan-filter plan asks the index for an amplified ``k``, drops the
  non-passing candidates and escalates a starved row to an exact scan of
  the passing rows (``Segment.search``), as ``POST_FILTER`` does.

The chooser estimates each cost from the predicate's selectivity (measured
on the segment's attribute columns — cheap relative to vector math) and the
segment's index state, and picks the minimum.  Whatever it picks, a node
searches the segment on its own (the node arena scans no filtered member).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.expr import FilterExpression
from repro.core.segment import Segment


class FilterStrategy(enum.Enum):
    PRE_FILTER = "pre_filter"
    POST_FILTER = "post_filter"
    SCAN_FILTER = "scan_filter"


@dataclass(frozen=True)
class FilterPlan:
    """The chosen strategy with its inputs (exposed for explain/tests)."""

    strategy: FilterStrategy
    selectivity: float
    estimated_cost: float
    mask: np.ndarray


def _range_bounds(node) -> Optional[tuple[str, Optional[float], bool,
                                          Optional[float], bool]]:
    """Decompose a comparison into (field, low, incl, high, incl).

    Handles the index-friendly shapes ``field op const`` (possibly
    chained, e.g. ``10 < price <= 20``) on a single field; returns None
    for anything else.
    """
    from repro.core.expr import Compare, Const, Field
    if not isinstance(node, Compare):
        return None
    field_name: Optional[str] = None
    low: Optional[float] = None
    high: Optional[float] = None
    include_low = include_high = True
    for left, op, right in zip(node.operands, node.ops,
                               node.operands[1:]):
        if isinstance(left, Field) and isinstance(right, Const):
            field, const, direction = left, right, op
        elif isinstance(left, Const) and isinstance(right, Field):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                    "==": "=="}
            if op not in flip:
                return None
            field, const, direction = right, left, flip[op]
        else:
            return None
        if field_name is None:
            field_name = field.name
        elif field_name != field.name:
            return None
        if not isinstance(const.value, (int, float)) \
                or isinstance(const.value, bool):
            return None
        value = float(const.value)
        if direction == "==":
            low = high = value
        elif direction == "<":
            high, include_high = value, False
        elif direction == "<=":
            high, include_high = value, True
        elif direction == ">":
            low, include_low = value, False
        elif direction == ">=":
            low, include_low = value, True
        else:
            return None
    if field_name is None:
        return None
    return field_name, low, include_low, high, include_high


def attr_index_mask(segment: Segment, expr: FilterExpression
                    ) -> Optional[np.ndarray]:
    """Evaluate an index-friendly predicate via attribute indexes.

    Covers single-field numeric ranges (Sorted List / B-tree shapes) and
    label equality/membership (inverted label index) on sealed segments;
    returns None when the predicate is not index-friendly, in which case
    the caller falls back to full column evaluation.
    """
    from repro.core.expr import Compare, Const, Field, InList
    from repro.index.attr import LabelIndex, SortedListIndex
    ast = expr.ast
    n = segment.num_rows

    if isinstance(ast, Compare):
        bounds = _range_bounds(ast)
        if bounds is None:
            return None
        field, low, include_low, high, include_high = bounds
        index = segment.attr_index(field)
        if not isinstance(index, SortedListIndex):
            return None
        rows = index.range(low, high, include_low=include_low,
                           include_high=include_high)
    elif isinstance(ast, InList) and isinstance(ast.operand, Field):
        index = segment.attr_index(ast.operand.name)
        if not isinstance(index, LabelIndex):
            return None
        labels = [item for item in ast.items if isinstance(item, str)]
        if len(labels) != len(ast.items):
            return None
        rows = index.isin(labels)
        if ast.negated:
            mask = np.ones(n, dtype=bool)
            mask[rows] = False
            return mask
    else:
        return None
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def compute_mask(segment: Segment, expr: FilterExpression) -> np.ndarray:
    """Evaluate the predicate over a segment's rows.

    Sealed segments answer index-friendly predicates (single-field
    numeric ranges, label membership) from their attribute indexes
    (Section 3.5: "Manu also supports indexes on the attribute field ...
    to accelerate attribute-based filtering"); everything else falls back
    to vectorized evaluation over the scalar columns.
    """
    fast = attr_index_mask(segment, expr)
    if fast is not None:
        return fast
    return expr.mask(segment.scalar_columns(), segment.num_rows)


def _index_search_cost(segment: Segment, field: str, k: int) -> float:
    """Rough MAC estimate of one indexed top-k on this segment."""
    n = max(segment.num_rows, 1)
    index = segment.index_for(field)
    if index is None and segment.num_temp_indexes(field) == 0:
        return float(n)  # will brute force anyway
    index_type = index.index_type if index is not None else "IVF_FLAT"
    if index_type.startswith("IVF") or index_type in ("IMI", "SSD"):
        # nprobe/nlist fraction of the lists plus the centroid pass.
        nprobe = getattr(index, "nprobe", 8) if index is not None else 4
        nlist = getattr(index, "nlist", 128) if index is not None else 16
        return n * min(1.0, nprobe / max(nlist, 1)) + nlist
    if index_type in ("HNSW", "NSG", "NGT", "IVF_HNSW"):
        ef = getattr(index, "ef_search", 64)
        return float(ef * np.log2(max(n, 2)))
    return float(n)  # flat / quantizer scans


def choose_strategy(segment: Segment, field: str, k: int,
                    expr: FilterExpression) -> FilterPlan:
    """Cost-based strategy selection for one segment."""
    mask = compute_mask(segment, expr)
    n = max(segment.num_rows, 1)
    passing = int(mask.sum())
    selectivity = passing / n

    pre_cost = float(passing)  # exact scan of passing rows
    base = _index_search_cost(segment, field, k)
    if selectivity <= 0.0:
        return FilterPlan(FilterStrategy.PRE_FILTER, 0.0, 0.0, mask)
    post_cost = base * min(n / max(passing, 1), 8.0)  # amplification capped
    scan_cost = base * min(1.0 / max(selectivity, 1e-6), 3.0)

    costs = {
        FilterStrategy.PRE_FILTER: pre_cost,
        FilterStrategy.POST_FILTER: post_cost,
        FilterStrategy.SCAN_FILTER: scan_cost,
    }
    if not segment.has_index(field) and segment.num_temp_indexes(field) == 0:
        # No index: every strategy degenerates to a scan; PRE is cheapest.
        strategy = FilterStrategy.PRE_FILTER
    else:
        strategy = min(costs, key=lambda s: costs[s])
    return FilterPlan(strategy, selectivity, costs[strategy], mask)


def planned_search(segment: Segment, field: str, queries: np.ndarray,
                   k: int, metric, plan: Optional[FilterPlan], stats=None,
                   forced: Optional[FilterStrategy] = None):
    """Search one segment under a filter plan (None: no filter); the
    segment's :class:`~repro.core.results.HitBlock`."""
    if plan is None:
        return segment.search(field, queries, k, metric, stats=stats)
    strategy = forced if forced is not None else plan.strategy
    return segment.search(field, queries, k, metric,
                          filter_mask=plan.mask, stats=stats,
                          force_brute=strategy is FilterStrategy.PRE_FILTER)


def filtered_search(segment: Segment, field: str, queries: np.ndarray,
                    k: int, metric, expr: Optional[FilterExpression],
                    stats=None,
                    forced: Optional[FilterStrategy] = None):
    """Search one segment honoring a filter with the chosen strategy.

    ``forced`` overrides the cost-based choice (used by the ablation
    benchmark comparing strategies head-to-head).
    Returns (the segment's :class:`~repro.core.results.HitBlock`,
    plan or None).
    """
    plan = choose_strategy(segment, field, k, expr) \
        if expr is not None else None
    return planned_search(segment, field, queries, k, metric, plan, stats,
                          forced), plan
