"""Greedy forward selection of the online budget distribution ``b``.

Finding the ``b`` maximizing expression 2 (or its weighted multi-target
sum, expression 10) is NP-hard in ``B_obj``, so the paper adopts the
greedy forward-selection approximation of Sabato & Kalai: starting from
``b = 0``, repeatedly grant one more question to the attribute with the
best marginal gain in (weighted) explained variance *per cent of cost*
until the per-object budget is exhausted.  Dividing by cost implements
the paper's handling of heterogeneous question prices ("divide each
attribute's contribution by its cost").

Two implementations share that contract:

* ``method="reference"`` — the naive loop: every candidate at every
  grant step is evaluated by a fresh ``O(k^3)`` solve
  (``O(B_obj * n * k^3)`` per target).  Kept verbatim as the ground
  truth the fast path is tested against.
* ``method="fast"`` (default) — the same scan order and comparison
  semantics as the reference, but every candidate is evaluated through
  one :class:`~repro.core.objective.IncrementalObjective` per target
  (Sherman–Morrison / bordered inverse updates, vectorized across
  candidates), dropping a grant step from ``O(n * k^3)`` solves to a
  couple of BLAS calls.  Selects identical counts to the reference
  (asserted by the test suite and the perf-smoke CI job).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import BudgetDistribution
from repro.core.objective import IncrementalObjective, explained_variance
from repro.errors import ConfigurationError

#: Marginal gains below this are treated as zero when ranking.
EPSILON = 1e-15

#: Slack used when checking a cost against the remaining budget.
_AFFORD_SLACK = 1e-9

#: Known allocator methods (``DisQParams.allocator`` values).
ALLOCATOR_METHODS = ("fast", "reference")


@dataclass(frozen=True)
class TargetObjective:
    """Pre-assembled statistics of one target, ready for evaluation."""

    weight: float
    s_o: np.ndarray
    s_a: np.ndarray
    s_c: np.ndarray

    def value(self, counts: np.ndarray) -> float:
        """Weighted explained variance under question counts ``counts``."""
        return self.weight * explained_variance(self.s_o, self.s_a, self.s_c, counts)


def _total_value(objectives: list[TargetObjective], counts: np.ndarray) -> float:
    return sum(objective.value(counts) for objective in objectives)


def _validate(
    objectives: list[TargetObjective], costs: np.ndarray
) -> np.ndarray:
    if not objectives:
        raise ConfigurationError("need at least one target objective")
    n = len(costs)
    for objective in objectives:
        if len(objective.s_o) != n:
            raise ConfigurationError("objective dimensions disagree with costs")
    costs = np.asarray(costs, dtype=float)
    if (costs <= 0).any():
        raise ConfigurationError("question costs must be positive")
    return costs


def greedy_counts_reference(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
) -> np.ndarray:
    """The naive greedy loop (reference implementation)."""
    costs = _validate(objectives, costs)
    n = len(costs)
    counts = np.zeros(n, dtype=int)
    remaining = float(budget_cents)
    current = _total_value(objectives, counts)
    while True:
        affordable = np.where(costs <= remaining + _AFFORD_SLACK)[0]
        if affordable.size == 0:
            break
        best_index = -1
        best_rate = -np.inf
        best_value = current
        for i in affordable:
            trial = counts.copy()
            trial[i] += 1
            value = _total_value(objectives, trial)
            rate = (value - current) / costs[i]
            if rate > best_rate + EPSILON:
                best_rate = rate
                best_index = int(i)
                best_value = value
        if best_index < 0:
            break
        # Even a zero marginal gain consumes budget that cannot improve
        # anything else either, so we stop instead of burning it.
        if best_rate <= EPSILON and counts.sum() > 0:
            break
        counts[best_index] += 1
        remaining -= costs[best_index]
        current = best_value
    return counts


def greedy_counts_fast(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
) -> np.ndarray:
    """Incremental forward selection: reference semantics, fast math.

    Replays the reference loop's exact scan order and comparison rule
    (ascending index, strict ``EPSILON`` improvement to displace the
    incumbent), but candidate values come from the incremental
    evaluators' vectorized batch evaluation instead of per-candidate
    ``O(k^3)`` solves — so the selected counts match the reference
    while each grant step costs a couple of BLAS calls.
    """
    costs = _validate(objectives, costs)
    n = len(costs)
    evaluators = [
        IncrementalObjective(o.s_o, o.s_a, o.s_c, weight=o.weight)
        for o in objectives
    ]
    counts = np.zeros(n, dtype=int)
    remaining = float(budget_cents)
    granted = 0
    while True:
        affordable = np.where(costs <= remaining + _AFFORD_SLACK)[0]
        if affordable.size == 0:
            break
        current = sum(evaluator.value for evaluator in evaluators)
        totals = evaluators[0].values_with_all()
        for evaluator in evaluators[1:]:
            totals = totals + evaluator.values_with_all()
        best_index = -1
        best_rate = -np.inf
        for i in affordable:
            rate = (totals[i] - current) / costs[i]
            if rate > best_rate + EPSILON:
                best_rate = rate
                best_index = int(i)
        if best_index < 0:
            break
        if best_rate <= EPSILON and granted > 0:
            break
        counts[best_index] += 1
        granted += 1
        remaining -= costs[best_index]
        for evaluator in evaluators:
            evaluator.commit(best_index)
    return counts


def apply_reliability_gains(
    objectives: list[TargetObjective], gains: np.ndarray
) -> list[TargetObjective]:
    """Shrink per-attribute answer variance by realized reliability.

    The objective's ``Diag(S_c / b)`` term models the variance of a
    ``b``-answer *uniform* mean.  Under reliability weighting the
    estimator's variance is smaller by the weighting efficiency
    ``gain = mean(rho) * mean(1/rho) >= 1`` (AM–HM), so the allocator
    should plan with ``S_c / gain`` — buying fewer answers where the
    crowd has proven precise and reinvesting the cents elsewhere.  A
    gain of exactly 1 everywhere reproduces the unweighted objectives
    (and therefore byte-identical counts) because ``x / 1.0 == x``
    exactly in IEEE-754.

    Applied to the *inputs* of the greedy loop, so both allocator
    methods (fast / reference) see the identical adjusted problem and
    keep their equivalence guarantees.
    """
    gains = np.asarray(gains, dtype=float)
    if not objectives:
        raise ConfigurationError("need at least one target objective")
    if gains.shape != objectives[0].s_c.shape:
        raise ConfigurationError(
            "reliability gains misaligned with objective attributes"
        )
    if not np.isfinite(gains).all() or (gains < 1.0).any():
        raise ConfigurationError(
            "reliability gains must be finite and >= 1"
        )
    return [
        TargetObjective(
            weight=o.weight, s_o=o.s_o, s_a=o.s_a, s_c=o.s_c / gains
        )
        for o in objectives
    ]


def greedy_counts(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
    method: str = "fast",
    metrics=None,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy forward selection of per-attribute question counts.

    Parameters
    ----------
    objectives:
        One pre-assembled objective per query target (shared attribute
        order across all of them).
    costs:
        Cost in cents of one value question per attribute.
    budget_cents:
        The per-object online budget ``B_obj``.
    method:
        ``"fast"`` (incremental evaluators, reference-identical counts,
        default) or ``"reference"`` (the naive re-solving loop).
    metrics:
        Optional duck-typed metrics sink
        (:class:`repro.obs.metrics.MetricsRegistry`).  One
        ``allocator.calls`` increment and the total granted question
        count (``allocator.grants``) are recorded *after* the greedy
        loop finishes — never inside it, so instrumentation costs
        nothing per grant and the disabled path is one ``None`` check.
    gains:
        Optional per-attribute reliability gains (aligned with
        ``costs``); see :func:`apply_reliability_gains`.  ``None``
        leaves the objectives untouched.
    """
    if gains is not None:
        objectives = apply_reliability_gains(objectives, gains)
    if method == "fast":
        counts = greedy_counts_fast(objectives, costs, budget_cents)
    elif method == "reference":
        counts = greedy_counts_reference(objectives, costs, budget_cents)
    else:
        raise ConfigurationError(
            f"unknown allocator method {method!r}; choose from {ALLOCATOR_METHODS}"
        )
    if metrics is not None:
        metrics.inc("allocator.calls")
        metrics.inc("allocator.grants", int(counts.sum()))
    return counts


def find_budget_distribution(
    objectives: list[TargetObjective],
    attributes: list[str],
    costs: np.ndarray,
    budget_cents: float,
    method: str = "fast",
    metrics=None,
    gains: np.ndarray | None = None,
) -> BudgetDistribution:
    """Greedy budget distribution as a named :class:`BudgetDistribution`."""
    counts = greedy_counts(
        objectives,
        np.asarray(costs, dtype=float),
        budget_cents,
        method=method,
        metrics=metrics,
        gains=gains,
    )
    return BudgetDistribution(
        {attribute: int(count) for attribute, count in zip(attributes, counts)}
    )


def max_explained_variance(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
    method: str = "fast",
) -> float:
    """Best (greedy) weighted explained variance achievable under a budget.

    This is the ``max_b`` term of the paper's loss function ``L(A, u, v)``.
    The final value is always computed by the reference formula on the
    selected counts, so both methods report it identically.
    """
    counts = greedy_counts(
        objectives, np.asarray(costs, dtype=float), budget_cents, method=method
    )
    return _total_value(objectives, counts)
