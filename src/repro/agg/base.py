"""Answer-aggregation strategies behind one :class:`Aggregator` protocol.

The paper's online phase buys ``b(a)`` answers per attribute per object
and averages them uniformly — one spammy or colluding worker therefore
degrades every estimate their answers touch.  This package makes the
aggregation step pluggable:

``uniform``
    Today's arithmetic mean, byte-identical to the historical
    ``float(np.mean(answers))`` default (the whole serving tier's
    determinism gates compare against it, so it must never change).
``trimmed``
    Symmetric trimmed mean: sort, drop ``floor(n * trim_fraction)``
    answers from each end, average the middle.  Robust to a bounded
    fraction of arbitrary outliers with zero per-worker state.
``huber``
    Huber M-estimator via iteratively reweighted least squares around
    the median/MAD.  Softer than trimming: outliers are down-weighted
    in proportion to how far they sit, not discarded outright.
``reliability``
    Precision-weighted mean using per-worker reliabilities learned by
    :class:`~repro.agg.reliability.ReliabilityModel` from
    cross-attribute residual consistency (T-Crowd-style joint
    inference).  Needs worker-attributed answers.

Determinism contract (load-bearing for wave-batching independence and
crash-resume byte-identity):

* Weighted sums go through :func:`weighted_mean`, which uses
  :func:`math.fsum` — *exactly rounded*, hence permutation-invariant in
  answer arrival order without sorting.
* When every weight is equal the weighted mean falls through to
  ``float(np.mean(values))`` on the arrival-order array, so a
  reliability aggregator whose learned precisions are all equal is
  *bitwise* equal to ``uniform`` (property-tested).
* ``trimmed``/``huber`` canonicalise through ``np.sort`` first, so they
  are arrival-order invariant by construction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Legal ``--aggregator`` / ``DisQParams.aggregator`` values.
AGGREGATORS = ("uniform", "trimmed", "huber", "reliability")

#: Sentinel worker id for answers with no recorded provenance (old
#: journals, pre-seeded caches).  Aggregators give it neutral weight.
UNATTRIBUTED = -1


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Exactly-rounded weighted mean, permutation-invariant.

    ``fsum`` computes the correctly rounded sum of the product multiset,
    so any arrival order of ``(value, weight)`` pairs yields the same
    float.  The equal-weights branch returns ``float(np.mean(values))``
    on the arrival-order array instead — *that* is what makes
    reliability-with-flat-precisions bitwise equal to the historical
    uniform mean (the system never reorders answer tapes, so arrival
    order is itself canonical there).
    """
    if not len(values):
        raise ConfigurationError("cannot aggregate an empty answer set")
    first = float(weights[0])
    if all(float(w) == first for w in weights):
        return float(np.mean(np.asarray(values, dtype=np.float64)))
    num = math.fsum(float(v) * float(w) for v, w in zip(values, weights))
    den = math.fsum(float(w) for w in weights)
    if den <= 0.0:
        return float(np.mean(np.asarray(values, dtype=np.float64)))
    return num / den


def effective_sample_size(weights: Sequence[float]) -> float:
    """Kish effective sample size ``(Σw)² / Σw²`` (fsum, exact)."""
    total = math.fsum(float(w) for w in weights)
    square = math.fsum(float(w) * float(w) for w in weights)
    if square <= 0.0:
        return 0.0
    return (total * total) / square


class Aggregator:
    """One strategy for collapsing an answer tape into an estimate.

    Subclasses override :meth:`aggregate` (and :meth:`effective_count`
    when weighting changes how much evidence the answers carry).
    ``needs_workers`` marks strategies that require worker-attributed
    answers; callers must then fetch via ``fetch_attributed`` sources.
    """

    #: Strategy name, one of :data:`AGGREGATORS`.
    name: str = "uniform"
    #: True when :meth:`aggregate` needs per-answer worker ids.
    needs_workers: bool = False

    def aggregate(
        self,
        values: np.ndarray | Sequence[float],
        worker_ids: Sequence[int] | None = None,
    ) -> float:
        """Collapse one key's answers into a single estimate."""
        raise NotImplementedError

    def effective_count(
        self,
        values: np.ndarray | Sequence[float],
        worker_ids: Sequence[int] | None = None,
    ) -> float:
        """How many uniform answers this tape is worth (for intervals)."""
        return float(len(values))


class UniformAggregator(Aggregator):
    """The historical mean — byte-identical to ``float(np.mean(...))``."""

    name = "uniform"

    def aggregate(self, values, worker_ids=None) -> float:
        return float(np.mean(np.asarray(values, dtype=np.float64)))


class TrimmedAggregator(Aggregator):
    """Symmetric trimmed mean over the sorted answer tape."""

    name = "trimmed"

    def __init__(self, trim_fraction: float = 0.1) -> None:
        validate_trim_fraction(trim_fraction)
        self.trim_fraction = float(trim_fraction)

    def aggregate(self, values, worker_ids=None) -> float:
        tape = np.sort(np.asarray(values, dtype=np.float64))
        if not tape.size:
            raise ConfigurationError("cannot aggregate an empty answer set")
        drop = int(tape.size * self.trim_fraction)
        # trim_fraction < 0.5 guarantees 2*drop <= n-1, so the middle
        # slice is never empty.
        return float(np.mean(tape[drop : tape.size - drop]))

    def effective_count(self, values, worker_ids=None) -> float:
        n = len(values)
        return float(n - 2 * int(n * self.trim_fraction))


class HuberAggregator(Aggregator):
    """Huber M-estimator: IRLS around the median with MAD scale.

    A fixed iteration count and sorted canonical input keep it a pure
    function of the answer multiset — deterministic however a wave
    batches or orders its answers.
    """

    name = "huber"

    #: Fixed IRLS sweep count; convergence-threshold loops would make
    #: the result depend on float noise in the stopping test.
    ITERATIONS = 3

    #: Consistency factor making the MAD estimate sigma for Gaussians.
    MAD_SCALE = 1.4826

    def __init__(self, delta: float = 1.5) -> None:
        validate_huber_delta(delta)
        self.delta = float(delta)

    def _weights(self, tape: np.ndarray, center: float, scale: float) -> np.ndarray:
        spread = np.abs(tape - center) / scale
        with np.errstate(divide="ignore"):
            weights = np.where(spread > self.delta, self.delta / spread, 1.0)
        return weights

    def aggregate(self, values, worker_ids=None) -> float:
        tape = np.sort(np.asarray(values, dtype=np.float64))
        if not tape.size:
            raise ConfigurationError("cannot aggregate an empty answer set")
        center = float(np.median(tape))
        scale = self.MAD_SCALE * float(np.median(np.abs(tape - center)))
        if scale <= 0.0:
            # Half or more of the answers coincide with the median;
            # the median itself is the robust estimate.
            return center
        for _ in range(self.ITERATIONS):
            weights = self._weights(tape, center, scale)
            center = weighted_mean(tape, weights)
        return center

    def effective_count(self, values, worker_ids=None) -> float:
        tape = np.sort(np.asarray(values, dtype=np.float64))
        center = float(np.median(tape))
        scale = self.MAD_SCALE * float(np.median(np.abs(tape - center)))
        if scale <= 0.0:
            return float(tape.size)
        return effective_sample_size(self._weights(tape, center, scale))


def validate_trim_fraction(trim_fraction: float) -> float:
    """``[0, 0.5)`` and finite, else :class:`ConfigurationError`."""
    value = float(trim_fraction)
    if not math.isfinite(value) or not 0.0 <= value < 0.5:
        raise ConfigurationError(
            f"trim_fraction must be finite and in [0, 0.5), got {trim_fraction!r}"
        )
    return value


def validate_huber_delta(delta: float) -> float:
    """Finite and positive, else :class:`ConfigurationError`."""
    value = float(delta)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigurationError(
            f"huber delta must be finite and > 0, got {delta!r}"
        )
    return value


def validate_em_iterations(em_iterations: int) -> int:
    """Integer ``>= 1``, else :class:`ConfigurationError`."""
    if isinstance(em_iterations, float) and not float(em_iterations).is_integer():
        raise ConfigurationError(
            f"em_iterations must be an integer >= 1, got {em_iterations!r}"
        )
    value = int(em_iterations)
    if value < 1:
        raise ConfigurationError(
            f"em_iterations must be an integer >= 1, got {em_iterations!r}"
        )
    return value


def make_aggregator(
    name: str,
    *,
    trim_fraction: float = 0.1,
    huber_delta: float = 1.5,
    em_iterations: int = 5,
    model=None,
):
    """Build an aggregator by name, validating every numeric knob.

    ``reliability`` aggregators carry a
    :class:`~repro.agg.reliability.ReliabilityModel`; pass ``model`` to
    share one across planner/engine, otherwise a fresh model is made.
    """
    from repro.agg.reliability import ReliabilityAggregator, ReliabilityModel

    if name not in AGGREGATORS:
        raise ConfigurationError(
            f"unknown aggregator {name!r}; choose from {', '.join(AGGREGATORS)}"
        )
    # Knobs are validated even for strategies that ignore them: a CLI
    # typo like --trim-fraction 0.7 --aggregator huber should fail
    # loudly at admission, not silently do nothing.
    validate_trim_fraction(trim_fraction)
    validate_huber_delta(huber_delta)
    validate_em_iterations(em_iterations)
    if name == "uniform":
        return UniformAggregator()
    if name == "trimmed":
        return TrimmedAggregator(trim_fraction)
    if name == "huber":
        return HuberAggregator(huber_delta)
    if model is None:
        model = ReliabilityModel(em_iterations=em_iterations)
    return ReliabilityAggregator(model)
