"""Admission control in front of the serving engine.

The engine already has one bounded queue (``max_queue``, shedding
``overflow`` past it).  :func:`admit_and_serve` is the front door ahead
of it: an :class:`AdmissionPolicy` grades every arrival down a
backpressure ladder **before** it touches engine state (DESIGN.md §15):

``admit``
    Queue depth is healthy and the deadline has headroom: the query
    enters the engine queue with full purchase rights.
``degrade``
    The tier is under pressure (depth at/above ``degrade_depth``) or
    the deadline is too thin to be worth buying for (headroom below
    ``min_headroom_s``): the query is admitted *cache-only* — it is
    served from whatever the shared cache holds, costs nothing, and
    any shortfall degrades with reason ``"admission"`` instead of
    being dropped.  Degrading beats shedding: the caller still gets
    estimates, intervals and an honest completeness figure.
``reject``
    Depth reached ``reject_depth`` (or the deadline is already
    unmeetable): a 429-style refusal.  The engine records a
    ``shed``/``rejected`` result so the report never silently loses a
    query.

The ladder is pure arithmetic over ``(depth, headroom)``, and the
front door is a plain loop on the caller's thread: it decides every
arrival in order (depth = the engine's queue depth plus the arrivals
queued so far), rejects at once, submits the queued arrivals in order
and runs the engine's wave loop.  The decision sequence for a given
arrival order is therefore deterministic, which is what the bench
gates rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.model import PreprocessingPlan
from repro.errors import ConfigurationError
from repro.serve.report import QueryRequest, ServeReport

if TYPE_CHECKING:
    from repro.serve.engine import ServeEngine

#: Admission decisions, one per ladder rung.
ADMIT = "admit"
DEGRADE = "degrade"
REJECT = "reject"
DECISIONS = (ADMIT, DEGRADE, REJECT)

@dataclass(frozen=True)
class AdmissionPolicy:
    """The backpressure ladder's thresholds.

    Parameters
    ----------
    reject_depth:
        Combined queue depth (front queue + engine queue) at which new
        arrivals are rejected outright.
    degrade_depth:
        Depth at which arrivals are admitted cache-only.  Must not
        exceed ``reject_depth`` — the ladder degrades before it
        rejects.
    min_headroom_s:
        Deadline headroom below which an arrival is degraded even at a
        healthy depth: a query without enough time left to wait for a
        purchase wave is served from cache instead.  ``0.0`` (default)
        disables the rung; a deadline of exactly zero is always
        rejected (it is unmeetable by construction).
    """

    reject_depth: int = 64
    degrade_depth: int = 32
    min_headroom_s: float = 0.0

    def __post_init__(self) -> None:
        if self.reject_depth < 1:
            raise ConfigurationError(
                f"reject_depth must be >= 1, got {self.reject_depth}"
            )
        if self.degrade_depth < 1:
            raise ConfigurationError(
                f"degrade_depth must be >= 1, got {self.degrade_depth}"
            )
        if self.degrade_depth > self.reject_depth:
            raise ConfigurationError(
                f"degrade_depth ({self.degrade_depth}) must not exceed "
                f"reject_depth ({self.reject_depth}): the ladder degrades "
                f"before it rejects"
            )
        if not math.isfinite(self.min_headroom_s) or self.min_headroom_s < 0:
            raise ConfigurationError(
                f"min_headroom_s must be finite and >= 0, "
                f"got {self.min_headroom_s!r}"
            )

    def decide(self, depth: int, deadline_s: float | None = None) -> str:
        """One arrival's rung: pure arithmetic over depth and headroom."""
        if depth >= self.reject_depth:
            return REJECT
        if deadline_s is not None:
            if deadline_s <= 0:
                return REJECT
            if deadline_s < self.min_headroom_s:
                return DEGRADE
        if depth >= self.degrade_depth:
            return DEGRADE
        return ADMIT


def admit_and_serve(
    engine: "ServeEngine",
    arrivals: Iterable[
        tuple[QueryRequest, PreprocessingPlan | Sequence[PreprocessingPlan]]
    ],
    policy: AdmissionPolicy | None = None,
) -> tuple[ServeReport, dict[str, int]]:
    """Grade, submit and serve an arrival sequence on the caller's thread.

    Each arrival is decided in order against the engine's queue depth
    plus the arrivals queued before it; rejected ones go straight to
    :meth:`~repro.serve.engine.ServeEngine.reject`, the queued ones are
    then submitted in arrival order (degraded ones ``cache_only``) and
    the engine runs.  Returns ``(report, {"admit": n, "degrade": n,
    "reject": n})``.
    """
    policy = policy if policy is not None else AdmissionPolicy()
    decisions = {decision: 0 for decision in DECISIONS}
    depth = engine.queue_depth
    queued = []
    for request, plans in arrivals:
        decision = policy.decide(depth, request.deadline_s)
        decisions[decision] += 1
        engine.obs.metrics.inc(f"serve.admission.{decision}")
        if decision == REJECT:
            engine.reject(request)
        else:
            queued.append((request, plans, decision == DEGRADE))
            depth += 1
    for request, plans, cache_only in queued:
        engine.submit(request, plans, cache_only=cache_only)
    return engine.run(), decisions
