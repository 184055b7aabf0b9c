"""Worker quality management: gold questions and runtime quarantine.

The paper assumes "spam filters are employed to avoid malicious
workers" and cites Ipeirotis et al.'s quality-management work on
Mechanical Turk.  Besides the answer-level filters in
:mod:`repro.crowd.spam`, this module provides two mechanisms:

* the classical *gold-question* screen — each worker is probed with
  value questions whose true answers are known, scored by how far
  their answers fall from the truth, and banned when their error rate
  is inconsistent with honest noise (:class:`GoldQuestionScreen` +
  :class:`ScreenedPool`);
* a runtime *circuit breaker* — :class:`WorkerCircuitBreaker` watches
  operational outcomes (timeouts, abandons, malformed or spam-filtered
  answers) per worker and quarantines workers whose fault rate crosses
  a threshold, with half-open re-admission after a cooldown on the
  simulated clock.  The breaker is the online complement to the
  offline gold screen: it needs no ground truth and reacts to faults
  the screen cannot see.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.crowd.pool import WorkerPool
from repro.crowd.worker import Worker
from repro.domains.base import Domain
from repro.errors import ConfigurationError


@dataclass
class ReputationTracker:
    """Per-worker record of gold-question outcomes."""

    correct: dict[int, int] = field(default_factory=dict)
    total: dict[int, int] = field(default_factory=dict)

    def record(self, worker_id: int, passed: bool) -> None:
        """Record one gold-question outcome for a worker."""
        self.total[worker_id] = self.total.get(worker_id, 0) + 1
        if passed:
            self.correct[worker_id] = self.correct.get(worker_id, 0) + 1

    def accuracy(self, worker_id: int) -> float:
        """Fraction of gold questions the worker passed (1.0 if unprobed)."""
        total = self.total.get(worker_id, 0)
        if total == 0:
            return 1.0
        return self.correct.get(worker_id, 0) / total

    def probed(self, worker_id: int) -> int:
        """Number of gold questions the worker has answered."""
        return self.total.get(worker_id, 0)


class GoldQuestionScreen:
    """Probes workers with known-answer questions and scores them.

    A probe *passes* when the worker's answer lies within
    ``tolerance_sigmas`` standard deviations of the truth — using the
    attribute's honest-noise standard deviation, so an honest worker
    passes with high probability while a uniform spammer fails most
    probes on wide-range attributes.

    Parameters
    ----------
    questions_per_worker:
        Gold questions posed to each worker.
    tolerance_sigmas:
        Pass window around the truth, in honest-noise standard
        deviations.
    min_accuracy:
        Workers below this pass rate are banned.
    seed:
        RNG seed for probe-object selection.
    """

    def __init__(
        self,
        questions_per_worker: int = 5,
        tolerance_sigmas: float = 3.0,
        min_accuracy: float = 0.6,
        seed: int = 0,
    ) -> None:
        if questions_per_worker < 1:
            raise ConfigurationError("need at least one gold question per worker")
        if tolerance_sigmas <= 0:
            raise ConfigurationError("tolerance must be positive")
        if not 0.0 < min_accuracy <= 1.0:
            raise ConfigurationError("min_accuracy must be in (0, 1]")
        self.questions_per_worker = questions_per_worker
        self.tolerance_sigmas = tolerance_sigmas
        self.min_accuracy = min_accuracy
        self._rng = np.random.default_rng(seed)

    def probe_worker(
        self, worker: Worker, domain: Domain, attribute: str
    ) -> bool:
        """One gold question: does the worker's answer pass?"""
        object_id = domain.sample_object(self._rng)
        answer = worker.answer_value(domain, object_id, attribute, worker.rng)
        truth = domain.true_value(object_id, attribute)
        noise_sd = float(np.sqrt(domain.difficulty(attribute)))
        if domain.is_binary(attribute):
            # Clipping makes sigma windows unreliable near the borders;
            # a fixed half-unit window separates honest from uniform.
            return abs(answer - truth) <= max(
                0.5, self.tolerance_sigmas * noise_sd
            ) and 0.0 <= answer <= 1.0
        return abs(answer - truth) <= self.tolerance_sigmas * noise_sd

    def screen(
        self, pool: WorkerPool, domain: Domain, attributes: list[str] | None = None
    ) -> ReputationTracker:
        """Probe every worker in the pool and return their reputations.

        Probing costs crowd questions in a real deployment; callers who
        care about accounting should charge
        ``len(pool) * questions_per_worker`` value questions.
        """
        if attributes is None:
            # Prefer numeric attributes: their wide answer ranges make
            # spam detectable in very few probes.
            attributes = [
                name for name in domain.attributes() if not domain.is_binary(name)
            ] or list(domain.attributes())
        tracker = ReputationTracker()
        for worker in pool.workers:
            for probe_index in range(self.questions_per_worker):
                attribute = attributes[probe_index % len(attributes)]
                tracker.record(
                    worker.worker_id, self.probe_worker(worker, domain, attribute)
                )
        return tracker

    def banned(self, tracker: ReputationTracker, worker_id: int) -> bool:
        """Whether a worker's gold-question record bans them."""
        if tracker.probed(worker_id) == 0:
            return False
        return tracker.accuracy(worker_id) < self.min_accuracy


class ScreenedPool:
    """A worker-pool view that only serves non-banned workers.

    Quacks like :class:`~repro.crowd.pool.WorkerPool` (``draw``,
    ``draw_distinct``, ``workers``, ``len``), so it drops into
    :class:`~repro.crowd.platform.CrowdPlatform` unchanged.
    """

    def __init__(
        self,
        pool: WorkerPool,
        tracker: ReputationTracker,
        screen: GoldQuestionScreen,
    ) -> None:
        self._pool = pool
        self._allowed = [
            worker
            for worker in pool.workers
            if not screen.banned(tracker, worker.worker_id)
        ]
        if not self._allowed:
            raise ConfigurationError(
                "screening banned every worker; lower min_accuracy"
            )
        self._rng = np.random.default_rng(0)

    def __len__(self) -> int:
        return len(self._allowed)

    @property
    def workers(self) -> tuple[Worker, ...]:
        """The surviving worker population."""
        return tuple(self._allowed)

    def draw(self) -> Worker:
        """Sample one surviving worker uniformly (with replacement)."""
        return self._allowed[int(self._rng.integers(0, len(self._allowed)))]

    def draw_distinct(self, n: int) -> list[Worker]:
        """Sample ``n`` distinct surviving workers (with fallback)."""
        if n <= len(self._allowed):
            indices = self._rng.choice(len(self._allowed), size=n, replace=False)
        else:
            indices = self._rng.integers(0, len(self._allowed), size=n)
        return [self._allowed[int(i)] for i in indices]

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot (own RNG + the wrapped pool)."""
        return {
            "rng": self._rng.bit_generator.state,
            "pool": self._pool.state_dict(),
        }

    def restore_state(self, payload: dict) -> None:
        """Restore :meth:`state_dict` (the survivor list is rebuilt by
        re-screening with the same seeds, so only RNGs travel here)."""
        self._rng.bit_generator.state = payload["rng"]
        self._pool.restore_state(payload["pool"])


# ----------------------------------------------------------------------
# Runtime quarantine (circuit breaker)
# ----------------------------------------------------------------------


class BreakerState(enum.Enum):
    """Circuit-breaker state of one worker."""

    CLOSED = "closed"        # serving normally
    OPEN = "open"            # quarantined: not served at all
    HALF_OPEN = "half_open"  # probation: served, watched closely


@dataclass
class _WorkerRecord:
    """Sliding fault statistics and breaker state for one worker."""

    state: BreakerState = BreakerState.CLOSED
    outcomes: list[bool] = field(default_factory=list)  # True = fault
    opened_at: float = 0.0
    probation_successes: int = 0
    times_quarantined: int = 0


class WorkerCircuitBreaker:
    """Quarantines workers whose operational fault rate spikes.

    Fault events (timeouts, abandonments, malformed answers, answers
    dropped by the spam filter) are recorded per worker over a sliding
    window.  A worker whose windowed fault rate crosses
    ``fault_threshold`` trips OPEN and stops being served; after
    ``cooldown`` simulated seconds it transitions to HALF_OPEN and is
    re-admitted on probation.  ``probation_successes`` consecutive
    clean interactions close the breaker again; any fault during
    probation re-opens it immediately.

    Parameters
    ----------
    fault_threshold:
        Windowed fault-rate above which a worker is quarantined.
    window:
        Number of recent interactions considered per worker.
    min_observations:
        Interactions required before the threshold is applied (avoids
        quarantining a worker on their first unlucky task).
    cooldown:
        Simulated seconds a worker stays OPEN before probation.
    probation_successes:
        Consecutive clean probation interactions required to close.
    """

    def __init__(
        self,
        fault_threshold: float = 0.5,
        window: int = 20,
        min_observations: int = 5,
        cooldown: float = 300.0,
        probation_successes: int = 3,
    ) -> None:
        if not 0.0 < fault_threshold <= 1.0:
            raise ConfigurationError(
                f"fault_threshold must lie in (0, 1]: {fault_threshold}"
            )
        if window < 1 or min_observations < 1:
            raise ConfigurationError("window and min_observations must be >= 1")
        if min_observations > window:
            raise ConfigurationError("min_observations cannot exceed window")
        if cooldown < 0:
            raise ConfigurationError(f"cooldown must be non-negative: {cooldown}")
        if probation_successes < 1:
            raise ConfigurationError("probation_successes must be >= 1")
        self.fault_threshold = fault_threshold
        self.window = window
        self.min_observations = min_observations
        self.cooldown = cooldown
        self.probation_successes = probation_successes
        self._records: dict[int, _WorkerRecord] = {}
        #: Optional duck-typed metrics sink; every OPEN transition
        #: increments ``crowd.quarantine.trips``.
        self.metrics: object | None = None

    # -- state inspection ------------------------------------------------

    def _record(self, worker_id: int) -> _WorkerRecord:
        if worker_id not in self._records:
            self._records[worker_id] = _WorkerRecord()
        return self._records[worker_id]

    def state(self, worker_id: int, now: float) -> BreakerState:
        """Current breaker state, applying any due OPEN -> HALF_OPEN move."""
        record = self._records.get(worker_id)
        if record is None:
            return BreakerState.CLOSED
        if (
            record.state is BreakerState.OPEN
            and now - record.opened_at >= self.cooldown
        ):
            record.state = BreakerState.HALF_OPEN
            record.probation_successes = 0
        return record.state

    def allows(self, worker_id: int, now: float) -> bool:
        """Whether the worker may be served at simulated time ``now``."""
        return self.state(worker_id, now) is not BreakerState.OPEN

    def fault_rate(self, worker_id: int) -> float:
        """Windowed fault rate of one worker (0.0 if unobserved)."""
        record = self._records.get(worker_id)
        if record is None or not record.outcomes:
            return 0.0
        return sum(record.outcomes) / len(record.outcomes)

    def quarantined(self, now: float) -> tuple[int, ...]:
        """Worker ids currently OPEN (after due probation moves)."""
        return tuple(
            worker_id
            for worker_id in sorted(self._records)
            if self.state(worker_id, now) is BreakerState.OPEN
        )

    def ever_quarantined(self) -> tuple[int, ...]:
        """Worker ids that have ever been quarantined."""
        return tuple(
            worker_id
            for worker_id in sorted(self._records)
            if self._records[worker_id].times_quarantined > 0
        )

    # -- event recording -------------------------------------------------

    def record_outcome(self, worker_id: int, fault: bool, now: float) -> None:
        """Record one interaction outcome and update the breaker."""
        state = self.state(worker_id, now)  # applies due probation moves
        record = self._record(worker_id)
        record.outcomes.append(bool(fault))
        if len(record.outcomes) > self.window:
            del record.outcomes[: len(record.outcomes) - self.window]
        if state is BreakerState.HALF_OPEN:
            if fault:
                self._trip(record, now)
            else:
                record.probation_successes += 1
                if record.probation_successes >= self.probation_successes:
                    record.state = BreakerState.CLOSED
                    record.outcomes.clear()
            return
        if state is BreakerState.CLOSED:
            if (
                len(record.outcomes) >= self.min_observations
                and sum(record.outcomes) / len(record.outcomes)
                >= self.fault_threshold
            ):
                self._trip(record, now)

    def record_fault(self, worker_id: int, now: float) -> None:
        """Shorthand for a faulty interaction."""
        self.record_outcome(worker_id, fault=True, now=now)

    def record_success(self, worker_id: int, now: float) -> None:
        """Shorthand for a clean interaction."""
        self.record_outcome(worker_id, fault=False, now=now)

    def _trip(self, record: _WorkerRecord, now: float) -> None:
        record.state = BreakerState.OPEN
        record.opened_at = now
        record.probation_successes = 0
        record.times_quarantined += 1
        if self.metrics is not None:
            self.metrics.inc("crowd.quarantine.trips")

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every worker's breaker record."""
        return {
            "records": [
                [
                    worker_id,
                    record.state.value,
                    [bool(outcome) for outcome in record.outcomes],
                    record.opened_at,
                    record.probation_successes,
                    record.times_quarantined,
                ]
                for worker_id, record in sorted(self._records.items())
            ]
        }

    def restore_state(self, payload: dict) -> None:
        """Restore breaker records from :meth:`state_dict` (in place)."""
        records: dict[int, _WorkerRecord] = {}
        for worker_id, state, outcomes, opened_at, successes, trips in payload[
            "records"
        ]:
            records[int(worker_id)] = _WorkerRecord(
                state=BreakerState(state),
                outcomes=[bool(outcome) for outcome in outcomes],
                opened_at=float(opened_at),
                probation_successes=int(successes),
                times_quarantined=int(trips),
            )
        self._records = records
