"""Fault-injected answer purchasing for the serving engine.

The offline platform's resilience loop (:meth:`~repro.crowd.platform.
CrowdPlatform._resilient_ask`) is stateful: a shared injector RNG, a
mutable circuit breaker and a shared simulated clock, all advanced in
global question order.  The serving engine cannot use it — its answers
must not depend on how queries are batched into waves or in which
order a wave buys its keys.  :class:`ResilientValueStream` is the
pure-function replacement:

* Attempt ``a`` of answer ``i`` for ``(object, attribute)`` derives its
  own generator from ``(fault_seed, object, attribute, i, a)`` — fault
  outcome, retry jitter, worker redraws and the answer value itself all
  come from that generator (passed to the worker's one
  :meth:`~repro.crowd.worker.Worker.answer_value`), so the whole
  purchase is a pure function of its coordinates and the *frozen*
  quarantine set the engine snapshots at wave start.
* No shared state is touched.  Every attempt is logged into the
  returned :class:`KeyPurchase`; the engine replays those logs into the
  circuit breaker, ledger, simulated clock and metrics **serially, in
  sorted key order**, so all side effects stay canonical (DESIGN.md
  §13).

Fault semantics mirror the offline loop: timeouts burn the question
timeout and retry, abandons retry immediately, garbage produces a
detectably-malformed value that validation rejects (another retry).
An answer whose retry budget is exhausted is *lost* — the engine
serves the query anyway, degraded, with the shortfall reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.crowd.faults import (
    VALUE_MARGIN_SPANS,
    FaultKind,
    FaultProfile,
    FaultRates,
    RetryPolicy,
    corrupted_value,
    draw_outcome,
    plausible_value,
)
from repro.serve.stream import AnswerRequest, DeterministicValueStream, seed_words
from repro.serve.vecrng import uniform_doubles, ziggurat_exponentials


@dataclass(frozen=True)
class Attempt:
    """One worker interaction during a purchase (for breaker replay)."""

    worker_id: int
    fault: bool


@dataclass
class KeyPurchase:
    """Everything one key's fault-injected purchase produced.

    ``answers`` holds the validated values actually obtained (possibly
    fewer than requested — the difference is ``lost``); the remaining
    fields are the side-effect log the engine replays serially.
    """

    answers: list[float] = field(default_factory=list)
    #: Answers whose retry budget was exhausted (never obtained).
    lost: int = 0
    #: Every worker interaction, in attempt order.
    attempts: list[Attempt] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    abandons: int = 0
    garbage: int = 0
    #: Simulated seconds of latency, timeouts and backoff.
    sim_seconds: float = 0.0


class ResilientValueStream:
    """Pure fault-injected purchases over a deterministic value stream.

    Parameters
    ----------
    stream:
        The fault-free answer stream; supplies the domain, the worker
        population and canonical attribute resolution.
    profile:
        Fault configuration; only the ``"value"`` category applies
        (serving buys nothing else).
    policy:
        Retry budget, backoff and question timeout.
    seed:
        Fault-stream seed, any non-negative integer.  Must differ from
        the answer-stream seed (the engine decorrelates it) so fault
        rolls never correlate with answer noise.
    """

    def __init__(
        self,
        stream: DeterministicValueStream,
        profile: FaultProfile,
        policy: RetryPolicy,
        seed: int,
    ) -> None:
        self.stream = stream
        self.profile = profile
        self.policy = policy
        self.seed = int(seed)
        seed_words(self.seed)  # refuse a negative seed up front
        self._rates: FaultRates = profile.rates_for("value")

    def _draw_worker(self, rng: np.random.Generator, blocked: frozenset[int]):
        """Sample a worker, redrawing around the frozen quarantine set.

        Mirrors :meth:`~repro.crowd.pool.WorkerPool.draw_avoiding`:
        after ``len(workers)`` blocked redraws the last draw is served
        anyway, so a fully-quarantined population degrades to normal
        service instead of deadlocking.
        """
        workers = self.stream.workers
        worker = workers[int(rng.integers(0, len(workers)))]
        if not blocked:
            return worker
        for _ in range(len(workers)):
            if worker.worker_id not in blocked:
                return worker
            worker = workers[int(rng.integers(0, len(workers)))]
        return worker

    def purchase(
        self,
        object_id: int,
        attribute: str,
        start: int,
        count: int,
        blocked: frozenset[int],
    ) -> KeyPurchase:
        """Buy answers ``start .. start+count`` of one key, with faults.

        Pure: the result depends only on ``(seed, object, attribute,
        index, attempt)`` coordinates and ``blocked`` — never on call
        order or purchase batching.
        """
        info = self.stream.attribute(attribute)
        domain = self.stream.domain
        result = KeyPurchase()
        for index in range(start, start + count):
            obtained = False
            for attempt in range(self.policy.max_attempts):
                rng = np.random.default_rng(
                    [self.seed, int(object_id), info.key, int(index), attempt]
                )
                if attempt:
                    result.retries += 1
                    result.sim_seconds += self.policy.delay(attempt - 1, rng)
                worker = self._draw_worker(rng, blocked)
                outcome = draw_outcome(self._rates, worker.fault_proneness, rng)
                result.sim_seconds += outcome.latency
                if outcome.kind is FaultKind.TIMEOUT:
                    result.timeouts += 1
                    result.sim_seconds += self.policy.question_timeout
                    result.attempts.append(Attempt(worker.worker_id, True))
                    continue
                if outcome.kind is FaultKind.ABANDON:
                    result.abandons += 1
                    result.attempts.append(Attempt(worker.worker_id, True))
                    continue
                answer = worker.answer_value(domain, object_id, info.canonical, rng)
                if outcome.kind is FaultKind.GARBAGE:
                    answer = corrupted_value((info.low, info.high), rng)
                    result.garbage += 1
                if plausible_value(answer, info.low, info.high):
                    result.attempts.append(Attempt(worker.worker_id, False))
                    result.answers.append(float(answer))
                    obtained = True
                    break
                result.attempts.append(Attempt(worker.worker_id, True))
            if not obtained:
                result.lost += 1
        return result

    def purchase_batch(
        self,
        requests: Sequence[AnswerRequest],
        blocked: frozenset[int],
    ) -> list[KeyPurchase]:
        """Batched :meth:`purchase` over many keys.

        The common case under realistic fault rates is that every
        answer succeeds on its first attempt, so the batch computes all
        first attempts vectorized — worker draw, latency, fault roll,
        answer value and plausibility check as array ops over every
        lane at once — and replays through the scalar :meth:`purchase`
        only the keys where *any* lane deviates from that fast path:
        an actual fault, a quarantined-worker redraw, a kernel
        rejection (Lemire / ziggurat) or a worker type without a
        vectorized contract.  Results are byte-identical to calling
        :meth:`purchase` per key.
        """
        if not requests:
            return []
        stream = self.stream
        infos = [stream.attribute(attr) for _, attr, _, _ in requests]
        counts, _, tape, widx, ok = stream.batch_lanes(
            requests, infos, self.seed, attempt_column=True
        )
        total = int(counts.sum())

        wid_lane = stream.worker_id_column[widx]
        if blocked:
            # Any quarantined-worker hit redraws in the scalar path;
            # send the whole key there.
            ok &= ~np.isin(wid_lane, np.fromiter(blocked, dtype=np.int64))

        rates = self._rates
        prone_lane = stream.proneness_column[widx]
        if rates.latency_mean > 0:
            exps, exp_ok = ziggurat_exponentials(tape.next64())
            ok &= exp_ok
            latency = rates.latency_mean * exps
        else:
            latency = np.zeros(total, dtype=np.float64)

        roll = uniform_doubles(tape.next64())
        p_timeout = np.minimum(rates.timeout * prone_lane, 1.0)
        p_abandon = np.minimum(rates.abandon * prone_lane, 1.0)
        p_garbage = np.minimum(rates.garbage * prone_lane, 1.0)
        threshold = p_timeout + p_abandon
        threshold = threshold + p_garbage
        ok &= roll >= threshold  # any fault kind → scalar replay

        values, math_ok = stream._worker_math(
            requests, infos, counts, widx, tape.next64()
        )
        ok &= math_ok

        low = np.repeat(np.array([info.low for info in infos]), counts)
        high = np.repeat(np.array([info.high for info in infos]), counts)
        margin = VALUE_MARGIN_SPANS * np.maximum(high - low, 1.0)
        ok &= np.isfinite(values)
        ok &= values >= low - margin
        ok &= values <= high + margin

        bounds = np.cumsum(counts)
        seg_starts = bounds - counts
        results: list[KeyPurchase] = []
        for i, (obj, attr, start, count) in enumerate(requests):
            begin, end = int(seg_starts[i]), int(bounds[i])
            if count and not ok[begin:end].all():
                results.append(self.purchase(obj, attr, start, count, blocked))
                continue
            purchase = KeyPurchase()
            purchase.answers = values[begin:end].tolist()
            purchase.attempts = [
                Attempt(int(worker_id), False)
                for worker_id in wid_lane[begin:end].tolist()
            ]
            # Left-fold like the scalar `+=` per attempt (not np.sum,
            # whose pairwise order would change low bits).
            sim_seconds = 0.0
            for lane_latency in latency[begin:end].tolist():
                sim_seconds += lane_latency
            purchase.sim_seconds = sim_seconds
            results.append(purchase)
        return results
