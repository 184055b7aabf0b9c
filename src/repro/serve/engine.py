"""The batched query-serving engine.

:class:`ServeEngine` accepts a stream of :class:`~repro.serve.report.
QueryRequest` submissions and evaluates them against the crowd in
**waves**.  One wave takes every admitted query (up to ``wave_size``),
and runs four phases:

1. **Need computation** (serial).  Walk the wave's queries in admission
   order and compute, per ``(object, attribute)`` key, the maximum
   answer count any query demands.  Concurrent queries touching the
   same key coalesce into a single purchase of the maximum shortfall —
   the cross-query batching this engine exists for.
2. **Generation** (pure).  Produce every shortfall answer in one
   batched call: :meth:`~repro.serve.stream.DeterministicValueStream.
   answers_many` (fault-free) or :meth:`~repro.serve.faults.
   ResilientValueStream.purchase_batch` (fault-injected).  Every
   answer — and every fault roll, retry and worker redraw around it —
   is a pure function of ``(seed, object, attribute, index, attempt)``
   plus the frozen quarantine snapshot taken in phase 1, so this phase
   has no side effects and its output does not depend on where or in
   what order it runs.
3. **Commit** (serial, sorted key order).  Check affordability,
   journal each answer (and any lost-answer cursor advance)
   write-ahead, charge the platform ledger, and insert into the shared
   :class:`~repro.serve.cache.AnswerCache` — one key at a time, in
   sorted order, so ledger float accumulation and journal sequence
   numbers are fixed by the key set alone.  Fault side effects
   (breaker outcomes, simulated latency, retry/abandon ledger events)
   are replayed here from the purchase logs, in the same canonical
   order.  A key the budget cannot cover is skipped entirely (its
   queries come back ``degraded``/``budget``); cheaper keys later in
   the order may still fit.
4. **Evaluation** (read-only).  Each query runs the standard
   :class:`~repro.core.online.OnlineEvaluator` over a
   :class:`~repro.serve.cache.CacheReadSource` — pure reads of the now
   frozen wave cache — and applies its predicate.  Deadlines are
   checked between objects; an expired query keeps its evaluated
   prefix.  Any shortfall (deadline, budget or faults) produces a
   ``degraded`` result carrying a :class:`~repro.serve.degrade.
   DegradedResult` — widened intervals, per-term shortfall,
   completeness — never a silent drop (DESIGN.md §13).

The pure/serial split *is* the determinism argument (see DESIGN.md
§12): generation and evaluation are side-effect-free, and everything
side-effecting is serial in a canonical order.  The engine runs all of
it on the calling thread; a future process tier could move the pure
phases elsewhere without changing a byte of spend, savings, estimates
or the journal, provided it keeps that rule.

Backpressure: at most ``max_queue`` queries may be pending; submissions
beyond that are **shed** — refused up front with a ``shed``/
``overflow`` result and a ``serve.shed`` counter tick, never silently
dropped.  A query whose deadline passes before evaluation reaches all
its objects comes back ``degraded``/``deadline`` with its evaluated
prefix.

Durability: with a ``checkpoint_dir``, every purchased answer is
journaled write-ahead (``serve.journal.jsonl``) and every completed
wave checkpoints platform state, cache and finished results
(``serve.checkpoint.json``, atomic).  Resuming restores the
checkpoint, then replays the journal through
:func:`~repro.durability.journal.replay_journal` and folds its
post-checkpoint tail back into the cache — re-charging those answers
so the ledger matches the crashed run — and re-serves finished
queries from the checkpoint without touching the crowd.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.agg.base import UNATTRIBUTED, Aggregator
from repro.core.model import PreprocessingPlan
from repro.core.online import OnlineEvaluator
from repro.crowd.faults import FaultProfile, RetryPolicy, SimulatedClock
from repro.crowd.platform import CrowdPlatform
from repro.crowd.quality import WorkerCircuitBreaker
from repro.durability.checkpoint import CheckpointStore
from repro.durability.journal import Journal, replay_journal
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    JournalCorruptionError,
)
from repro.serve.cache import AnswerCache, CacheKey, CacheReadSource
from repro.serve.degrade import (
    DegradedResult,
    TermShortfall,
    evidence_confidence,
    order_reasons,
    widened_interval,
)
from repro.serve.faults import KeyPurchase, ResilientValueStream
from repro.serve.report import QueryRequest, QueryResult, ServeReport
from repro.serve.stream import DeterministicValueStream

#: Journal and checkpoint filenames under the engine's checkpoint_dir
#: (distinct from the offline pipeline's files so one directory can
#: host both).
SERVE_JOURNAL = "serve.journal.jsonl"
SERVE_CHECKPOINT = "serve.checkpoint.json"

#: Knuth-style multiplier decorrelating the fault-stream seed from the
#: answer-stream seed (the same scheme the offline platform uses for
#: its injector), so enabling faults never perturbs answer values.
_FAULT_SEED_MIX = 2654435761

#: Per-partition journal files an older release wrote next to
#: ``SERVE_JOURNAL``.  This engine writes and replays the flat journal
#: only.
_LEGACY_JOURNAL_GLOB = "serve.*.journal.jsonl"


def _refuse_legacy_journals(directory: Path) -> None:
    """Refuse to resume over journals this engine would not replay.

    Answers recorded only in an older release's per-partition journals
    were paid for; skipping those files would buy them again and break
    zero re-purchase on resume.
    """
    legacy = sorted(directory.glob(_LEGACY_JOURNAL_GLOB))
    if legacy:
        raise ConfigurationError(
            f"cannot resume from {directory}: it holds {legacy[0].name}, a "
            f"per-partition serve journal from an older release that this "
            f"engine does not replay; resume it with that release, or start "
            f"from an empty checkpoint_dir"
        )


@dataclass
class _Pending:
    """One admitted query waiting for (or inside) a wave."""

    request: QueryRequest
    plans: list[PreprocessingPlan]
    admitted_at: float
    #: (object_id, attribute) -> answers this query's plans demand.
    demands: dict[CacheKey, int] = field(default_factory=dict)
    #: Admitted under backpressure as cache-only: the query contributes
    #: no purchase demand and is served from whatever the cache holds;
    #: any shortfall degrades with reason ``"admission"``.
    cache_only: bool = False
    #: Filled during the wave: accounting first, then evaluation.
    result: QueryResult | None = None
    #: Degradation reasons the accounting phase established ("budget" /
    #: "faults"); evaluation may add "deadline".
    reasons: set[str] = field(default_factory=set)
    #: Per-key deficits behind those reasons, in sorted key order.
    shortfalls: list[TermShortfall] = field(default_factory=list)
    #: Answer counts over the full request (contract vs. delivery).
    answers_demanded: int = 0
    answers_served: int = 0


class ServeEngine:
    """Serve concurrent queries over one platform with a shared cache.

    Parameters
    ----------
    platform:
        Prices, budget, ledger and worker pool.  The engine never calls
        ``ask_value`` — answers come from its deterministic stream —
        but every cent flows through this platform's ledger.
    workers:
        Must be ``1``.  Kept so existing callers that pass
        ``workers=1`` still construct an engine; the serving thread
        pool was removed and every wave runs serially.
    max_queue:
        Backpressure bound: submissions beyond this many pending
        queries are shed.
    wave_size:
        Queries per wave; ``None`` (default) takes the whole queue,
        maximizing cross-query coalescing.
    seed:
        Answer-stream seed; defaults to the platform's seed.
    checkpoint_dir:
        Enables durability (journal + per-wave checkpoints) when set.
    resume:
        Restore a previous run's checkpoint/journal from
        ``checkpoint_dir`` before serving.
    clock:
        Monotonic clock used for deadlines (injectable for tests).
    faults:
        Fault profile for the purchase path; ``None`` or a disabled
        profile keeps the byte-exact fault-free path.
    retry:
        Retry budget/backoff for fault-injected purchases (defaults to
        :class:`~repro.crowd.faults.RetryPolicy`'s defaults).
    breaker:
        Worker circuit breaker; quarantined workers are excluded from
        answer generation via a frozen per-wave snapshot.
    fault_clock:
        Simulated clock that fault latency, timeouts and backoff
        advance (shared with the breaker's cooldown timing).
    fault_seed:
        Fault-stream seed; defaults to a Knuth-mix decorrelation of the
        answer-stream seed.
    chaos:
        Optional :class:`~repro.durability.chaos.CrashInjector`; fires
        at ``serve.*`` phase boundaries and on paid interactions.
    aggregator:
        Answer-aggregation strategy for the evaluation phase
        (``None`` or uniform keeps the byte-exact mean path).  A
        reliability aggregator additionally turns on worker
        provenance: journal records and cache tapes carry worker ids,
        the model absorbs every committed span serially, and its
        state rides in the wave checkpoint for bit-identical resume.
    plan_source:
        Callable resolving a request to its preprocessing plans when
        :meth:`submit` is called without explicit ``plans`` — the plan
        catalog's :meth:`~repro.catalog.query.PlanRouter.plan_source`
        hook.  Explicit plans always win; with neither, submission is
        a configuration error.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        workers: int = 1,
        max_queue: int = 64,
        wave_size: int | None = None,
        seed: int | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        clock=time.monotonic,
        faults: FaultProfile | None = None,
        retry: RetryPolicy | None = None,
        breaker: WorkerCircuitBreaker | None = None,
        fault_clock: SimulatedClock | None = None,
        fault_seed: int | None = None,
        chaos=None,
        aggregator: Aggregator | None = None,
        plan_source: Callable[[QueryRequest], Sequence[PreprocessingPlan]]
        | None = None,
    ) -> None:
        if max_queue < 1:
            raise ConfigurationError(
                f"the engine needs room for at least one query, got "
                f"max_queue={max_queue}"
            )
        if wave_size is not None and wave_size < 1:
            raise ConfigurationError(f"wave_size must be positive, got {wave_size}")
        if resume and checkpoint_dir is None:
            raise ConfigurationError("resume requires a checkpoint_dir")
        if workers != 1:
            raise ConfigurationError(
                f"workers={workers} is not supported: the serving thread pool "
                f"was removed and waves always run serially (use workers=1)"
            )
        self.platform = platform
        self.obs = platform.obs
        self.plan_source = plan_source
        self.max_queue = max_queue
        self.wave_size = wave_size
        # Waves generate through answers_many / purchase_batch; the
        # scalar per-coordinate generators replay only the lanes (or,
        # under faults, the keys) the batched kernels cannot finish.
        self.stream = DeterministicValueStream(platform, seed)
        self._clock = clock
        self.chaos = chaos
        if chaos is not None:
            # Paid interactions flow through the platform's charge path.
            self.platform.chaos = chaos
        self.resilient: ResilientValueStream | None = None
        self.fault_clock = fault_clock if fault_clock is not None else SimulatedClock()
        self.breaker = breaker
        if faults is not None and faults.enabled:
            if fault_seed is None:
                fault_seed = (self.stream.seed * _FAULT_SEED_MIX + 1) % 2**63
            self.resilient = ResilientValueStream(
                self.stream, faults, retry or RetryPolicy(), fault_seed
            )
            if self.breaker is None:
                self.breaker = WorkerCircuitBreaker()
            self.breaker.metrics = self.obs.metrics
        self.cache = AnswerCache()
        #: Per-key lost-answer counts: the value stream's cursor for a
        #: key is ``cache count + lost`` (lost indices were consumed by
        #: exhausted retries and must never be re-drawn).
        self._lost: dict[CacheKey, int] = {}
        self._queue: list[_Pending] = []
        self._results: list[QueryResult] = []
        self._seen_ids: set[str] = set()
        self._checkpointed: dict[str, QueryResult] = {}
        self._price_of: dict[str, float] = {}
        self._batches = 0
        self._coalesced = 0
        self._peak_queue = 0
        self.resumed = False
        #: Journal-tail answers folded back into the cache on resume
        #: (re-charged so the ledger matches the crashed run).
        self.restored_answers = 0
        # Aggregation: "uniform" is the byte-exact mean path with no
        # provenance bookkeeping; robust aggregators reshape the
        # evaluator; a reliability aggregator additionally records who
        # answered what (journal + cache worker tapes) and absorbs
        # every committed span into its model, serially in sorted key
        # order, so the learned state is a function of the answers alone.
        if aggregator is not None and aggregator.name == "uniform":
            aggregator = None
        self.aggregator = aggregator
        self._attribute_workers = aggregator is not None and aggregator.needs_workers
        self._agg_model = (
            getattr(aggregator, "model", None) if self._attribute_workers else None
        )
        #: Per-key answer counts already absorbed into the model.
        self._agg_seen: dict[CacheKey, int] = {}
        self.journal: Journal | None = None
        self.checkpoints: CheckpointStore | None = None
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            self.checkpoints = CheckpointStore(directory, SERVE_CHECKPOINT)
            if resume:
                _refuse_legacy_journals(directory)
                self._restore()
                self._merge_journal_tail(directory)
            self.journal = Journal(directory / SERVE_JOURNAL)

    # -- durability ------------------------------------------------------

    def _restore(self) -> None:
        """Load the last wave checkpoint, if any."""
        assert self.checkpoints is not None
        if not self.checkpoints.exists():
            return
        payload = self.checkpoints.load()
        self.platform.restore_state(payload["platform"])
        self.cache = AnswerCache.from_snapshot(payload["cache"])
        faults = payload.get("faults")
        if faults is not None:
            self.fault_clock.restore_state(faults["clock"])
            if self.breaker is not None and faults.get("breaker") is not None:
                self.breaker.restore_state(faults["breaker"])
            self._lost = {
                (int(entry["object"]), str(entry["attribute"])): int(entry["count"])
                for entry in faults.get("lost", [])
            }
        agg = payload.get("agg")
        if agg is not None and self._agg_model is not None:
            self._agg_model.restore_state(agg["model"])
            self._agg_seen = {
                (int(entry[0]), str(entry[1])): int(entry[2])
                for entry in agg.get("seen", [])
            }
        for entry in payload.get("results", []):
            result = QueryResult.from_dict(entry)
            result.from_checkpoint = True
            self._checkpointed[result.query_id] = result
        self.resumed = True
        self.obs.tracer.event(
            "serve.resume",
            results=len(self._checkpointed),
            cached_answers=self.cache.total_answers,
        )

    def _merge_journal_tail(self, directory: Path) -> None:
        """Fold journaled answers beyond the checkpoint into the cache.

        Answers are journaled write-ahead, so after a crash the journal
        may run ahead of the last checkpoint.  Those answers were paid
        for by the crashed run; re-charging them here (count × price,
        deterministic) makes the restored ledger and budget match the
        crashed run exactly, and the warm cache means they are never
        re-purchased.

        The journal is decoded by
        :func:`~repro.durability.journal.replay_journal` (which refuses
        contradictory records and index gaps), then keys are applied in
        sorted order — the same order the commit phase charges in.
        """
        path = directory / SERVE_JOURNAL
        if not path.exists():
            return
        replay = replay_journal(path)
        foreign = sorted(set(replay.kinds) - {"value", "lost"})
        if foreign:
            raise JournalCorruptionError(
                f"{path} holds {foreign[0]!r} records, which the serving "
                f"engine never writes"
            )
        restored = 0
        for key, tape, worker_ids in replay.recorder.attributed_value_tapes():
            object_id, attribute = key
            have = self.cache.count(object_id, attribute)
            if len(tape) <= have:
                continue
            self.platform.charge_values(attribute, len(tape) - have)
            # A tail the journal never attributed gets no worker tape,
            # so attribution-free caches keep their snapshot bytes.
            fresh_workers = worker_ids[have:]
            if all(worker == UNATTRIBUTED for worker in fresh_workers):
                fresh_workers = None
            self.cache.add(object_id, attribute, tape[have:], fresh_workers)
            self._observe_agg(key)
            restored += len(tape) - have
        # Lost-answer records are cursor advances, not purchases: the
        # journal's totals supersede the (older or equal) checkpoint's,
        # so a resumed stream continues past indices retries consumed.
        for key, count in replay.lost.items():
            if count > self._lost.get(key, 0):
                self._lost[key] = count
        self.restored_answers = restored
        if restored:
            self.resumed = True
            self.obs.tracer.event("serve.journal_tail", answers=restored)

    def _checkpoint(self) -> None:
        """Atomically persist platform state, cache, finished results."""
        if self.checkpoints is None:
            return
        payload = {
            "platform": self.platform.capture_state(),
            "cache": self.cache.snapshot(),
            "results": [result.to_dict() for result in self._results],
        }
        if self.resilient is not None:
            payload["faults"] = {
                "clock": self.fault_clock.state_dict(),
                "breaker": (
                    self.breaker.state_dict() if self.breaker is not None else None
                ),
                "lost": [
                    {"object": key[0], "attribute": key[1], "count": count}
                    for key, count in sorted(self._lost.items())
                ],
            }
        if self._agg_model is not None:
            payload["agg"] = {
                "model": self._agg_model.state_dict(),
                "seen": [
                    [key[0], key[1], count]
                    for key, count in sorted(self._agg_seen.items())
                ],
            }
        self.checkpoints.save(payload)

    def _observe_agg(self, key: CacheKey) -> None:
        """Absorb one key's fresh cache span into the reliability model.

        The model's prefix-residual update is chunk-independent
        (see :meth:`repro.agg.reliability.ReliabilityModel.observe`),
        and keys are always absorbed serially in sorted commit order,
        so a resumed run replays the exact float sequence of the
        straight-through run.
        """
        if self._agg_model is None:
            return
        object_id, attribute = key
        total = self.cache.count(object_id, attribute)
        seen = self._agg_seen.get(key, 0)
        if total <= seen:
            return
        tape = self.cache.answers(object_id, attribute, total)
        worker_ids = self.cache.workers(object_id, attribute, total)
        self._agg_model.observe(tape.tolist(), worker_ids[seen:].tolist(), start=seen)
        self._agg_seen[key] = total

    def close(self) -> None:
        """Flush and close the journal."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queries admitted and not yet served."""
        return len(self._queue)

    def reject(self, request: QueryRequest) -> QueryResult:
        """Refuse one query at the front door (429-style), costing nothing.

        The admission layer calls this when its backpressure ladder
        says the query should not even enter the engine queue.  The
        query still gets a :class:`QueryResult` (``shed``/``rejected``)
        in the report — never a silent drop.
        """
        if request.query_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate query id {request.query_id!r} submitted"
            )
        self._seen_ids.add(request.query_id)
        result = QueryResult(
            query_id=request.query_id, status="shed", shed_reason="rejected"
        )
        self._results.append(result)
        metrics = self.obs.metrics
        metrics.inc("serve.queries")
        metrics.inc("serve.shed")
        metrics.inc("serve.shed.rejected")
        self.obs.tracer.event(
            "serve.shed",
            query=request.query_id,
            reason="rejected",
            depth=len(self._queue),
        )
        return result

    def submit(
        self,
        request: QueryRequest,
        plans: PreprocessingPlan | Sequence[PreprocessingPlan] | None = None,
        cache_only: bool = False,
    ) -> bool:
        """Admit one query (with its preprocessing plans) for serving.

        Returns ``True`` when admitted (or already finished in a
        restored checkpoint), ``False`` when shed by backpressure.
        Shed queries still get a :class:`QueryResult` in the report.

        ``plans`` may be omitted when the engine was built with a
        ``plan_source`` (the catalog-backed lookup path): the source
        resolves the request's target tuple to its plans — a cached
        entry, a refresh, or fresh preprocessing — before admission.

        With ``cache_only=True`` (the admission layer's shed-with-
        degrade rung) the query contributes no purchase demand: it is
        served from whatever the shared cache holds when its wave
        runs, and any term the cache cannot fully cover degrades with
        reason ``"admission"``.

        Object ids outside ``[0, domain.n_objects())`` are refused with
        a :class:`~repro.errors.ConfigurationError` before any plan is
        routed or anything is queued, so one bad query cannot take its
        wave down.
        """
        n_objects = self.platform.domain.n_objects()
        outside = [oid for oid in request.object_ids if not 0 <= oid < n_objects]
        if outside:
            raise ConfigurationError(
                f"query {request.query_id!r} names {len(outside)} object id(s) "
                f"outside the table's range [0, {n_objects}), e.g. {outside[0]}"
            )
        if plans is None:
            if self.plan_source is None:
                raise ConfigurationError(
                    f"query {request.query_id!r} submitted without plans and "
                    f"the engine has no plan_source"
                )
            plans = list(self.plan_source(request))
        elif isinstance(plans, PreprocessingPlan):
            plans = [plans]
        else:
            plans = list(plans)
        if request.query_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate query id {request.query_id!r} submitted"
            )
        plan_targets = {
            target for plan in plans for target in plan.query.targets
        }
        missing = [t for t in request.targets if t not in plan_targets]
        if missing:
            raise ConfigurationError(
                f"query {request.query_id!r} targets {missing} have no plan"
            )
        self._seen_ids.add(request.query_id)
        metrics = self.obs.metrics
        if request.query_id in self._checkpointed:
            # Finished before the crash; serve the checkpointed result.
            self._results.append(self._checkpointed.pop(request.query_id))
            metrics.inc("serve.queries")
            metrics.inc("serve.from_checkpoint")
            return True
        if len(self._queue) >= self.max_queue:
            self._results.append(
                QueryResult(
                    query_id=request.query_id,
                    status="shed",
                    shed_reason="overflow",
                )
            )
            metrics.inc("serve.queries")
            metrics.inc("serve.shed")
            metrics.inc("serve.shed.overflow")
            self.obs.tracer.event(
                "serve.shed",
                query=request.query_id,
                reason="overflow",
                depth=len(self._queue),
            )
            return False
        pending = _Pending(
            request=request,
            plans=plans,
            admitted_at=self._clock(),
            cache_only=cache_only,
        )
        for plan in pending.plans:
            for attribute in plan.budget.attributes:
                count = plan.budget[attribute]
                for object_id in request.object_ids:
                    key = (object_id, attribute)
                    pending.demands[key] = max(pending.demands.get(key, 0), count)
        self._queue.append(pending)
        self._peak_queue = max(self._peak_queue, len(self._queue))
        metrics.inc("serve.queries")
        metrics.gauge("serve.queue.depth", len(self._queue))
        return True

    # -- serving ---------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve every admitted query; returns the aggregate report."""
        started = time.perf_counter()
        with self.obs.tracer.span("serve"):
            while self._queue:
                size = self.wave_size or len(self._queue)
                wave, self._queue = self._queue[:size], self._queue[size:]
                self.obs.metrics.gauge("serve.queue.depth", len(self._queue))
                self._serve_wave(wave)
                self._checkpoint()
                self._kill_point("serve.wave")
        report = ServeReport(
            results=list(self._results),
            batches=self._batches,
            coalesced_questions=self._coalesced,
            peak_queue_depth=self._peak_queue,
            wall_seconds=time.perf_counter() - started,
        )
        self.obs.metrics.gauge("serve.peak_queue_depth", self._peak_queue)
        return report

    def _price(self, attribute: str) -> float:
        price = self._price_of.get(attribute)
        if price is None:
            price = self.platform.value_price(attribute)
            self._price_of[attribute] = price
        return price

    def _prior_variance(self, attribute: str) -> float:
        """Range-based prior variance ``(span/4)²`` for a zero-answer term."""
        info = self.stream.attribute(attribute)
        return ((info.high - info.low) / 4.0) ** 2

    def _kill_point(self, phase: str) -> None:
        """Chaos hook: crash at a configured ``serve.*`` phase boundary."""
        if self.chaos is not None:
            self.chaos.phase_boundary(phase)

    def _serve_wave(self, wave: list[_Pending]) -> None:
        metrics = self.obs.metrics
        metrics.inc("serve.waves")

        # Phase 1 (serial): per-key wave demand = max over queries, and
        # the pre-wave cache level each shortfall purchase starts from.
        # Cache-only admissions contribute *no* purchase demand — they
        # read, they never buy — but their keys still need pre-counts
        # for the accounting replay below.
        demands: dict[CacheKey, int] = {}
        all_keys: set[CacheKey] = set()
        for pending in wave:
            all_keys.update(pending.demands)
            if pending.cache_only:
                continue
            for key, count in pending.demands.items():
                demands[key] = max(demands.get(key, 0), count)
        pre_counts = {
            key: self.cache.count(key[0], key[1]) for key in all_keys
        }
        shortfalls = [
            (key, pre_counts[key], demands[key] - pre_counts[key])
            for key in sorted(demands)
            if demands[key] > pre_counts[key]
        ]
        # Frozen quarantine snapshot: worker exclusion is decided once
        # per wave, before generation, so generation stays a pure
        # function of its requests and this snapshot.
        blocked: frozenset[int] = frozenset()
        if self.resilient is not None and self.breaker is not None:
            blocked = frozenset(self.breaker.quarantined(self.fault_clock.now))
        self._kill_point("serve.need")
        # Batching saving: questions the wave's queries would have
        # bought independently but the coalesced purchase did not.
        independent = sum(
            max(0, count - pre_counts[key])
            for pending in wave
            if not pending.cache_only
            for key, count in pending.demands.items()
        )
        fresh_total = sum(n for _, _, n in shortfalls)
        self._coalesced += independent - fresh_total
        if independent > fresh_total:
            metrics.inc("serve.coalesced", independent - fresh_total)

        # Phase 2 (pure): generate every shortfall answer in one batched
        # call.  The fault-free branch draws straight from the
        # per-coordinate stream; the resilient branch purchases through
        # per-attempt derived RNGs (see serve/faults.py) against the
        # frozen quarantine snapshot, starting past any lost indices.
        with self.obs.tracer.span(
            "serve.purchase", keys=len(shortfalls), answers=fresh_total
        ):
            generated: list
            # Fault-free provenance: per key, the worker ids the batched
            # draw picked (unused on the fault path).
            drawn_workers: list = [None] * len(shortfalls)
            if self.resilient is None:
                generated, drawn_workers = self.stream.answers_many(
                    [(key[0], key[1], start, count) for key, start, count in shortfalls]
                )
            else:
                lost = self._lost
                generated = self.resilient.purchase_batch(
                    [
                        (key[0], key[1], start + lost.get(key, 0), count)
                        for key, start, count in shortfalls
                    ],
                    blocked,
                )
            self._kill_point("serve.generate")

            # Phase 3 (serial, sorted key order): check affordability,
            # journal write-ahead, charge, insert.  An unfunded key is
            # skipped wholesale — no journal entry, no fault replay, no
            # cursor advance — as if its questions were never asked;
            # a crash inside the charge (chaos fires there) is healed
            # on resume by re-charging the already-journaled tail.
            unfunded: set[CacheKey] = set()
            purchased = 0
            for (key, start, count), produced, drawn in zip(
                shortfalls, generated, drawn_workers
            ):
                object_id, attribute = key
                purchase: KeyPurchase | None = None
                if isinstance(produced, KeyPurchase):
                    purchase = produced
                    answers = purchase.answers
                else:
                    answers = produced
                obtained = len(answers)
                try:
                    self.platform.check_values_affordable(attribute, obtained)
                except BudgetExhaustedError:
                    unfunded.add(key)
                    metrics.inc("serve.budget_stops")
                    self.obs.tracer.event(
                        "serve.budget_stop",
                        object_id=object_id,
                        attribute=attribute,
                        answers=obtained,
                    )
                    continue
                worker_ids: list[int] | None = None
                if self._attribute_workers and obtained:
                    if purchase is not None:
                        # Fault path: non-fault attempts align 1:1, in
                        # order, with the answers actually obtained.
                        worker_ids = [
                            attempt.worker_id
                            for attempt in purchase.attempts
                            if not attempt.fault
                        ]
                    else:
                        worker_ids = drawn.tolist()
                journal = self.journal
                if journal is not None:
                    if worker_ids is not None:
                        for offset, answer in enumerate(answers):
                            journal.record_answer(
                                "value",
                                key,
                                start + offset,
                                answer,
                                worker=worker_ids[offset],
                            )
                    else:
                        for offset, answer in enumerate(answers):
                            journal.record_answer(
                                "value", key, start + offset, answer
                            )
                    if purchase is not None and purchase.lost:
                        # Journaled as a delta; replay sums deltas into
                        # the key's total cursor advance.
                        journal.record_lost(key, purchase.lost)
                if purchase is not None:
                    self._replay_purchase(key, purchase)
                if obtained:
                    self.platform.charge_values(attribute, obtained)
                    self.cache.add(object_id, attribute, answers, worker_ids)
                    if self._agg_model is not None:
                        self._observe_agg(key)
                    self.cache.note_misses(obtained)
                    purchased += obtained
            if purchased:
                self._batches += 1
                metrics.inc("serve.cache.misses", purchased)
                metrics.inc("serve.answers.purchased", purchased)
            self._kill_point("serve.commit")

        # Phase 4a (serial, admission order): attribute spend/savings.
        # ``virtual`` replays the cache level each query observed: hits
        # are answers that existed before this query's turn (bought
        # earlier, or by an earlier query of this wave), fresh answers
        # are the ones its own demand pulled in.  A key the cache cannot
        # fully serve marks the query for degradation: ``budget`` when
        # the wave's purchase went unfunded, ``faults`` when the money
        # was there but retries were exhausted.
        virtual = dict(pre_counts)
        for pending in wave:
            result = QueryResult(query_id=pending.request.query_id)
            for key in sorted(pending.demands):
                count = pending.demands[key]
                object_id, attribute = key
                available = self.cache.count(object_id, attribute)
                seen = virtual[key]
                if pending.cache_only:
                    # A cache-only admission reads whatever the wave's
                    # cache holds and pays for none of it: every answer
                    # it uses counts as a hit (an answer it would have
                    # bought stand-alone), the purchasing queries keep
                    # their own fresh attribution (``virtual`` is left
                    # untouched), and any deficit is an *admission*
                    # shortfall — a decision, not money or faults.
                    hits = min(count, available)
                    fresh = 0
                    served = hits
                else:
                    hits = min(seen, count)
                    fresh = max(0, min(count, available) - seen)
                    served = min(count, available)
                pending.answers_demanded += count
                pending.answers_served += served
                if count > available:
                    if pending.cache_only:
                        pending.reasons.add("admission")
                    else:
                        pending.reasons.add("budget" if key in unfunded else "faults")
                    pending.shortfalls.append(
                        TermShortfall(
                            object_id=object_id,
                            attribute=attribute,
                            demanded=count,
                            served=served,
                            effective=self._effective_count(
                                object_id, attribute, served
                            ),
                        )
                    )
                if hits:
                    price = self._price(attribute)
                    result.saved_answers += hits
                    result.saved_cents += hits * price
                    self.platform.record_value_savings(attribute, hits)
                    self.cache.note_hits(hits)
                    metrics.inc("serve.cache.hits", hits)
                    metrics.inc("serve.answers.saved", hits)
                if fresh:
                    result.fresh_answers += fresh
                    result.spent_cents += fresh * self._price(attribute)
                if not pending.cache_only:
                    virtual[key] = max(seen, min(count, available))
            pending.result = result

        # Phase 4b (read-only): evaluate every query over the frozen
        # wave cache and apply predicates/deadlines.
        read_source = CacheReadSource(self.cache)
        with self.obs.tracer.span("serve.evaluate", queries=len(wave)):
            evaluated = [self._evaluate(pending, read_source) for pending in wave]
        for result in evaluated:
            if result.status == "degraded":
                metrics.inc("serve.degraded")
                metrics.inc(f"serve.degraded.{result.degraded_reason}")
            else:
                metrics.inc("serve.completed")
            self._results.append(result)
        self._kill_point("serve.evaluate")

    def _replay_purchase(self, key: CacheKey, purchase: KeyPurchase) -> None:
        """Serially apply one purchase's fault side-effect log.

        Called in sorted key order from the commit phase, so the
        simulated clock, breaker state, ledger events and fault
        counters follow one canonical order.
        """
        metrics = self.obs.metrics
        if purchase.sim_seconds:
            self.fault_clock.advance(purchase.sim_seconds)
        if self.breaker is not None:
            now = self.fault_clock.now
            for attempt in purchase.attempts:
                self.breaker.record_outcome(attempt.worker_id, attempt.fault, now)
        ledger = self.platform.ledger
        if purchase.retries:
            ledger.record_retry("value", purchase.retries)
            metrics.inc("serve.faults.retries", purchase.retries)
        if purchase.abandons:
            ledger.record_abandon("value", purchase.abandons)
            metrics.inc("serve.faults.abandon", purchase.abandons)
        if purchase.timeouts:
            metrics.inc("serve.faults.timeout", purchase.timeouts)
        if purchase.garbage:
            metrics.inc("serve.faults.garbage", purchase.garbage)
        if purchase.lost:
            self._lost[key] = self._lost.get(key, 0) + purchase.lost
            metrics.inc("serve.faults.lost", purchase.lost)
            self.obs.tracer.event(
                "serve.answers_lost",
                object_id=key[0],
                attribute=key[1],
                lost=purchase.lost,
            )

    def _effective_count(
        self, object_id: int, attribute: str, served: int
    ) -> float | None:
        """Effective answer count of one served span under the aggregator.

        ``None`` under uniform aggregation (the raw count is the whole
        story and the serialized shortfall keeps its historical shape).
        """
        if self.aggregator is None or not served:
            return None
        answers = self.cache.answers(object_id, attribute, served)
        worker_ids = None
        if self.aggregator.needs_workers:
            worker_ids = self.cache.workers(object_id, attribute, served).tolist()
        return self.aggregator.effective_count(answers, worker_ids)

    def _evaluate(self, pending: _Pending, source: CacheReadSource) -> QueryResult:
        """Run one query's online phase over the wave cache (pure reads)."""
        request = pending.request
        result = pending.result
        assert result is not None  # filled by the accounting phase
        evaluator = OnlineEvaluator(
            self.platform,
            pending.plans,
            answer_source=source,
            aggregator=self.aggregator,
        )
        estimates: dict[str, list[float]] = {t: [] for t in request.targets}
        deadline_hit = False
        if request.deadline_s is None:
            # No deadline to poll between objects: evaluate the whole
            # query as one design-matrix fold (bit-identical to the
            # per-object loop below — see estimate_objects).
            batch = evaluator.estimate_objects(list(request.object_ids))
            result.object_ids.extend(request.object_ids)
            for target in request.targets:
                estimates[target] = batch[target].tolist()
        else:
            for object_id in request.object_ids:
                if self._clock() - pending.admitted_at > request.deadline_s:
                    deadline_hit = True
                    break
                values = evaluator.estimate_object(object_id)
                result.object_ids.append(object_id)
                for target in request.targets:
                    estimates[target].append(values[target])
        result.estimates = estimates
        if request.predicate is not None:
            predicate = request.predicate
            result.selected = [
                object_id
                for object_id, value in zip(
                    result.object_ids, estimates[predicate.target]
                )
                if predicate.matches(value)
            ]
        if deadline_hit:
            self.obs.tracer.event(
                "serve.deadline",
                query=request.query_id,
                evaluated=len(result.object_ids),
                requested=len(request.object_ids),
            )
        reasons = set(pending.reasons)
        if deadline_hit:
            reasons.add("deadline")
        if reasons:
            ordered = order_reasons(reasons)
            result.status = "degraded"
            result.degraded_reason = ordered[0]
            result.degraded = self._degradation(pending, result, ordered, source)
        return result

    def _degradation(
        self,
        pending: _Pending,
        result: QueryResult,
        reasons: tuple[str, ...],
        source: CacheReadSource,
    ) -> DegradedResult:
        """Build the degradation annotation for one degraded query.

        Pure cache reads and arithmetic (part of the read-only
        evaluation phase).  Intervals are widened per the module
        formula in :mod:`repro.serve.degrade`: each formula term
        contributes ``c²·s²/n`` (or a range prior at ``n = 0``), and
        the half-width inflates by the evidence shortfall.
        """
        request = pending.request
        objects_requested = len(request.object_ids)
        objects_evaluated = len(result.object_ids)
        intervals: dict[str, list[list[float]]] = {}
        for target in request.targets:
            formula = None
            for plan in pending.plans:
                if target in plan.formulas:
                    formula = plan.formulas[target]
                    break
            if formula is None:  # unreachable: submit() checked coverage
                continue
            rows: list[list[float]] = []
            for position, object_id in enumerate(result.object_ids):
                terms: list[tuple] = []
                for attribute, coefficient in formula.coefficients.items():
                    demanded = formula.budget[attribute]
                    answers = source.fetch(object_id, attribute, demanded)
                    terms.append(
                        (
                            coefficient,
                            answers,
                            demanded,
                            self._prior_variance(attribute),
                            self._effective_count(
                                object_id, attribute, len(answers)
                            ),
                        )
                    )
                rows.append(
                    widened_interval(result.estimates[target][position], terms)
                )
            intervals[target] = rows
        object_fraction = (
            objects_evaluated / objects_requested if objects_requested else 1.0
        )
        answer_fraction = (
            pending.answers_served / pending.answers_demanded
            if pending.answers_demanded
            else 1.0
        )
        return DegradedResult(
            reason=reasons[0],
            reasons=reasons,
            completeness=object_fraction * answer_fraction,
            confidence=evidence_confidence(
                pending.answers_served, pending.answers_demanded
            ),
            answers_demanded=pending.answers_demanded,
            answers_served=pending.answers_served,
            objects_requested=objects_requested,
            objects_evaluated=objects_evaluated,
            shortfalls=list(pending.shortfalls),
            intervals=intervals,
        )
