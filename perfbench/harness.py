"""Timed passes over one workload, with correctness checks and metrics.

A *pass* runs a workload's set-up, then whole epochs of its traffic,
and folds every report into a :class:`Tally` that checks it.  An
untraced pass gives the end-to-end metrics; the traced run is a second
pass over the same epochs, with span shims on the instances the pass
built (:class:`PassContext`), and must produce the same report bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.durability import run_disq
from repro.obs import NULL_TRACER, Observability
from repro.obs.metrics import MetricsRegistry
from repro.serve import admit_and_serve

from perfbench.spans import (
    LAYERS,
    UNATTRIBUTED,
    SpanRecorder,
    SpanTree,
    flatten_tracer,
    merge_program_spans,
)
from perfbench.stats import (
    ErrorAccumulator,
    host_fingerprint,
    median,
    peak_rss_mb,
    tail_percentile,
)
from perfbench.workloads import CheckFailure

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Relative slack when comparing two float sums of the same cents.
CENTS_RTOL = 1e-9

#: The program's planner phase spans, reported as ``planner.<phase>_s``.
PLANNER_PHASES = ("examples", "statistics", "dismantle", "allocate", "train")


class PlannerHook:
    """The router's ``planner=`` hook: plans with the crash-safe
    :func:`~repro.durability.recovery.run_disq` and keeps each plan's
    own ledger, so ``B_prc`` spend can be checked against its cap."""

    def __init__(self) -> None:
        self.ledgers: list = []
        self.caps: list[float] = []
        #: Whether each plan was made during the timed phase.
        self.timed: list[bool] = []
        self.in_timed_phase = False

    def __call__(self, platform, query, b_obj, b_prc, params):
        run = run_disq(platform, query, b_obj, b_prc, params)
        self.ledgers.append(run.planner.platform.ledger)
        self.caps.append(float(b_prc))
        self.timed.append(self.in_timed_phase)
        return run.plan


def _cents_equal(a: float, b: float) -> bool:
    return abs(a - b) <= CENTS_RTOL * max(1.0, abs(a), abs(b))


class Tally:
    """Everything one pass measured, and the checks on its reports."""

    def __init__(self, keep_digest: bool) -> None:
        self.latencies: list[float] = []
        self.wall = 0.0
        self.epochs = 0
        self.attempted = 0
        self.served = 0
        self.degraded = 0
        self.failed = 0
        self.errors = ErrorAccumulator()
        self.journal_records = 0
        self.cache_answers = 0
        self.checkpoint_bytes = 0
        #: Ledgers of the serving platforms the timed phase charged,
        #: by ledger id (each ledger is held, so no id is reused).
        self.serving_ledgers: dict[int, object] = {}
        #: ``B_obj`` cap on serving spend: cents per object per target.
        self.serve_cap_cents = 0.0
        self._truths: dict[tuple[str, str], tuple[np.ndarray, float]] = {}
        self._digest = hashlib.sha256() if keep_digest else None

    @property
    def digest(self) -> str | None:
        return self._digest.hexdigest() if self._digest is not None else None

    def know_truth(self, domain, target: str) -> None:
        key = (domain.name, target)
        if key not in self._truths:
            truth = domain.true_values(target)
            self._truths[key] = (truth, float(np.std(truth)))

    def truth(self, domain, target: str) -> np.ndarray:
        return self._truths[(domain.name, target)][0]

    def absorb_report(self, domain, requests, report, platform, b_obj_cents) -> None:
        """Check one engine's final report against what was submitted."""
        submitted = {request.query_id: request for request in requests}
        seen = [result.query_id for result in report.results]
        if len(seen) != len(set(seen)) or set(seen) != set(submitted):
            raise CheckFailure(
                f"{len(submitted)} queries submitted but the report holds "
                f"{len(seen)} results for {len(set(seen))} distinct ids"
            )
        self.epochs += 1
        self.serving_ledgers[id(platform.ledger)] = platform.ledger
        for result in report.results:
            self.attempted += 1
            request = submitted[result.query_id]
            if result.status == "shed":
                self.failed += 1
                continue
            self.served += 1
            self.serve_cap_cents += (
                b_obj_cents * len(request.object_ids) * len(request.targets)
            )
            if result.status == "degraded":
                self.degraded += 1
            objects = np.asarray(result.object_ids, dtype=np.int64)
            for target, values in result.estimates.items():
                estimates = np.asarray(values, dtype=np.float64)
                if not np.all(np.isfinite(estimates)):
                    raise CheckFailure(
                        f"query {result.query_id} has non-finite {target} estimates"
                    )
                truth, scale = self._truths[(domain.name, target)]
                self.errors.add(
                    (domain.name, target), scale, estimates - truth[objects]
                )
                if result.degraded is not None:
                    bounds = np.asarray(result.degraded.intervals[target])
                    if not (
                        np.all(bounds[:, 0] <= estimates)
                        and np.all(estimates <= bounds[:, 1])
                    ):
                        raise CheckFailure(
                            f"degraded query {result.query_id}: a {target} "
                            f"interval excludes its estimate"
                        )
        if self._digest is not None:
            summary = report.to_dict()
            summary.pop("wall_seconds")
            self._digest.update(json.dumps(summary, sort_keys=True).encode())


class PassContext:
    """One pass's observability, work directory and (traced) shims."""

    def __init__(self, workdir: Path, traced: bool, keep_digest: bool) -> None:
        self.workdir = workdir
        self.recorder = SpanRecorder() if traced else None
        # Counters are always collected (the spend check reads them);
        # program spans only in the traced pass.
        self.obs = (
            Observability.collecting()
            if traced
            else Observability(tracer=NULL_TRACER, metrics=MetricsRegistry())
        )
        self.hook = PlannerHook()
        self.planner = (
            self.recorder.timed(self.hook, "planner")
            if self.recorder is not None
            else self.hook
        )
        self.tally = Tally(keep_digest)
        self._dirs = 0
        self._request = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        return self.workdir / f"{prefix}-{self._dirs:05d}"

    def span(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def request_span(self):
        """The span of one closed-loop request (a spec or a batch)."""
        self._request += 1
        if self.recorder is None:
            return nullcontext()
        self.recorder.request = self._request
        return self.recorder.span("request")

    def instrument_catalog(self, catalog) -> None:
        if self.recorder is not None:
            self.recorder.wrap(catalog, "lookup", "catalog.lookup")
            self.recorder.wrap(catalog, "store", "catalog.store")

    def instrument_engine(self, engine) -> None:
        recorder = self.recorder
        if recorder is None:
            return
        recorder.wrap(engine, "submit", "engine.submit")
        recorder.wrap(engine, "run", "engine.run")
        recorder.wrap(engine.stream, "answers_many", "answers_many")
        if engine.resilient is not None:
            recorder.wrap(engine.resilient, "purchase_batch", "purchase_batch")
        recorder.wrap(engine.platform, "charge_values", "charge_values")
        recorder.wrap(engine.cache, "add", "cache.add")
        if engine.journal is not None:
            recorder.wrap(engine.journal, "record_answer", "journal.record_answer")
        if engine.checkpoints is not None:
            store = engine.checkpoints
            recorder.wrap(store, "save", "checkpoint.save")
            timed_save = store.save

            def save_and_measure(payload) -> None:
                timed_save(payload)
                self.tally.checkpoint_bytes += os.path.getsize(store.path)

            store.save = save_and_measure
        if engine.aggregator is not None:
            recorder.wrap(engine.aggregator, "aggregate", "aggregate")
            recorder.wrap(engine.aggregator, "effective_count", "effective_count")

    def admit_and_serve(self, engine, arrivals, policy):
        if self.recorder is None:
            return admit_and_serve(engine, arrivals, policy)
        with self.recorder.span("admit_and_serve"):
            return admit_and_serve(engine, arrivals, policy)


@dataclass
class PassResult:
    tally: Tally
    context: PassContext
    setup_seconds: list[float] = field(default_factory=list)
    timed_spend_cents: float = 0.0


def run_pass(
    workload,
    seed: int,
    workdir: Path,
    *,
    traced: bool = False,
    keep_digest: bool = False,
    setups: int = 1,
    seconds: float | None = None,
    epochs: int | None = None,
) -> PassResult:
    """Set up, serve whole epochs, and set up again ``setups - 1`` times.

    The timed phase stops after ``epochs`` epochs, or at the first
    epoch boundary after ``seconds`` of serving; it always serves at
    least one epoch.  The first set-up builds the deployment that
    serves; the repeats are spread over the timed phase (between
    epochs, outside every epoch's wall clock) so that their median
    samples the host over the whole run, as the serving metrics do.
    Every check runs before this returns.
    """
    ctx = PassContext(workdir, traced, keep_digest)
    result = PassResult(tally=ctx.tally, context=ctx)

    def set_up():
        started = time.perf_counter()
        ctx.hook.in_timed_phase = False
        with ctx.span("setup"):
            deployment = workload.setup(ctx)
        ctx.hook.in_timed_phase = True
        result.setup_seconds.append(time.perf_counter() - started)
        return deployment

    deployment = set_up()
    stream = workload.epochs(seed)
    started = time.perf_counter()
    with ctx.span("timed"):
        while True:
            workload.serve_epoch(deployment, next(stream), ctx)
            elapsed = time.perf_counter() - started
            if epochs is not None and ctx.tally.epochs >= epochs:
                break
            if epochs is None and elapsed >= seconds:
                break
            if seconds and elapsed >= len(result.setup_seconds) * seconds / setups:
                set_up()
    while len(result.setup_seconds) < setups:
        set_up()
    result.timed_spend_cents = _check_spend(ctx)
    if getattr(workload, "durable", False):
        purchased = int(ctx.obs.metrics.counters().get("serve.answers.purchased", 0))
        if ctx.tally.journal_records != purchased:
            raise CheckFailure(
                f"journal holds {ctx.tally.journal_records} records for "
                f"{purchased} purchased answers"
            )
    return result


def _check_spend(ctx: PassContext) -> float:
    """Audit the ledgers; returns the cents spent in the timed phase."""
    tally, hook = ctx.tally, ctx.hook
    for ledger, cap in zip(hook.ledgers, hook.caps):
        if ledger.total_spent > cap * (1 + CENTS_RTOL):
            raise CheckFailure(
                f"a plan spent {ledger.total_spent:.4f}c over its B_prc cap {cap}c"
            )
    serving = sum(ledger.total_spent for ledger in tally.serving_ledgers.values())
    if serving > tally.serve_cap_cents * (1 + CENTS_RTOL):
        raise CheckFailure(
            f"serving spent {serving:.4f}c over its B_obj cap "
            f"{tally.serve_cap_cents:.4f}c"
        )
    planning = sum(ledger.total_spent for ledger in hook.ledgers)
    registry = sum(
        value
        for name, value in ctx.obs.metrics.counters().items()
        if name.startswith("crowd.spend.")
    )
    if not _cents_equal(planning + serving, registry):
        raise CheckFailure(
            f"ledgers hold {planning + serving:.6f}c but the metrics registry "
            f"counted {registry:.6f}c"
        )
    return serving + sum(
        ledger.total_spent
        for ledger, timed in zip(hook.ledgers, hook.timed)
        if timed
    )


def end_to_end(result: PassResult) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced pass, and notes on them."""
    tally = result.tally
    try:
        q, tail, beyond = tail_percentile(tally.latencies)
    except ValueError as error:
        raise CheckFailure(f"{error}; measure for more --seconds") from None
    metrics = {
        "setup_s": (median(result.setup_seconds), "s"),
        "latency_p50_ms": (median(tally.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "throughput_qps": (tally.served / tally.wall, "1/s"),
        "spend_cents_per_query": (result.timed_spend_cents / tally.attempted, "cents"),
        "estimate_nrmse": (tally.errors.nrmse(), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    notes = {
        "latency_tail": f"p{q} of {len(tally.latencies)} requests ({beyond} beyond it)",
        "setups_s": result.setup_seconds,
        "epochs": tally.epochs,
        "timed_wall_s": tally.wall,
    }
    return metrics, notes


def per_layer(untraced: PassResult, traced: PassResult) -> tuple[dict, dict, SpanTree]:
    """Per-layer metrics of a traced pass, and its self-time attribution."""
    ctx, tally = traced.context, traced.tally
    assert ctx.recorder is not None
    tree = SpanTree(
        merge_program_spans(ctx.recorder.records(), flatten_tracer(ctx.obs.tracer))
    )
    counters = ctx.obs.metrics.counters()

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    layers = tree.layer_self()
    hits, misses = counter("serve.cache.hits"), counter("serve.cache.misses")
    metrics = {
        "planner.s": (layers["planner"], "s"),
        **{
            f"planner.{phase}_s": (tree.total(phase), "s")
            for phase in PLANNER_PHASES
        },
        "planner.questions": (
            float(sum(ledger.total_questions for ledger in ctx.hook.ledgers)),
            "count",
        ),
        "planner.plans": (float(len(ctx.hook.ledgers)), "count"),
        "catalog.lookup_s": (tree.self_total("catalog.lookup"), "s"),
        "catalog.store_s": (tree.self_total("catalog.store"), "s"),
        "catalog.hits": (counter("catalog.route.hit"), "count"),
        "catalog.fresh": (counter("catalog.route.fresh"), "count"),
        "admission.s": (tree.self_total("admit_and_serve"), "s"),
        "admission.admit": (counter("serve.admission.admit"), "count"),
        "admission.degrade": (counter("serve.admission.degrade"), "count"),
        "admission.reject": (counter("serve.admission.reject"), "count"),
        "engine.submit_s": (tree.self_total("engine.submit"), "s"),
        "engine.run_s": (tree.total("engine.run"), "s"),
        "engine.residual_s": (
            layers["engine"] - tree.self_total("engine.submit"),
            "s",
        ),
        "engine.waves": (counter("serve.waves"), "count"),
        "engine.coalesced": (counter("serve.coalesced"), "count"),
        "generate.s": (layers["generate"], "s"),
        "generate.answers": (counter("serve.answers.purchased"), "count"),
        "generate.retries": (counter("serve.faults.retries"), "count"),
        "generate.abandons": (counter("serve.faults.abandon"), "count"),
        "commit.charge_s": (tree.self_total("charge_values"), "s"),
        "commit.cache_add_s": (tree.self_total("cache.add"), "s"),
        "commit.journal_s": (tree.self_total("journal.record_answer"), "s"),
        "commit.checkpoint_s": (tree.self_total("checkpoint.save"), "s"),
        "commit.journal_records": (float(tally.journal_records), "count"),
        "commit.checkpoint_bytes": (float(tally.checkpoint_bytes), "bytes"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache.answers": (float(tally.cache_answers), "count"),
        "agg.s": (layers["agg"], "s"),
        "agg.calls": (float(tree.count("aggregate", "effective_count")), "count"),
        "evaluate.s": (layers["evaluate"], "s"),
        "degrade.admission": (counter("serve.degraded.admission"), "count"),
        "degrade.faults": (counter("serve.degraded.faults"), "count"),
        "degrade.budget": (counter("serve.degraded.budget"), "count"),
        "degraded_share": (tally.degraded / tally.attempted, "ratio"),
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "trace.overhead_pct": (
            (tally.wall / untraced.tally.wall - 1.0) * 100.0,
            "%",
        ),
    }
    timed = tree.layer_self("timed")
    timed[UNATTRIBUTED] = tally.wall - sum(timed[layer] for layer in LAYERS)
    attribution = {
        "timed_wall_s": tally.wall,
        "timed": timed,
        "setup": tree.layer_self("setup"),
    }
    return metrics, attribution, tree


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run: metrics, counts, and notes for the result file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        if not trace:
            result = run_pass(
                workload, seed, workdir / "run", setups=SETUPS, seconds=seconds
            )
            metrics, notes = end_to_end(result)
            tally = result.tally
            extra = {"notes": notes}
        else:
            # Half the time untraced, then the same epochs traced.
            untraced = run_pass(
                workload, seed, workdir / "plain", keep_digest=True, seconds=seconds / 2
            )
            traced = run_pass(
                workload,
                seed,
                workdir / "traced",
                traced=True,
                keep_digest=True,
                epochs=untraced.tally.epochs,
            )
            if traced.tally.digest != untraced.tally.digest:
                raise CheckFailure(
                    "the traced run's report differs from the untraced run's"
                )
            metrics, attribution, tree = per_layer(untraced, traced)
            tally = traced.tally
            trace_path = out_dir / f"{workload.name}.trace.json"
            tree.write_chrome_trace(
                trace_path,
                {"workload": workload.name, "seed": seed, "host": host_fingerprint()},
            )
            extra = {
                "attribution": attribution,
                "trace_file": os.path.relpath(trace_path),
                "epochs": tally.epochs,
                "spans": len(tree.spans),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        **extra,
    }
