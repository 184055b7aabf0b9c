"""Skewed-load chaos benchmark for the resilient serving tier.

Generates a Poisson-arrival, Zipf-popularity workload
(:mod:`repro.serve.load`), drives the :class:`~repro.serve.engine.
ServeEngine` on a simulated clock — arrivals advance the clock, and
injected fault latency/timeouts/backoff advance it further during each
wave — and measures what the deadline-aware degradation layer delivers
under fire:

* per-query latency (simulated seconds from arrival to wave
  completion) and its p50/p99;
* deadline hit-rate: queries that met their deadline without
  deadline-degradation;
* the degraded-vs-shed split: overload should degrade answers, not
  drop queries.

Each configuration runs fault-free and fault-injected.

Hard gates (process exit != 0 on failure):

* every admitted query is accounted for — completed, degraded or shed,
  never silently dropped;
* deadline hit-rate >= 95% on the faulted run;
* at least 90% of non-completed queries are degraded rather than shed;
* sustained harness throughput >= a (lenient) wall-clock floor.

Results land in ``BENCH_load.json`` at the repo root (CI's
``load-smoke`` job and EXPERIMENTS.md quote it)::

    PYTHONPATH=src python benchmarks/bench_load.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.disq import DisQParams
from repro.crowd.faults import FaultProfile, RetryPolicy, SimulatedClock
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.durability import run_disq
from repro.experiments.runner import make_query
from repro.serve import LoadSpec, ServeEngine, generate_workload, percentile

from common import recipes_domain, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_load.json"

SEED = 3
TARGET = "protein"

#: Simulated seconds between wave dispatches: queries arriving inside
#: one interval are served together (the engine's coalescing window).
DISPATCH_INTERVAL_S = 1.0

#: Retry policy sized for the simulated-seconds deadline regime (the
#: offline default's 60 s question timeout would blow every deadline).
RETRY = RetryPolicy(
    max_retries=4,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=0.5,
    jitter=0.1,
    question_timeout=0.5,
)


def make_plan(b_prc: float, n1: int):
    """One DisQ plan for the bench target (planning spend excluded)."""
    domain = recipes_domain()
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=SEED)
    run = run_disq(
        platform, make_query(domain, (TARGET,)), 4.0, b_prc, DisQParams(n1=n1)
    )
    return run.plan


def drive(plan, workload, faults: FaultProfile | None) -> dict:
    """Feed one workload through a fresh engine on a simulated clock.

    Returns the raw material for a summary: the final report, per-query
    latencies, the ledger snapshot and the clock's final reading.
    """
    sim = SimulatedClock()
    platform = CrowdPlatform(recipes_domain(), recorder=AnswerRecorder(), seed=SEED)
    arrivals: dict[str, float] = {}
    completions: dict[str, float] = {}
    wall_started = time.perf_counter()
    with ServeEngine(
        platform,
        max_queue=256,
        clock=lambda: sim.now,
        faults=faults,
        retry=RETRY,
        fault_clock=sim,
    ) as engine:
        position = 0
        report = None
        while position < len(workload):
            batch_end = workload[position][0] + DISPATCH_INTERVAL_S
            batch = []
            while position < len(workload) and workload[position][0] <= batch_end:
                batch.append(workload[position])
                position += 1
            # Arrivals advance the clock; a slow previous wave may
            # already have pushed it past this batch's dispatch time
            # (queue wait).
            if batch_end > sim.now:
                sim.advance(batch_end - sim.now)
            for arrived_at, request in batch:
                arrivals[request.query_id] = arrived_at
                engine.submit(request, plan)
            report = engine.run()
            for _, request in batch:
                completions[request.query_id] = sim.now
    wall_seconds = time.perf_counter() - wall_started
    assert report is not None
    latencies = {
        query_id: completions[query_id] - arrivals[query_id]
        for query_id in completions
    }
    return {
        "report": report,
        "latencies": latencies,
        "ledger": platform.ledger.snapshot(),
        "sim_seconds": sim.now,
        "wall_seconds": wall_seconds,
    }


def summarize(outcome, workload, label: str) -> dict:
    """Gate inputs and human-readable numbers for one driven run."""
    report = outcome["report"]
    latencies = outcome["latencies"]
    values = list(latencies.values())
    deadline_hits = 0
    deadline_queries = 0
    for _, request in workload:
        if request.deadline_s is None:
            continue
        deadline_queries += 1
        result = report.result(request.query_id)
        degraded_by_deadline = (
            result.degraded is not None and "deadline" in result.degraded.reasons
        )
        if (
            not degraded_by_deadline
            and latencies.get(request.query_id, 0.0) <= request.deadline_s
        ):
            deadline_hits += 1
    accounted = report.completed + report.degraded + report.shed
    return {
        "label": label,
        "queries": len(report.results),
        "completed": report.completed,
        "degraded": report.degraded,
        "degraded_deadline": report.degraded_by_reason("deadline"),
        "degraded_budget": report.degraded_by_reason("budget"),
        "degraded_faults": report.degraded_by_reason("faults"),
        "shed": report.shed,
        "accounted": accounted,
        "answers_purchased": report.fresh_answers,
        "answers_saved": report.saved_answers,
        "latency_p50_s": percentile(values, 50),
        "latency_p99_s": percentile(values, 99),
        "deadline_queries": deadline_queries,
        "deadline_hit_rate": (
            deadline_hits / deadline_queries if deadline_queries else 1.0
        ),
        "sim_seconds": outcome["sim_seconds"],
        "wall_seconds": outcome["wall_seconds"],
        "wall_qps": (
            len(report.results) / outcome["wall_seconds"]
            if outcome["wall_seconds"] > 0
            else 0.0
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized variant (fewer queries)"
    )
    args = parser.parse_args()
    # The full variant scales query count, not plan size: a larger
    # offline plan multiplies unique answers (and their simulated
    # service latency) past what the arrival span can absorb, which
    # measures saturation, not serving behaviour.
    if args.quick:
        queries, rate, b_prc, n1, qps_floor = 24, 2.0, 600.0, 30, 0.2
    else:
        queries, rate, b_prc, n1, qps_floor = 96, 2.0, 600.0, 30, 0.2

    spec = LoadSpec(
        queries=queries,
        arrival_rate_qps=rate,
        zipf_s=1.1,
        n_objects=30,
        objects_per_query=4,
        targets=(TARGET,),
        deadline_s=20.0,
        seed=SEED,
    )
    workload = generate_workload(spec)
    plan = make_plan(b_prc, n1)
    faults = FaultProfile.uniform(0.08, latency_mean=0.05)

    clean = summarize(drive(plan, workload, None), workload, "fault-free")
    faulted = summarize(drive(plan, workload, faults), workload, "faulted")

    for summary in (clean, faulted):
        if summary["accounted"] != summary["queries"]:
            raise SystemExit(
                f"FAIL: {summary['label']} lost queries "
                f"({summary['accounted']}/{summary['queries']} accounted)"
            )
        not_completed = summary["degraded"] + summary["shed"]
        if not_completed and summary["degraded"] / not_completed < 0.9:
            raise SystemExit(
                f"FAIL: {summary['label']} shed "
                f"{summary['shed']}/{not_completed} non-completed queries "
                f"(degrade-over-shed gate)"
            )
        if summary["wall_qps"] < qps_floor:
            raise SystemExit(
                f"FAIL: {summary['label']} sustained "
                f"{summary['wall_qps']:.2f} qps < {qps_floor} floor"
            )
    if faulted["deadline_hit_rate"] < 0.95:
        raise SystemExit(
            f"FAIL: faulted deadline hit-rate "
            f"{faulted['deadline_hit_rate']:.3f} < 0.95 gate"
        )

    lines = [
        f"serving load bench: {queries} Poisson queries at {rate} qps, "
        f"Zipf(s={spec.zipf_s}) over {spec.n_objects} objects, "
        f"deadline {spec.deadline_s}s",
        f"{'run':>12} {'completed':>10} {'degraded':>9} {'shed':>5} "
        f"{'p50(s)':>8} {'p99(s)':>8} {'hit-rate':>9}",
    ]
    for summary in (clean, faulted):
        lines.append(
            f"{summary['label']:>12} {summary['completed']:>10d} "
            f"{summary['degraded']:>9d} {summary['shed']:>5d} "
            f"{summary['latency_p50_s']:>8.2f} "
            f"{summary['latency_p99_s']:>8.2f} "
            f"{summary['deadline_hit_rate']:>9.3f}"
        )
    write_report("bench_load", "\n".join(lines))

    OUTPUT.write_text(
        json.dumps(
            {
                "config": {
                    "domain": "recipes",
                    "target": TARGET,
                    "queries": queries,
                    "arrival_rate_qps": rate,
                    "zipf_s": spec.zipf_s,
                    "n_objects": spec.n_objects,
                    "objects_per_query": spec.objects_per_query,
                    "deadline_s": spec.deadline_s,
                    "dispatch_interval_s": DISPATCH_INTERVAL_S,
                    "fault_rate": 0.08,
                    "fault_latency_mean_s": 0.05,
                    "b_prc_cents": b_prc,
                    "n1": n1,
                    "seed": SEED,
                    "quick": args.quick,
                },
                "runs": [clean, faulted],
                "gates": {
                    "deadline_hit_rate": faulted["deadline_hit_rate"],
                    "deadline_hit_rate_floor": 0.95,
                    "degrade_over_shed_floor": 0.9,
                    "wall_qps_floor": qps_floor,
                    "all_queries_accounted": True,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"results written to {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
