"""The benchmark's four seeded workloads.

Each workload is one client in a closed loop: it sends a request (a
declarative request spec, or a batch of queries) and sends the next
only when the previous call returned.  Traffic is grouped into
*epochs*.  Every epoch of a serve workload starts a new
:class:`~repro.serve.engine.ServeEngine`, so its cache, journal and
reliability model start empty; this keeps per-batch cost the same
whether a run fits ten epochs or fifty, and the harness only ever
counts whole epochs.  In ``cold_query`` one epoch is one request on a
new deployment.

A workload's inputs come from its seed alone (:meth:`epochs`); the
program only ever sees the generated requests.  No request carries a
deadline, so results do not depend on how fast the host is.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.catalog import PlanCatalog, PlanRouter, decompose, parse_request_spec
from repro.core.disq import DisQParams
from repro.crowd.faults import FaultProfile
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_pictures_domain, make_recipes_domain
from repro.serve import (
    AdmissionPolicy,
    LoadSpec,
    QueryRequest,
    ServeEngine,
    generate_workload,
)

#: Seed of the ground-truth tables (the data, not the traffic).
TABLE_SEED = 1

DOMAINS = {"recipes": make_recipes_domain, "pictures": make_pictures_domain}


class CheckFailure(Exception):
    """A correctness check of the benchmark failed."""


@dataclass
class Deployment:
    """What a workload's setup built: tables, platform, routed plans."""

    domains: dict
    platform: CrowdPlatform | None = None
    router: PlanRouter | None = None


def _warm_deployment(ctx, workload, params: DisQParams) -> Deployment:
    """A recipes table whose plans sit in a warm catalog.

    The first router stands for an earlier deployment that paid
    ``B_prc`` into a new catalog; the serving router, over the same
    directory and a new platform with the same seed, must find every
    target as a ``hit``.
    """
    domain = make_recipes_domain(n_objects=workload.table_objects, seed=TABLE_SEED)
    for target in workload.targets:
        ctx.tally.know_truth(domain, target)
    directory = ctx.fresh_dir("catalog")
    for expected in ("fresh", "hit"):
        platform = CrowdPlatform(
            domain, recorder=AnswerRecorder(), seed=workload.crowd_seed, obs=ctx.obs
        )
        catalog = PlanCatalog(directory, obs=ctx.obs)
        ctx.instrument_catalog(catalog)
        router = PlanRouter(
            catalog,
            domain,
            platform,
            workload.b_obj_cents,
            workload.b_prc_cents,
            params,
            planner=ctx.planner,
        )
        routes = [router.acquire((target,)).route for target in workload.targets]
        if any(route != expected for route in routes):
            raise CheckFailure(f"catalog set-up routed {routes}, expected {expected}")
    return Deployment(domains={domain.name: domain}, platform=platform, router=router)


@dataclass(frozen=True)
class ColdQuery:
    """Declarative requests, each on a new deployment with an empty catalog.

    Requests cycle through :attr:`rotation` (every target of recipes
    and pictures alone, and each domain's pair), so every seed asks for
    the same mix; the seed picks where the cycle starts, the order of
    a pair, the object window and the predicate.  Every deployment
    hires the same crowd (``crowd_seed``).  Every sub-query routes
    ``fresh``: this is ``repro query`` on a new deployment, and the
    planner dominates.
    """

    name: str = "cold_query"
    n_objects: int = 250
    objects_per_request: int = 20
    n1: int = 60
    b_prc_cents: float = 1500.0
    b_obj_cents: float = 4.0
    crowd_seed: int = 7
    #: Two single-target requests per two-target one, so the median
    #: request sits inside one mode of the latency distribution rather
    #: than between the single- and two-target modes.
    rotation: tuple = (
        ("recipes", ("protein",)),
        ("pictures", ("bmi",)),
        ("recipes", ("protein", "calories")),
        ("pictures", ("age",)),
        ("recipes", ("calories",)),
        ("pictures", ("bmi", "age")),
    )

    def setup(self, ctx) -> Deployment:
        domains = {}
        for domain_name, targets in self.rotation:
            if domain_name not in domains:
                domains[domain_name] = DOMAINS[domain_name](
                    n_objects=self.n_objects, seed=TABLE_SEED
                )
            for target in targets:
                ctx.tally.know_truth(domains[domain_name], target)
        return Deployment(domains=domains)

    def epochs(self, seed: int) -> Iterator[dict]:
        rng = np.random.default_rng(seed)
        offset = int(rng.integers(0, len(self.rotation)))
        for index in itertools.count():
            domain_name, targets = self.rotation[(offset + index) % len(self.rotation)]
            start = int(rng.integers(0, self.n_objects - self.objects_per_request))
            yield {
                "id": f"r{index:05d}",
                "domain": domain_name,
                "targets": [str(t) for t in rng.permutation(targets)],
                "objects": [start, start + self.objects_per_request],
                # Predicate on the first target at this quantile of its
                # true values, or none.
                "quantile": float(rng.uniform(0.25, 0.75))
                if rng.random() < 0.5
                else None,
            }

    def serve_epoch(self, deployment: Deployment, epoch, ctx) -> None:
        domain = deployment.domains[epoch["domain"]]
        payload = {
            "id": epoch["id"],
            "targets": epoch["targets"],
            "objects": {"range": epoch["objects"]},
        }
        if epoch["quantile"] is not None:
            target = epoch["targets"][0]
            truth = ctx.tally.truth(domain, target)
            payload["predicates"] = [
                {
                    "target": target,
                    "op": ">=",
                    "threshold": float(np.quantile(truth, epoch["quantile"])),
                }
            ]
        params = DisQParams(n1=self.n1)
        with ctx.request_span():
            started = time.perf_counter()
            spec = parse_request_spec(payload)
            platform = CrowdPlatform(
                domain,
                recorder=AnswerRecorder(),
                seed=self.crowd_seed,
                obs=ctx.obs,
            )
            catalog = PlanCatalog(ctx.fresh_dir("catalog"), obs=ctx.obs)
            ctx.instrument_catalog(catalog)
            router = PlanRouter(
                catalog,
                domain,
                platform,
                self.b_obj_cents,
                self.b_prc_cents,
                params,
                planner=ctx.planner,
            )
            routed = router.route_all(decompose(spec))
            with ServeEngine(
                platform, workers=1, plan_source=router.plan_source
            ) as engine:
                ctx.instrument_engine(engine)
                requests = [item.sub.to_request() for item in routed]
                for request in requests:
                    engine.submit(request)
                report = engine.run()
            elapsed = time.perf_counter() - started
        ctx.tally.latencies.append(elapsed)
        ctx.tally.wall += elapsed
        routes = [item.routed.route for item in routed]
        if any(route != "fresh" for route in routes):
            raise CheckFailure(f"empty catalog routed {routes}, expected all fresh")
        ctx.tally.absorb_report(domain, requests, report, platform, self.b_obj_cents)


@dataclass(frozen=True)
class Scan:
    """Disjoint object windows over a large recipes table, warm catalog.

    One epoch is one pass over the table in a seeded window order;
    batches of ``queries_per_batch`` single-target queries, uniform
    aggregation, no faults.  Nearly every answer is bought, so this
    measures the write path.  With ``durable`` the engine journals
    every answer and checkpoints after every wave.
    """

    name: str = "serve_scan"
    table_objects: int = 4000
    window: int = 10
    queries_per_batch: int = 8
    targets: tuple = ("protein", "calories")
    n1: int = 60
    b_prc_cents: float = 1500.0
    b_obj_cents: float = 4.0
    crowd_seed: int = 7
    durable: bool = False

    def setup(self, ctx) -> Deployment:
        return _warm_deployment(ctx, self, DisQParams(n1=self.n1))

    def epochs(self, seed: int) -> Iterator[list[list[QueryRequest]]]:
        rng = np.random.default_rng(seed)
        windows = self.table_objects // self.window
        for index in itertools.count():
            order = rng.permutation(windows)
            picks = rng.integers(0, len(self.targets), size=windows)
            requests = [
                QueryRequest(
                    query_id=f"e{index}q{position}",
                    targets=(self.targets[int(pick)],),
                    object_ids=tuple(
                        range(int(first), int(first) + self.window)
                    ),
                )
                for position, (first, pick) in enumerate(
                    zip(order * self.window, picks)
                )
            ]
            yield [
                requests[start : start + self.queries_per_batch]
                for start in range(0, windows, self.queries_per_batch)
            ]

    def serve_epoch(self, deployment: Deployment, batches, ctx) -> None:
        assert deployment.router is not None and deployment.platform is not None
        checkpoint_dir = ctx.fresh_dir("serve") if self.durable else None
        tally = ctx.tally
        started = time.perf_counter()
        with ServeEngine(
            deployment.platform,
            workers=1,
            checkpoint_dir=checkpoint_dir,
            plan_source=deployment.router.plan_source,
        ) as engine:
            ctx.instrument_engine(engine)
            for batch in batches:
                with ctx.request_span():
                    sent = time.perf_counter()
                    for request in batch:
                        engine.submit(request)
                    report = engine.run()
                    tally.latencies.append(time.perf_counter() - sent)
        tally.wall += time.perf_counter() - started
        if engine.journal is not None:
            tally.journal_records += engine.journal.record_count
        tally.cache_answers += engine.cache.total_answers
        domain = next(iter(deployment.domains.values()))
        requests = [request for batch in batches for request in batch]
        tally.absorb_report(
            domain, requests, report, deployment.platform, self.b_obj_cents
        )


@dataclass(frozen=True)
class Hot:
    """Zipf-skewed Poisson traffic over a small table, through admission.

    Arrivals are grouped per simulated second into one batch, which is
    pushed through :func:`~repro.serve.admission.admit_and_serve`; an
    arrival beyond ``degrade_depth`` in its batch is admitted
    cache-only.  An 8% fault profile and the reliability aggregator
    are on.  Most answers come from the cache, so this measures reads.
    """

    name: str = "serve_hot"
    table_objects: int = 200
    objects_per_query: int = 4
    arrivals_per_batch: float = 12.0
    zipf_s: float = 1.1
    batches_per_epoch: int = 20
    degrade_depth: int = 12
    fault_rate: float = 0.08
    targets: tuple = ("protein", "calories")
    n1: int = 60
    b_prc_cents: float = 1500.0
    b_obj_cents: float = 4.0
    crowd_seed: int = 7

    def params(self) -> DisQParams:
        return DisQParams(n1=self.n1, aggregator="reliability")

    def setup(self, ctx) -> Deployment:
        return _warm_deployment(ctx, self, self.params())

    def epochs(self, seed: int) -> Iterator[list[list[QueryRequest]]]:
        for index in itertools.count():
            arrivals = generate_workload(
                LoadSpec(
                    queries=int(self.arrivals_per_batch * self.batches_per_epoch * 2),
                    arrival_rate_qps=self.arrivals_per_batch,
                    zipf_s=self.zipf_s,
                    n_objects=self.table_objects,
                    objects_per_query=self.objects_per_query,
                    targets=self.targets,
                    seed=seed * 100_003 + index,
                )
            )
            batches: dict[int, list[QueryRequest]] = {}
            for arrived_at, request in arrivals:
                batches.setdefault(int(arrived_at), []).append(request)
            chosen = [batches[second] for second in sorted(batches)]
            if len(chosen) < self.batches_per_epoch:
                raise CheckFailure("load generator produced too few batches")
            yield chosen[: self.batches_per_epoch]

    def serve_epoch(self, deployment: Deployment, batches, ctx) -> None:
        assert deployment.router is not None and deployment.platform is not None
        router = deployment.router
        # Nothing is rejected: the reject rung sits above the largest batch.
        policy = AdmissionPolicy(
            reject_depth=max(self.degrade_depth, *(len(b) + 1 for b in batches)),
            degrade_depth=self.degrade_depth,
        )
        tally = ctx.tally
        started = time.perf_counter()
        with ServeEngine(
            deployment.platform,
            workers=1,
            max_queue=policy.reject_depth,
            faults=FaultProfile.uniform(self.fault_rate),
            aggregator=self.params().build_aggregator(),
            plan_source=router.plan_source,
        ) as engine:
            ctx.instrument_engine(engine)
            for batch in batches:
                arrivals = [
                    (request, router.acquire(request.targets).plan)
                    for request in batch
                ]
                with ctx.request_span():
                    sent = time.perf_counter()
                    report, _ = ctx.admit_and_serve(engine, arrivals, policy)
                    tally.latencies.append(time.perf_counter() - sent)
        tally.wall += time.perf_counter() - started
        tally.cache_answers += engine.cache.total_answers
        domain = next(iter(deployment.domains.values()))
        requests = [request for batch in batches for request in batch]
        tally.absorb_report(
            domain, requests, report, deployment.platform, self.b_obj_cents
        )


WORKLOADS = {
    "cold_query": ColdQuery(),
    "serve_scan": Scan(),
    "serve_hot": Hot(),
    "serve_durable": Scan(name="serve_durable", table_objects=960, durable=True),
}
