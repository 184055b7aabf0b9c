"""Machine-readable run manifests for crowd-pipeline runs.

A manifest is one JSON document summarising what a run did: per-phase
wall clock (from the :class:`~repro.obs.tracer.Tracer`), spend and
question counts by category, resilience counts (retries, abandons,
faults, spam rejections, quarantine trips), allocator statistics, an
optional plan summary, and the raw counter/gauge dump — everything a
post-hoc "why did this run cost what it cost" question needs.

Single-source guarantee: the spend and resilience sections are derived
*exclusively* from the run's :class:`~repro.obs.metrics.MetricsRegistry`
(:func:`spend_from_metrics` / :func:`resilience_from_metrics`), and
those counters are incremented at the very same call sites that feed
:class:`~repro.crowd.pricing.CostLedger` and
:meth:`~repro.crowd.platform.CrowdPlatform.resilience_report` — the
ledger records forward to the registry, the fault injector counts into
it, the circuit breaker trips into it.  The manifest therefore cannot
disagree with the ledger or the resilience report (asserted by
``tests/integration/test_observability.py``).

Validation uses :func:`validate_manifest`, a deliberately small
JSON-Schema-subset checker (``type`` / ``properties`` / ``required`` /
``additionalProperties`` / ``items`` / ``enum``) so no external schema
library is needed; :data:`MANIFEST_SCHEMA` is the schema CI validates
uploaded manifests against.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.durability.checkpoint import atomic_write_text
from repro.errors import ConfigurationError

#: Bumped whenever a field is added, renamed, or re-typed.
#: v2: serve section renamed ``partial`` -> ``degraded``, added
#: ``degraded_by_reason``, ``shed_by_reason`` and ``faults`` subsections
#: for the resilient serving tier.
#: v3: added the optional ``serve.shards`` (shard topology and cache
#: balance) and ``serve.admission`` (front-door decision tally)
#: subsections for the sharded serving tier with async admission.
#: The ``serve.shards`` subsection is no longer written (the serving
#: tier is unsharded) and no longer described; the ``serve`` section
#: admits extra keys, so v3-v5 manifests that carry it still load.
#: v4: added ``online.missing_terms`` (formula terms the evaluator had
#: no answers for — previously dropped silently) and the optional
#: ``agg`` section (reliability-weighted aggregation: workers observed,
#: allocator gain, missing-term tally).
#: v5: added the optional ``catalog`` section (plan-catalog traffic:
#: hit/miss/staleness tallies, stores and refreshes, preprocessing
#: spend avoided by hits, routing decisions of the declarative query
#: front-end).
SCHEMA_VERSION = 5

_NUMBER_MAP = {"type": "object", "additionalProperties": {"type": "number"}}
_INTEGER_MAP = {"type": "object", "additionalProperties": {"type": "integer"}}

#: JSON-Schema (subset) describing a run manifest document.
MANIFEST_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "label",
        "created_at",
        "phases",
        "spend",
        "resilience",
        "allocator",
        "counters",
        "gauges",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "label": {"type": "string"},
        "created_at": {"type": "number"},
        "phases": _NUMBER_MAP,
        "spend": {
            "type": "object",
            "required": [
                "total_cents",
                "by_category",
                "questions_by_category",
            ],
            "properties": {
                "total_cents": {"type": "number"},
                "by_category": _NUMBER_MAP,
                "questions_by_category": _INTEGER_MAP,
            },
        },
        "resilience": {
            "type": "object",
            "required": [
                "retries_by_category",
                "abandons_by_category",
                "timeouts",
                "abandons",
                "garbage_answers",
                "spam_rejected",
                "quarantine_trips",
                "degradations",
            ],
            "properties": {
                "retries_by_category": _INTEGER_MAP,
                "abandons_by_category": _INTEGER_MAP,
                "timeouts": {"type": "integer"},
                "abandons": {"type": "integer"},
                "garbage_answers": {"type": "integer"},
                "spam_rejected": {"type": "integer"},
                "quarantine_trips": {"type": "integer"},
                "degradations": {"type": "integer"},
            },
        },
        "allocator": {
            "type": "object",
            "required": ["calls", "grants"],
            "properties": {
                "calls": {"type": "integer"},
                "grants": {"type": "integer"},
            },
        },
        "online": {
            "type": "object",
            "properties": {
                "objects": {"type": "integer"},
                "budget_skips": {"type": "integer"},
                "fault_skips": {"type": "integer"},
                "missing_terms": {"type": "integer"},
            },
        },
        "agg": {
            "type": "object",
            "required": ["workers_observed", "missing_terms"],
            "properties": {
                "workers_observed": {"type": "integer"},
                "observations": {"type": "number"},
                "gain": {"type": "number"},
                "missing_terms": {"type": "integer"},
            },
        },
        "plan": {
            "type": "object",
            "properties": {
                "targets": {"type": "array", "items": {"type": "string"}},
                "attributes": {"type": "array", "items": {"type": "string"}},
                "budget_counts": _INTEGER_MAP,
                "online_questions_per_object": {"type": "integer"},
                "dismantle_rounds": {"type": "integer"},
                "preprocessing_cost_cents": {"type": "number"},
                "degradations": {"type": "integer"},
            },
        },
        "durability": {
            "type": "object",
            "required": ["resumed", "journal_records"],
            "properties": {
                "resumed": {"type": "boolean"},
                "journal_records": {"type": "integer"},
                "resumed_from": {"type": "string"},
                "checkpoint": {"type": "string"},
            },
        },
        "serve": {
            "type": "object",
            "required": [
                "queries",
                "completed",
                "degraded",
                "shed",
                "cache_hits",
                "cache_misses",
                "answers_saved",
                "answers_purchased",
                "saved_cents",
            ],
            "properties": {
                "queries": {"type": "integer"},
                "completed": {"type": "integer"},
                "degraded": {"type": "integer"},
                "degraded_by_reason": _INTEGER_MAP,
                "shed": {"type": "integer"},
                "shed_by_reason": _INTEGER_MAP,
                "from_checkpoint": {"type": "integer"},
                "waves": {"type": "integer"},
                "coalesced_questions": {"type": "integer"},
                "budget_stops": {"type": "integer"},
                "cache_hits": {"type": "integer"},
                "cache_misses": {"type": "integer"},
                "answers_saved": {"type": "integer"},
                "answers_purchased": {"type": "integer"},
                "saved_cents": {"type": "number"},
                "peak_queue_depth": {"type": "integer"},
                "admission": {
                    "type": "object",
                    "required": ["admitted", "degraded", "rejected"],
                    "properties": {
                        "admitted": {"type": "integer"},
                        "degraded": {"type": "integer"},
                        "rejected": {"type": "integer"},
                    },
                },
                "faults": {
                    "type": "object",
                    "required": [
                        "timeouts",
                        "abandons",
                        "garbage_answers",
                        "retries",
                        "answers_lost",
                    ],
                    "properties": {
                        "timeouts": {"type": "integer"},
                        "abandons": {"type": "integer"},
                        "garbage_answers": {"type": "integer"},
                        "retries": {"type": "integer"},
                        "answers_lost": {"type": "integer"},
                    },
                },
            },
        },
        "catalog": {
            "type": "object",
            "required": [
                "hits",
                "misses",
                "stale_age",
                "stale_drift",
                "stores",
                "refreshes",
                "avoided_cents",
                "entries",
            ],
            "properties": {
                "hits": {"type": "integer"},
                "misses": {"type": "integer"},
                "stale_age": {"type": "integer"},
                "stale_drift": {"type": "integer"},
                "stores": {"type": "integer"},
                "refreshes": {"type": "integer"},
                "avoided_cents": {"type": "number"},
                "entries": {"type": "integer"},
                "routes": _INTEGER_MAP,
            },
        },
        "counters": _NUMBER_MAP,
        "gauges": _NUMBER_MAP,
        "extra": {"type": "object"},
    },
}


def _int_map(values: dict) -> dict:
    return {str(key): int(value) for key, value in values.items()}


def spend_from_metrics(metrics) -> dict:
    """The manifest ``spend`` section, from ``crowd.*`` counters.

    By construction (the ledger forwards to the registry) these equal
    ``CostLedger.spent_by_category`` / ``questions_by_category``.
    """
    by_category = {
        str(key): float(value)
        for key, value in metrics.by_suffix("crowd.spend").items()
    }
    return {
        "total_cents": float(sum(by_category.values())),
        "by_category": by_category,
        "questions_by_category": _int_map(metrics.by_suffix("crowd.questions")),
    }


def resilience_from_metrics(metrics) -> dict:
    """The manifest ``resilience`` section, from ``crowd.*`` counters.

    The same counters back
    :meth:`~repro.crowd.platform.CrowdPlatform.resilience_report`, so
    this section and the report can never disagree.
    """
    return {
        "retries_by_category": _int_map(metrics.by_suffix("crowd.retries")),
        "abandons_by_category": _int_map(metrics.by_suffix("crowd.abandons")),
        "timeouts": int(metrics.counter("crowd.faults.timeout")),
        "abandons": int(metrics.counter("crowd.faults.abandon")),
        "garbage_answers": int(metrics.counter("crowd.faults.garbage")),
        "spam_rejected": int(metrics.counter("crowd.spam.rejected")),
        "quarantine_trips": int(metrics.counter("crowd.quarantine.trips")),
        "degradations": int(metrics.counter("plan.degradations")),
    }


def serve_from_metrics(metrics) -> dict | None:
    """The manifest ``serve`` section, from ``serve.*`` counters.

    Returns ``None`` for runs that never touched the serving engine
    (``serve.queries`` is 0), so offline-only manifests stay unchanged.
    The cache counters are incremented at the same call sites that feed
    the :class:`~repro.serve.report.ServeReport` and the ledger's
    savings, so the three views agree by construction.
    """
    queries = int(metrics.counter("serve.queries"))
    if queries == 0:
        return None
    gauges = metrics.gauges()
    section = {
        "queries": queries,
        "completed": int(metrics.counter("serve.completed")),
        "degraded": int(metrics.counter("serve.degraded")),
        "degraded_by_reason": _int_map(metrics.by_suffix("serve.degraded")),
        "shed": int(metrics.counter("serve.shed")),
        "shed_by_reason": _int_map(metrics.by_suffix("serve.shed")),
        "from_checkpoint": int(metrics.counter("serve.from_checkpoint")),
        "waves": int(metrics.counter("serve.waves")),
        "coalesced_questions": int(metrics.counter("serve.coalesced")),
        "budget_stops": int(metrics.counter("serve.budget_stops")),
        "cache_hits": int(metrics.counter("serve.cache.hits")),
        "cache_misses": int(metrics.counter("serve.cache.misses")),
        "answers_saved": int(metrics.counter("serve.answers.saved")),
        "answers_purchased": int(metrics.counter("serve.answers.purchased")),
        "saved_cents": float(metrics.counter("crowd.saved.value")),
        "peak_queue_depth": int(gauges.get("serve.peak_queue_depth", 0)),
        "faults": {
            "timeouts": int(metrics.counter("serve.faults.timeout")),
            "abandons": int(metrics.counter("serve.faults.abandon")),
            "garbage_answers": int(metrics.counter("serve.faults.garbage")),
            "retries": int(metrics.counter("serve.faults.retries")),
            "answers_lost": int(metrics.counter("serve.faults.lost")),
        },
    }
    admission = {
        "admitted": int(metrics.counter("serve.admission.admit")),
        "degraded": int(metrics.counter("serve.admission.degrade")),
        "rejected": int(metrics.counter("serve.admission.reject")),
    }
    if any(admission.values()):
        section["admission"] = admission
    return section


def agg_from_metrics(metrics) -> dict | None:
    """The manifest ``agg`` section, from ``agg.*`` metrics.

    Returns ``None`` for runs that never exercised non-uniform
    aggregation and never dropped a formula term (the common case), so
    historical manifests keep their exact shape.  ``gain`` is the mean
    per-attribute allocator gain the reliability model granted;
    ``missing_terms`` mirrors ``online.missing_terms``.
    """
    gauges = metrics.gauges()
    workers = int(gauges.get("agg.workers", 0))
    missing = int(metrics.counter("agg.missing_terms"))
    if not workers and not missing and "agg.gain" not in gauges:
        return None
    section = {"workers_observed": workers, "missing_terms": missing}
    if "agg.gain" in gauges:
        section["gain"] = float(gauges["agg.gain"])
    return section


def catalog_from_metrics(metrics) -> dict | None:
    """The manifest ``catalog`` section, from ``catalog.*`` metrics.

    Returns ``None`` for runs that never opened a plan catalog (no
    ``catalog.*`` counter ticked and no ``catalog.entries`` gauge set),
    so catalog-less manifests keep their exact historical shape.  The
    counters are incremented inside
    :class:`~repro.catalog.store.PlanCatalog` and
    :class:`~repro.catalog.query.PlanRouter` at the same sites that
    decide routing, so the manifest cannot disagree with the routes the
    run actually took; ``avoided_cents`` is the preprocessing spend a
    cold run would have re-paid (summed over hits from each entry's
    recorded cost).
    """
    gauges = metrics.gauges()
    section = {
        "hits": int(metrics.counter("catalog.hits")),
        "misses": int(metrics.counter("catalog.misses")),
        "stale_age": int(metrics.counter("catalog.stale_age")),
        "stale_drift": int(metrics.counter("catalog.stale_drift")),
        "stores": int(metrics.counter("catalog.stores")),
        "refreshes": int(metrics.counter("catalog.refreshes")),
        "avoided_cents": float(metrics.counter("catalog.avoided_cents")),
        "entries": int(gauges.get("catalog.entries", 0)),
    }
    routes = _int_map(metrics.by_suffix("catalog.route"))
    if not any(section.values()) and not routes and "catalog.entries" not in gauges:
        return None
    if routes:
        section["routes"] = routes
    return section


def plan_summary(plan) -> dict:
    """A JSON-friendly summary of a
    :class:`~repro.core.model.PreprocessingPlan`."""
    resilience = getattr(plan, "resilience", None)
    return {
        "targets": list(plan.query.targets),
        "attributes": list(plan.attributes),
        "budget_counts": _int_map(plan.budget.counts),
        "online_questions_per_object": int(plan.budget.total_questions),
        "dismantle_rounds": int(plan.dismantle_rounds),
        "preprocessing_cost_cents": float(plan.preprocessing_cost),
        "degradations": len(resilience.degradations) if resilience else 0,
    }


def build_manifest(
    label: str,
    obs,
    plan=None,
    extra: dict | None = None,
    created_at: float | None = None,
    durability: dict | None = None,
) -> dict:
    """Assemble a run manifest from an :class:`~repro.obs.Observability`.

    Parameters
    ----------
    label:
        Human-readable run identifier (bench name, CLI command line).
    obs:
        The run's observability bundle (tracer + metrics).  A disabled
        bundle yields a valid, mostly-empty manifest.
    plan:
        Optional :class:`~repro.core.model.PreprocessingPlan` to
        summarise.
    extra:
        Optional free-form section merged under ``"extra"`` (sweep
        grids, error tables, environment notes).
    created_at:
        Unix timestamp override (defaults to now); pin it in tests that
        compare manifests byte-for-byte.
    durability:
        Optional resume-provenance section, as produced by
        :func:`~repro.durability.recovery.durability_summary`.
    """
    metrics = obs.metrics
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "label": str(label),
        "created_at": float(time.time() if created_at is None else created_at),
        "phases": {
            path: round(seconds, 6)
            for path, seconds in obs.tracer.phase_seconds().items()
        },
        "spend": spend_from_metrics(metrics),
        "resilience": resilience_from_metrics(metrics),
        "allocator": {
            "calls": int(metrics.counter("allocator.calls")),
            "grants": int(metrics.counter("allocator.grants")),
        },
        "online": {
            "objects": int(metrics.counter("online.objects")),
            "budget_skips": int(metrics.counter("online.budget_skips")),
            "fault_skips": int(metrics.counter("online.fault_skips")),
            "missing_terms": int(metrics.counter("agg.missing_terms")),
        },
        "counters": metrics.counters(),
        "gauges": metrics.gauges(),
    }
    serve = serve_from_metrics(metrics)
    if serve is not None:
        manifest["serve"] = serve
    agg = agg_from_metrics(metrics)
    if agg is not None:
        manifest["agg"] = agg
    catalog = catalog_from_metrics(metrics)
    if catalog is not None:
        manifest["catalog"] = catalog
    if plan is not None:
        manifest["plan"] = plan_summary(plan)
    if extra is not None:
        manifest["extra"] = dict(extra)
    if durability is not None:
        manifest["durability"] = dict(durability)
    validate_manifest(manifest)
    return manifest


# ---------------------------------------------------------------------------
# Minimal JSON-Schema-subset validation (no external dependency)
# ---------------------------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value, schema: dict, path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        if not _TYPE_CHECKS[expected](value):
            errors.append(
                f"{path or '$'}: expected {expected}, "
                f"got {type(value).__name__}"
            )
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path or '$'}: {value!r} not in {schema['enum']}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path or '$'}: missing required key {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties")
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else key
            if key in properties:
                _validate(item, properties[key], key_path, errors)
            elif isinstance(additional, dict):
                _validate(item, additional, key_path, errors)
            elif additional is False:
                errors.append(f"{key_path}: unexpected key")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def manifest_errors(manifest: dict, schema: dict | None = None) -> list[str]:
    """All schema violations in ``manifest`` (empty = valid)."""
    errors: list[str] = []
    _validate(manifest, schema if schema is not None else MANIFEST_SCHEMA, "", errors)
    return errors


def validate_manifest(manifest: dict, schema: dict | None = None) -> dict:
    """Raise :class:`~repro.errors.ConfigurationError` if invalid."""
    errors = manifest_errors(manifest, schema)
    if errors:
        raise ConfigurationError(
            "invalid run manifest: " + "; ".join(errors[:5])
            + (f" (+{len(errors) - 5} more)" if len(errors) > 5 else "")
        )
    return manifest


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Validate and atomically write ``manifest`` as pretty JSON.

    The write goes through a same-directory temp file and
    ``os.replace`` so a crash mid-write never leaves a torn manifest
    where CI (or a resumed run) would read it.
    """
    validate_manifest(manifest)
    target = Path(path)
    atomic_write_text(target, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def load_manifest(path: str | Path) -> dict:
    """Read and validate a manifest file."""
    manifest = json.loads(Path(path).read_text())
    return validate_manifest(manifest)
