"""Online query serving: batched evaluation over a shared answer cache.

The offline pipeline answers one query at a time and buys every answer
it needs.  This package adds the serving layer on top: an
:class:`~repro.serve.engine.ServeEngine` that accepts a stream of
:class:`~repro.serve.report.QueryRequest` submissions, coalesces their
value questions across queries, buys only what the shared
:class:`~repro.serve.cache.AnswerCache` does not already hold, and
evaluates them in serial waves.  Answers are pure functions of their
per-key coordinates (:mod:`repro.serve.stream`), so results depend only
on what was asked, never on how a wave was scheduled.  See DESIGN.md
§12.

The resilience layer (DESIGN.md §13) makes the purchase path
fault-injectable (:mod:`repro.serve.faults`) and the results
deadline/budget/fault-aware (:mod:`repro.serve.degrade`): a query the
engine cannot fully serve comes back ``degraded`` with widened
intervals and an honest completeness figure, never silently dropped.

The admission layer (DESIGN.md §15) puts a synchronous ladder in front
of the engine queue (:mod:`repro.serve.admission`): admit, degrade to
cache-only, or reject by queue depth and deadline headroom.
"""

from repro.serve.admission import (
    DECISIONS,
    AdmissionPolicy,
    admit_and_serve,
)
from repro.serve.cache import AnswerCache, CachedAnswerSource, CacheReadSource
from repro.serve.degrade import (
    DEGRADE_REASONS,
    DegradedResult,
    TermShortfall,
    evidence_confidence,
    widened_interval,
)
from repro.serve.engine import SERVE_CHECKPOINT, SERVE_JOURNAL, ServeEngine
from repro.serve.faults import KeyPurchase, ResilientValueStream
from repro.serve.load import LoadSpec, generate_workload, percentile, zipf_weights
from repro.serve.report import (
    SHED_REASONS,
    STATUSES,
    Predicate,
    QueryRequest,
    QueryResult,
    ServeReport,
    load_query_file,
    saving_percent,
)
from repro.serve.stream import DeterministicValueStream

__all__ = [
    "DECISIONS",
    "DEGRADE_REASONS",
    "SERVE_CHECKPOINT",
    "SERVE_JOURNAL",
    "SHED_REASONS",
    "STATUSES",
    "AdmissionPolicy",
    "AnswerCache",
    "CacheReadSource",
    "CachedAnswerSource",
    "DegradedResult",
    "DeterministicValueStream",
    "KeyPurchase",
    "LoadSpec",
    "Predicate",
    "QueryRequest",
    "QueryResult",
    "ResilientValueStream",
    "ServeEngine",
    "ServeReport",
    "TermShortfall",
    "admit_and_serve",
    "evidence_confidence",
    "generate_workload",
    "load_query_file",
    "percentile",
    "saving_percent",
    "widened_interval",
    "zipf_weights",
]
