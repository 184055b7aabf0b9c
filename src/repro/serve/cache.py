"""The shared answer cache and its evaluator-facing answer sources.

:class:`AnswerCache` stores purchased crowd value answers keyed by
``(object_id, attribute)`` with per-entry counts.  A query that needs
``b(a)`` answers for a key some earlier query already touched only buys
the shortfall ``max(0, b(a) - cached)`` — the reuse that crowd query
processors build their economics on (Trushkowsky et al.'s *Getting It
All from the Crowd*; Rekatsinas et al.'s *CrowdGather*).

Two :class:`~repro.core.online.AnswerSource` implementations ride on
the cache:

* :class:`CachedAnswerSource` — the stand-alone scalar oracle: serves
  cached prefixes of a private cache and purchases shortfalls one
  fetch at a time through the platform ledger (budget-checked) from a
  :class:`~repro.serve.stream.DeterministicValueStream`.
* :class:`CacheReadSource` — the read-only source the engine hands to
  evaluators after a wave's purchases have landed: pure cache reads,
  no accounting.

Durability lives in the engine, not here: the cache persists only
through :meth:`AnswerCache.snapshot` in the wave checkpoint.  Every
freshly purchased answer is journaled write-ahead
(``journal.record_answer("value", key, index, answer)`` — the same
record shape the offline :class:`~repro.crowd.recording.AnswerRecorder`
writes).  On resume the engine decodes that journal with
:func:`~repro.durability.journal.replay_journal` and appends each key's
post-checkpoint tail to the restored cache, so a crashed serving run
resumes without re-purchasing.
"""

from __future__ import annotations

import numpy as np

from repro.agg.base import UNATTRIBUTED
from repro.crowd.platform import CrowdPlatform
from repro.errors import ConfigurationError
from repro.serve.stream import DeterministicValueStream

#: Cache keys are the recorder's value-tape keys: (object_id, attribute).
CacheKey = tuple[int, str]

_EMPTY = np.empty(0, dtype=np.float64)
_EMPTY.setflags(write=False)

_NO_WORKERS = np.empty(0, dtype=np.int64)
_NO_WORKERS.setflags(write=False)


def _frozen(answers) -> np.ndarray:
    """A read-only float64 copy of one key's answer tape."""
    array = np.array(answers, dtype=np.float64)
    array.setflags(write=False)
    return array


def _frozen_workers(worker_ids) -> np.ndarray:
    """A read-only int64 copy of one key's worker-provenance tape."""
    array = np.array(worker_ids, dtype=np.int64)
    array.setflags(write=False)
    return array


class AnswerCache:
    """Purchased value answers keyed by ``(object_id, attribute)``.

    Append-only per key (answers are never evicted or reordered —
    eviction would break both replay determinism and the economics:
    a bought answer is an asset).  Tapes are stored as read-only
    float64 ndarrays so :meth:`answers` can hand out zero-copy views
    to the evaluators instead of building a list per fetch.  Tracks
    hit/miss counts for the serve report and serializes to JSON for
    checkpoints.
    """

    def __init__(self) -> None:
        self._answers: dict[CacheKey, np.ndarray] = {}
        #: Optional worker-provenance tape per key.  May be *shorter*
        #: than the answer tape (answers bought before attribution was
        #: enabled have no recorded worker); the missing suffix reads
        #: as ``UNATTRIBUTED``.  Mirrors the offline recorder's
        #: ``_value_workers`` semantics.
        self._workers: dict[CacheKey, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._answers)

    @property
    def total_answers(self) -> int:
        """Total purchased answers held across all keys."""
        return sum(len(answers) for answers in self._answers.values())

    def count(self, object_id: int, attribute: str) -> int:
        """How many answers are cached for one key."""
        return len(self._answers.get((object_id, attribute), ()))

    def answers(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """The first ``min(n, cached)`` answers of one key.

        A read-only view of the stored tape — tapes are append-only by
        replacement, so a view can never observe a mutation.
        """
        tape = self._answers.get((object_id, attribute))
        if tape is None:
            return _EMPTY
        return tape[:n]

    def shortfall(self, object_id: int, attribute: str, n: int) -> int:
        """Answers still to buy so the key can serve ``n``."""
        return max(0, n - self.count(object_id, attribute))

    def workers(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """Worker ids behind the first ``min(n, cached)`` answers.

        Aligned 1:1 with :meth:`answers` for the same ``n``; positions
        past the recorded provenance tape read as ``UNATTRIBUTED``.
        """
        count = min(len(self._answers.get((object_id, attribute), ())), n)
        if count <= 0:
            return _NO_WORKERS
        tape = self._workers.get((object_id, attribute), _NO_WORKERS)
        if len(tape) >= count:
            return tape[:count]
        padded = np.full(count, UNATTRIBUTED, dtype=np.int64)
        padded[: len(tape)] = tape
        padded.setflags(write=False)
        return padded

    def add(
        self, object_id: int, attribute: str, answers, worker_ids=None
    ) -> int:
        """Append freshly purchased answers; returns the start index.

        ``worker_ids`` (optional, aligned with ``answers``) records who
        produced each fresh answer; any attribution gap before ``start``
        is padded with ``UNATTRIBUTED`` so tapes stay index-aligned.
        """
        key = (object_id, attribute)
        fresh = np.asarray(answers, dtype=np.float64)
        existing = self._answers.get(key)
        if existing is None:
            start = 0
            tape = _frozen(fresh)
        else:
            start = len(existing)
            tape = np.concatenate([existing, fresh])
            tape.setflags(write=False)
        self._answers[key] = tape
        if worker_ids is not None:
            if len(worker_ids) != len(fresh):
                raise ConfigurationError(
                    f"{len(worker_ids)} worker ids for {len(fresh)} answers"
                )
            recorded = self._workers.get(key, _NO_WORKERS)
            if len(recorded) < start:
                pad = np.full(start - len(recorded), UNATTRIBUTED, dtype=np.int64)
                recorded = np.concatenate([recorded, pad])
            merged = np.concatenate(
                [recorded, np.asarray(worker_ids, dtype=np.int64)]
            )
            merged.setflags(write=False)
            self._workers[key] = merged
        return start

    def note_hits(self, count: int) -> None:
        self.hits += count

    def note_misses(self, count: int) -> None:
        self.misses += count

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable copy of every cached answer.

        Entries come out in sorted key order — not insertion order — so
        the snapshot's bytes depend only on cache *contents*, never on
        the order in which a run happened to buy them.
        """
        entries = []
        for (oid, attr), answers in sorted(self._answers.items()):
            entry = {"object": oid, "attribute": attr, "answers": answers.tolist()}
            workers = self._workers.get((oid, attr))
            # Written only when provenance exists, so attribution-free
            # caches keep the historical snapshot bytes.
            if workers is not None and len(workers):
                entry["workers"] = workers.tolist()
            entries.append(entry)
        return {
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "AnswerCache":
        cache = cls()
        for entry in payload.get("entries", []):
            key = (int(entry["object"]), str(entry["attribute"]))
            cache._answers[key] = _frozen(entry["answers"])
            if entry.get("workers"):
                cache._workers[key] = _frozen_workers(entry["workers"])
        cache.hits = int(payload.get("hits", 0))
        cache.misses = int(payload.get("misses", 0))
        return cache


class CachedAnswerSource:
    """Read-through answer source over a private cache: the scalar oracle.

    Serves the cached prefix of each key and buys the shortfall through
    the platform ledger (budget-checked) from the scalar
    :meth:`~repro.serve.stream.DeterministicValueStream.answers`, one
    fetch at a time.  It is the stand-alone reference the engine's
    batched waves are measured and tested against: the same answers,
    bought without cross-query coalescing.
    """

    def __init__(self, platform: CrowdPlatform) -> None:
        self.platform = platform
        self.cache = AnswerCache()
        self.stream = DeterministicValueStream(platform)

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """Up to ``n`` answers: cached prefix plus purchased shortfall.

        Raises :class:`~repro.errors.BudgetExhaustedError` when the
        platform budget cannot cover the shortfall (nothing is bought
        or cached in that case).
        """
        if n <= 0:
            return _EMPTY
        cached = self.cache.count(object_id, attribute)
        hits = min(cached, n)
        shortfall = n - hits
        if shortfall:
            # Budget check happens inside charge_values, *before* the
            # charge; generation is pure and cannot fail.
            self.platform.charge_values(attribute, shortfall)
            fresh = self.stream.answers(object_id, attribute, cached, shortfall)
            self.cache.add(object_id, attribute, fresh)
            self.cache.note_misses(shortfall)
        if hits:
            self.platform.record_value_savings(attribute, hits)
            self.cache.note_hits(hits)
        return self.cache.answers(object_id, attribute, n)


class CacheReadSource:
    """Read-only view of a cache for post-purchase query evaluation.

    Returns whatever prefix the cache holds (shorter than ``n`` only
    when a wave's purchases were cut short by budget exhaustion, in
    which case the estimate degrades the same way the offline online
    phase degrades: the term's mean is taken over fewer answers, or
    drops out entirely at zero).  No accounting happens here — the
    engine already attributed hits and purchases when it planned the
    wave — so concurrent evaluators can share one instance freely.
    """

    #: Contract flag for :meth:`OnlineEvaluator.estimate_objects`:
    #: fetches are pure reads (no accounting, no mutation) and never
    #: raise for ``n >= 0``, so the evaluator may reorder them freely
    #: and use the batched design-matrix path.
    side_effect_free = True

    def __init__(self, cache: AnswerCache) -> None:
        self.cache = cache

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        if n < 0:
            raise ConfigurationError(f"cannot fetch {n} answers")
        return self.cache.answers(object_id, attribute, n)

    def fetch_attributed(
        self, object_id: int, attribute: str, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached answers plus the worker ids behind them (pure reads)."""
        values = self.fetch(object_id, attribute, n)
        return values, self.cache.workers(object_id, attribute, len(values))
