"""Deterministic per-key value-answer streams for the serving engine.

The offline platform draws a fresh worker from a *shared* RNG for every
question, which makes answers depend on global question order — fine
for a serial research script, fatal for a serving engine that must give
the same answers however its queries are batched into waves and
whatever order it buys them in.  :class:`DeterministicValueStream`
removes the shared state: answer ``i`` for ``(object, attribute)`` is a
pure function of ``(seed, object_id, attribute, i)``, defined by its own
generator ``default_rng([seed, object_id, crc32(attribute), i])``.  That
generator draws a worker index (uniform over the pool, matching
:meth:`~repro.crowd.pool.WorkerPool.draw`) and is handed to that
worker's :meth:`~repro.crowd.worker.Worker.answer_value` in place of the
worker's private one — the one answer model the offline platform uses,
fed from a pure per-coordinate stream.

Consequences, all load-bearing for the serving engine:

* **order independence** — concurrent purchases and batch coalescing
  cannot change any answer;
* **resumability** — a crashed run's cache can be rebuilt from the
  journal and the stream continues at index ``len(cache)`` with the
  exact answers an uninterrupted run would have produced;
* **replay determinism** — re-reading any prefix re-derives identical
  values, so two runs over the same seed are comparable the way the
  paper's recorded-answer database made its experiments comparable.

Attribute names are folded in via ``zlib.crc32`` (stable across
processes and Python versions), never ``hash()`` (salted per process).

One class, two ways through it.  :meth:`DeterministicValueStream.
answers_many` is the wave path: it derives every coordinate's generator
at once through the vectorized kernels in :mod:`repro.serve.vecrng` —
one entropy-matrix row per answer, one batched PCG64 step per draw —
and applies the honest, biased and spam worker math as array ops
(:meth:`DeterministicValueStream._worker_math`).  The seed enters that
matrix as the little-endian uint32 words numpy's ``SeedSequence`` splits
it into (:func:`seed_words`), so every non-negative seed takes the
batched path.  :meth:`~DeterministicValueStream.answer` and
:meth:`~DeterministicValueStream.answers` build the real per-coordinate
generators one by one: they are the oracle the batched path is tested
against, and the per-lane replay for the lanes the kernels cannot
finish exactly (ziggurat wedge/tail, Lemire redraws, any other worker
type), so the batched values are byte-identical to the scalar ones on
every lane.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker import BiasedWorker, HonestWorker, SpamWorker
from repro.domains.base import Domain
from repro.errors import ConfigurationError
from repro.serve.vecrng import (
    CoordinateStreams,
    lemire_integers,
    uniform_doubles,
    ziggurat_normals,
)

#: ``(object_id, attribute, start, count)``: one key's answer span.
AnswerRequest = tuple[int, str, int, int]

# Worker-archetype codes for the batched kernels.  Only *exact* types
# are classified — a subclass may override the scalar method, so its
# lanes are replayed scalar rather than silently diverging.
_KIND_HONEST = 0
_KIND_BIASED = 1
_KIND_SPAM = 2
_KIND_OPAQUE = 3
_KINDS = {
    HonestWorker: _KIND_HONEST,
    BiasedWorker: _KIND_BIASED,
    SpamWorker: _KIND_SPAM,
}


def _attribute_key(attribute: str) -> int:
    """A process-stable 32-bit key for one attribute name."""
    return zlib.crc32(attribute.encode("utf-8")) & 0xFFFFFFFF


def _lanes(column: list, counts: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Repeat one value per request across that request's lanes."""
    return np.repeat(np.array(column, dtype=dtype), counts)


def seed_words(seed: int) -> list[int]:
    """The uint32 entropy words ``SeedSequence`` splits one seed into.

    ``default_rng([seed, ...])`` coerces each list element to its
    little-endian uint32 words (zero is one word), so a seed of ``2**32``
    or more contributes two or more words ahead of the object column.
    Raises :class:`~repro.errors.ConfigurationError` for a negative
    seed, which numpy cannot seed from.
    """
    if seed < 0:
        raise ConfigurationError(f"stream seeds must be non-negative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
    return words


@dataclass(frozen=True)
class AttributeInfo:
    """One attribute's stream constants, resolved against the domain once."""

    canonical: str
    #: crc32 of the canonical name: the generator's attribute coordinate.
    key: int
    #: True values, indexed by object id.
    truths: np.ndarray
    noise_var: float
    binary: bool
    low: float
    high: float


class DeterministicValueStream:
    """Pure-function value answers over one platform's domain and pool.

    Parameters
    ----------
    platform:
        Supplies the domain, the worker population and attribute-name
        resolution (synonym surface forms map to the same canonical
        attribute, hence the same stream).
    seed:
        Stream seed, any non-negative integer; defaults to the
        platform's own seed so a serving run is pinned by the same
        single number as everything else.
    """

    def __init__(self, platform: CrowdPlatform, seed: int | None = None) -> None:
        self.platform = platform
        self.domain: Domain = platform.domain
        self.seed = int(platform._seed if seed is None else seed)
        seed_words(self.seed)  # refuse a negative seed up front
        workers = platform.pool.workers
        self._workers = workers
        self._attributes: dict[str, AttributeInfo] = {}
        self._bias_rows: dict[str, np.ndarray] = {}
        # Pool-order worker columns for the batched kernels.
        self._kinds = np.array(
            [_KINDS.get(type(worker), _KIND_OPAQUE) for worker in workers],
            dtype=np.int64,
        )
        self._skills = np.array(
            [
                worker.skill if kind in (_KIND_HONEST, _KIND_BIASED) else 0.0
                for worker, kind in zip(workers, self._kinds.tolist())
            ],
            dtype=np.float64,
        )
        #: Pool-order worker ids and fault proneness (the fault path's
        #: lane columns).
        self.worker_id_column = np.array(
            [worker.worker_id for worker in workers], dtype=np.int64
        )
        self.proneness_column = np.array(
            [worker.fault_proneness for worker in workers], dtype=np.float64
        )

    def attribute(self, attribute: str) -> AttributeInfo:
        """Constants for one attribute surface form, memoized.

        A wave touches the same few attributes across many objects, so
        canonical resolution and every domain lookup happen once per
        surface form; the fault-injected stream and the engine read the
        same memo.
        """
        info = self._attributes.get(attribute)
        if info is None:
            canonical = self.platform.resolve(attribute)
            domain = self.domain
            low, high = domain.answer_range(canonical)
            info = AttributeInfo(
                canonical=canonical,
                key=_attribute_key(canonical),
                truths=np.asarray(domain.true_values(canonical), dtype=np.float64),
                noise_var=float(domain.difficulty(canonical)),
                binary=bool(domain.is_binary(canonical)),
                low=float(low),
                high=float(high),
            )
            self._attributes[attribute] = info
        return info

    @property
    def workers(self):
        """The worker population answers are drawn from (pool order)."""
        return self._workers

    # -- scalar oracle and per-lane replay -------------------------------

    def answer(self, object_id: int, attribute: str, index: int) -> float:
        """Answer ``index`` of the ``(object, attribute)`` stream."""
        info = self.attribute(attribute)
        rng = np.random.default_rng([self.seed, int(object_id), info.key, int(index)])
        worker = self._workers[int(rng.integers(0, len(self._workers)))]
        return worker.answer_value(self.domain, object_id, info.canonical, rng)

    def answers(
        self, object_id: int, attribute: str, start: int, count: int
    ) -> np.ndarray:
        """Answers ``start .. start+count`` of one key's stream.

        Per-index generators (rather than one generator advanced
        ``count`` times) keep every answer independent of how purchases
        are split into batches.  Returns a float64 ndarray, the answer
        type :meth:`answers_many` returns too.
        """
        return np.array(
            [
                self.answer(object_id, attribute, index)
                for index in range(start, start + count)
            ],
            dtype=np.float64,
        )

    def worker_ids(
        self, object_id: int, attribute: str, start: int, count: int
    ) -> list[int]:
        """Worker ids behind answers ``start .. start+count`` of one key.

        Re-derives the per-answer worker draw from the same coordinate
        generator :meth:`answer` uses, without generating the answers —
        provenance for any cached span is a pure function of the stream
        seed, so reliability state can be rebuilt for tapes whose
        purchase-time attribution was not recorded.
        """
        attr_key = self.attribute(attribute).key
        n = len(self._workers)
        ids: list[int] = []
        for index in range(start, start + count):
            rng = np.random.default_rng(
                [self.seed, int(object_id), attr_key, int(index)]
            )
            ids.append(self._workers[int(rng.integers(0, n))].worker_id)
        return ids

    # -- batched wave path -------------------------------------------------

    def _bias_row(self, canonical: str) -> np.ndarray:
        """Pool-order biases for one attribute (0 off-kind)."""
        row = self._bias_rows.get(canonical)
        if row is None:
            row = np.zeros(len(self._workers), dtype=np.float64)
            for i, worker in enumerate(self._workers):
                if self._kinds[i] == _KIND_BIASED:
                    row[i] = worker.bias(self.domain, canonical)
            self._bias_rows[canonical] = row
        return row

    def _worker_math(
        self,
        requests: Sequence[AnswerRequest],
        infos: Sequence[AttributeInfo],
        counts: np.ndarray,
        widx: np.ndarray,
        raw: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer values from one raw draw per lane, grouped by worker kind.

        Honest-family lanes read the draw as a ziggurat normal, spam
        lanes as a unit uniform — each consumes exactly one raw draw on
        its accept path.  Returns ``(values, ok)``; ``ok`` is False on
        ziggurat-rejected normal lanes and on lanes whose worker's
        exact type has no vectorized contract (the caller replays
        those scalar — the values written there are scratch).
        """
        total = int(counts.sum())
        normals, normal_ok = ziggurat_normals(raw)
        lane_kind = self._kinds[widx]
        spam = lane_kind == _KIND_SPAM
        ok = normal_ok | spam
        ok &= lane_kind != _KIND_OPAQUE

        truth = _lanes(
            [info.truths[obj] for (obj, _, _, _), info in zip(requests, infos)],
            counts,
        )
        noise_var = _lanes([info.noise_var for info in infos], counts)
        binary = _lanes([info.binary for info in infos], counts, bool)

        # Honest math over every lane (spam lanes get overwritten, and
        # not-ok lanes are replayed by the caller, so scratch values
        # there are harmless).
        noise_sd = np.sqrt(self._skills[widx] * noise_var)
        values = np.multiply(noise_sd, normals)
        values += 0.0
        values += truth
        np.clip(values, 0.0, 1.0, out=values, where=binary)

        biased = lane_kind == _KIND_BIASED
        if biased.any():
            # Biases vary per (worker, attribute): gather per attribute
            # group so each group is one pool-row fancy-index.
            group_ids: dict[str, int] = {}
            for info in infos:
                group_ids.setdefault(info.canonical, len(group_ids))
            gid_lane = _lanes(
                [group_ids[info.canonical] for info in infos], counts, np.int64
            )
            bias_lane = np.zeros(total, dtype=np.float64)
            for canonical, gid in group_ids.items():
                mask = biased & (gid_lane == gid)
                if mask.any():
                    bias_lane[mask] = self._bias_row(canonical)[widx[mask]]
            values += bias_lane
            np.clip(values, 0.0, 1.0, out=values, where=biased & binary)

        if spam.any():
            low = _lanes([info.low for info in infos], counts)
            high = _lanes([info.high for info in infos], counts)
            spam_vals = (high - low) * uniform_doubles(raw)
            spam_vals += low
            values[spam] = spam_vals[spam]

        return values, ok

    def batch_lanes(
        self,
        requests: Sequence[AnswerRequest],
        infos: Sequence[AttributeInfo],
        seed: int,
        attempt_column: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, CoordinateStreams, np.ndarray, np.ndarray]:
        """Per-lane coordinate tape for one request list.

        Expands the requests into one lane per answer coordinate
        (request-major), builds the batched PCG64 streams over
        ``[seed words, object, attr_key, index]`` rows (plus a zero
        attempt column for the fault stream) and performs the batched
        worker draw.  Returns ``(counts, index_lane, tape, widx, ok)``;
        ``ok`` is False on Lemire-rejected worker draws.
        """
        counts = np.array([count for _, _, _, count in requests], dtype=np.int64)
        total = int(counts.sum())
        starts = np.array([start for _, _, start, _ in requests], dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        index_lane = np.arange(total, dtype=np.int64)
        index_lane += np.repeat(starts - offsets, counts)

        words = seed_words(seed)
        head = len(words)
        entropy = np.empty((total, head + 3 + int(attempt_column)), dtype=np.uint64)
        entropy[:, :head] = np.array(words, dtype=np.uint64)
        entropy[:, head] = _lanes([obj for obj, _, _, _ in requests], counts, np.uint64)
        entropy[:, head + 1] = _lanes([info.key for info in infos], counts, np.uint64)
        entropy[:, head + 2] = index_lane.astype(np.uint64)
        if attempt_column:
            entropy[:, head + 3] = 0
        tape = CoordinateStreams(entropy)

        # Draw 1: worker index (consumes nothing when the pool has one
        # worker, exactly like the scalar Generator.integers(0, 1)).
        n_workers = len(self._workers)
        if n_workers > 1:
            widx, ok = lemire_integers(tape.next64(), n_workers)
        else:
            widx = np.zeros(total, dtype=np.int64)
            ok = np.ones(total, dtype=bool)
        return counts, index_lane, tape, widx, ok

    def answers_many(
        self, requests: Sequence[AnswerRequest]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Batched :meth:`answers` over many ``(obj, attr, start, count)``.

        Returns ``(answers, worker_ids)``, one array per request each, in
        request order.  Every float64 answer array is byte-identical to
        the scalar ``answers`` for the same span; every int64 worker-id
        array equals :meth:`worker_ids` for it, read off the batched
        worker draw (only Lemire-rejected draws are re-derived scalar).
        """
        if not requests:
            return [], []
        infos = [self.attribute(attr) for _, attr, _, _ in requests]
        counts, index_lane, tape, widx, drawn = self.batch_lanes(
            requests, infos, self.seed
        )

        # Draw 2: the noise variate.  Honest-family lanes read it as a
        # ziggurat normal, spam lanes as a unit uniform — both consume
        # exactly one raw draw on the accept path.
        values, math_ok = self._worker_math(
            requests, infos, counts, widx, tape.next64()
        )

        rejected = np.flatnonzero(~(drawn & math_ok))
        ids = self.worker_id_column[widx]
        if len(rejected):
            request_lane = np.repeat(np.arange(len(requests), dtype=np.int64), counts)
            for lane in rejected.tolist():
                obj, attr, _, _ = requests[request_lane[lane]]
                index = int(index_lane[lane])
                values[lane] = self.answer(obj, attr, index)
                if not drawn[lane]:
                    ids[lane] = self.worker_ids(obj, attr, index, 1)[0]

        # Basic slices (views), cheaper per request than np.split.
        ends = np.cumsum(counts).tolist()
        spans = list(zip([0, *ends[:-1]], ends))
        return (
            [values[lo:hi] for lo, hi in spans],
            [ids[lo:hi] for lo, hi in spans],
        )
