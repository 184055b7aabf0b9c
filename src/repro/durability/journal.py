"""Write-ahead answer journal (append-only, checksummed JSONL).

Every crowd interaction is journaled *before* it is applied to the
in-memory state: the :class:`~repro.crowd.recording.AnswerRecorder`
writes one record per freshly generated answer (replayed answers cost
nothing and are not re-journaled) and the
:class:`~repro.crowd.pricing.CostLedger` one record per charge, retry
and abandonment.  :func:`replay_journal` folds the log back into a
recorder and a ledger that match the originals exactly.

Record format — one JSON object per line::

    {"seq": 17, "kind": "value", "object": 3, "attribute": "fat",
     "index": 2, "answer": 1.25, "crc": 2903817172}

``seq`` numbers records consecutively from 0; ``crc`` is the CRC-32 of
the record's canonical JSON without the ``crc`` field.  On open, a
journal scans itself: a record that fails to parse or checksum at the
*end* of the file is a torn write from a crash — it is truncated and
the journal continues cleanly after it.  The same damage anywhere else
is real corruption and raises
:class:`~repro.errors.JournalCorruptionError`.

Idempotence: answer records carry their tape index, so re-applying a
record that is already present is a no-op (after an equality check);
this is what makes a journal that overlaps a checkpoint safe to replay.
A ``resume`` marker — appended whenever a run restores a checkpoint —
rewinds the reconstruction to the checkpointed tape lengths and ledger
totals, so the records the resumed run re-executes deterministically
land on the same indices they originally had.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.crowd.pricing import CostLedger
from repro.crowd.recording import AnswerRecorder
from repro.errors import ConfigurationError, JournalCorruptionError

#: Answer-record kinds, matching the recorder's four stores.
ANSWER_KINDS = ("value", "dismantle", "verification", "example")

#: Ledger events a journal records (all unpaid except ``charge``;
#: ``saving`` is money *avoided* by the serving engine's answer cache).
LEDGER_EVENTS = ("charge", "retry", "abandon", "saving")


def _canonical(record: dict) -> bytes:
    """Canonical JSON encoding used for checksumming."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _crc(record: dict) -> int:
    """CRC-32 over the record without its ``crc`` field."""
    body = {key: value for key, value in record.items() if key != "crc"}
    return zlib.crc32(_canonical(body)) & 0xFFFFFFFF


def _encode_answer(kind: str, key, index: int, item, worker: int | None = None) -> dict:
    """One answer record, keyed per the recorder's store for ``kind``."""
    if kind == "value":
        object_id, attribute = key
        record = {"object": int(object_id), "attribute": str(attribute)}
        if worker is not None:
            # Optional provenance for reliability inference; absent for
            # unattributed runs so their journal bytes are unchanged.
            record["worker"] = int(worker)
        answer = float(item)
    elif kind == "dismantle":
        record = {"attribute": str(key)}
        answer = str(item)
    elif kind == "verification":
        attribute, candidate = key
        record = {"attribute": str(attribute), "candidate": str(candidate)}
        answer = bool(item)
    elif kind == "example":
        record = {"targets": [str(t) for t in key]}
        object_id, values = item
        answer = {
            "object": int(object_id),
            "values": {str(k): float(v) for k, v in values.items()},
        }
    else:
        raise ConfigurationError(f"unknown journal answer kind: {kind!r}")
    record["kind"] = kind
    record["index"] = int(index)
    record["answer"] = answer
    return record


def _decode_answer(record: dict):
    """``(store_name, key, value)`` for one answer record."""
    kind = record["kind"]
    answer = record["answer"]
    if kind == "value":
        return "_values", (int(record["object"]), str(record["attribute"])), float(answer)
    if kind == "dismantle":
        return "_dismantles", str(record["attribute"]), str(answer)
    if kind == "verification":
        return "_votes", (str(record["attribute"]), str(record["candidate"])), bool(answer)
    if kind == "example":
        value = (
            int(answer["object"]),
            {str(k): float(v) for k, v in answer["values"].items()},
        )
        return "_examples", tuple(str(t) for t in record["targets"]), value
    raise JournalCorruptionError(f"unknown answer kind in journal: {kind!r}")


def _scan(path: Path) -> tuple[list[dict], int, int]:
    """Parse a journal file.

    Returns ``(records, valid_bytes, total_bytes)``.  A record that
    fails to parse, checksum, or sequence-check is tolerated only as
    the *final* content of the file (a torn write); ``valid_bytes`` then
    stops before it.  The same failure earlier raises
    :class:`~repro.errors.JournalCorruptionError`.
    """
    data = path.read_bytes()
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline + 1
        line = data[offset:end].strip()
        if line:
            record = _parse_line(line, expected_seq=len(records))
            if record is None:
                # Damaged record: only acceptable as the torn tail.
                if data[end:].strip():
                    raise JournalCorruptionError(
                        f"corrupt journal record at byte {offset} of {path} "
                        f"(record {len(records)}) with valid records after it"
                    )
                return records, offset, len(data)
            records.append(record)
        offset = end
    return records, len(data), len(data)


def _parse_line(line: bytes, expected_seq: int) -> dict | None:
    """Decode one journal line; ``None`` when damaged."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record or "seq" not in record:
        return None
    if record["crc"] != _crc(record):
        return None
    if record["seq"] != expected_seq:
        return None
    return record


class Journal:
    """An append-only, checksummed interaction log.

    Opening an existing journal scans and repairs it (truncating a torn
    final record); appends are flushed per record so the file is
    durable up to the last completed interaction.  The write methods
    are duck-typed against what :class:`~repro.crowd.recording.
    AnswerRecorder` and :class:`~repro.crowd.pricing.CostLedger` call,
    so the crowd layer needs no import of this package.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.truncated_bytes = 0
        self._seq = 0
        if self.path.exists():
            records, valid_bytes, total_bytes = _scan(self.path)
            if valid_bytes < total_bytes:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
                self.truncated_bytes = total_bytes - valid_bytes
            self._seq = len(records)
        self._handle = open(self.path, "a", encoding="utf-8")

    @property
    def record_count(self) -> int:
        """Number of committed records (written and scanned)."""
        return self._seq

    def append(self, record: dict) -> None:
        """Commit one record: assign ``seq``, checksum, write, flush."""
        record = dict(record)
        record["seq"] = self._seq
        record["crc"] = _crc(record)
        self._handle.write(_canonical(record).decode("utf-8") + "\n")
        self._handle.flush()
        self._seq += 1

    # -- recorder / ledger hooks (duck-typed) ---------------------------

    def record_answer(
        self, kind: str, key, index: int, item, worker: int | None = None
    ) -> None:
        """Journal one freshly generated crowd answer before it is kept.

        ``worker`` (value answers only) records which simulated worker
        produced the answer, so replay can rebuild the recorder's
        provenance tapes for reliability-weighted aggregation.
        """
        self.append(_encode_answer(kind, key, index, item, worker=worker))

    def record_ledger(
        self, event: str, category: str, cost: float = 0.0, count: int = 1
    ) -> None:
        """Journal one ledger entry (charge/retry/abandon) before it applies."""
        if event not in LEDGER_EVENTS:
            raise ConfigurationError(f"unknown ledger journal event: {event!r}")
        self.append(
            {
                "kind": "ledger",
                "event": event,
                "category": str(category),
                "cost": float(cost),
                "count": int(count),
            }
        )

    def record_lost(self, key, count: int) -> None:
        """Journal value answers lost to exhausted retries for one key.

        The serving engine's fault-injected stream consumes one stream
        index per *attempted* answer, obtained or not, so its per-key
        stream cursor runs ahead of the cache by the number of lost
        answers.  Journaling each loss keeps that cursor durable: a
        resumed run replays ``Σ count`` per key and continues the
        stream exactly where the crashed run would have, never
        re-drawing (or double-buying) an index it already consumed.
        """
        if count < 1:
            raise ConfigurationError(f"lost count must be >= 1: {count}")
        object_id, attribute = key
        self.append(
            {
                "kind": "lost",
                "object": int(object_id),
                "attribute": str(attribute),
                "count": int(count),
            }
        )

    def mark_resume(self, phase: str, recorder: AnswerRecorder, ledger: CostLedger) -> None:
        """Append a resume marker rewinding replay to a checkpoint state.

        The marker embeds the restored recorder's per-key tape lengths
        and the restored ledger totals; replay truncates its
        reconstruction to exactly that state before applying the
        re-executed records that follow.
        """
        self.append(
            {
                "kind": "resume",
                "phase": str(phase),
                "tapes": recorder.tape_lengths(),
                "ledger": ledger.snapshot(),
            }
        )

    def close(self) -> None:
        """Flush and close the underlying file handle."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str | Path) -> list[dict]:
    """All committed records of a journal file (torn tail ignored)."""
    return _scan(Path(path))[0]


@dataclass
class JournalReplay:
    """The state reconstructed from one journal.

    Attributes
    ----------
    recorder:
        An :class:`~repro.crowd.recording.AnswerRecorder` holding every
        journaled answer (exactly the tapes of the live recorder).
    ledger:
        A :class:`~repro.crowd.pricing.CostLedger` with the journaled
        charges, retries and abandons (exactly the live ledger).
    record_count:
        Committed records replayed.
    resumes:
        Resume markers encountered (0 for an uninterrupted run).
    lost:
        ``(object_id, attribute) -> answers lost to exhausted retries``
        (the serving engine's fault-stream cursor offsets; empty for
        offline journals and fault-free serving runs).
    kinds:
        Records replayed per record kind, so a reader that expects only
        some kinds (the serving engine writes ``value`` and ``lost``)
        can refuse a journal holding others.
    """

    recorder: AnswerRecorder
    ledger: CostLedger
    record_count: int
    resumes: int
    lost: dict = field(default_factory=dict)
    kinds: Counter = field(default_factory=Counter)


def _apply_answer(recorder: AnswerRecorder, record: dict) -> None:
    """Apply one answer record idempotently, by tape index."""
    store_name, key, value = _decode_answer(record)
    store = getattr(recorder, store_name)
    sequence = store.setdefault(key, [])
    index = int(record["index"])
    if index < len(sequence):
        if sequence[index] != value:
            raise JournalCorruptionError(
                f"journal record {record['seq']} rewrites tape "
                f"{record['kind']}:{key!r}[{index}] with a different answer"
            )
        return
    if index > len(sequence):
        raise JournalCorruptionError(
            f"journal record {record['seq']} leaves a gap in tape "
            f"{record['kind']}:{key!r} (index {index}, have {len(sequence)})"
        )
    sequence.append(value)
    if record["kind"] == "value" and "worker" in record:
        recorder.note_value_worker(key[0], key[1], index, int(record["worker"]))


def _rewind(recorder: AnswerRecorder, tapes: dict) -> None:
    """Truncate the reconstruction to a resume marker's tape lengths."""
    decoders = {
        "value": ("_values", lambda e: (int(e[0]), str(e[1])), 2),
        "dismantle": ("_dismantles", lambda e: str(e[0]), 1),
        "verification": ("_votes", lambda e: (str(e[0]), str(e[1])), 2),
        "example": ("_examples", lambda e: tuple(str(t) for t in e[0]), 1),
    }
    for kind, (store_name, decode_key, key_width) in decoders.items():
        store = getattr(recorder, store_name)
        keep: dict = {}
        for entry in tapes.get(kind, []):
            keep[decode_key(entry)] = int(entry[key_width])
        for key in list(store):
            if key not in keep:
                del store[key]
        for key, length in keep.items():
            tape = store.get(key, [])
            if len(tape) < length:
                raise JournalCorruptionError(
                    f"resume marker expects {length} {kind} answers for "
                    f"{key!r} but the journal only holds {len(tape)}"
                )
            del tape[length:]
            store[key] = tape
    # Provenance tapes shadow the value store: drop or truncate them in
    # lockstep (a shorter tape is fine — missing suffix positions read
    # as unattributed).
    workers = recorder._value_workers
    for key in list(workers):
        if key not in recorder._values:
            del workers[key]
        else:
            del workers[key][len(recorder._values[key]):]


def replay_journal(path: str | Path) -> JournalReplay:
    """Reconstruct recorder and ledger state from a journal file.

    Torn trailing records are ignored (they were never applied — the
    journal is write-ahead, but both the recorder and the ledger only
    act *after* their journal write returns); mid-file corruption and
    contradictory records raise
    :class:`~repro.errors.JournalCorruptionError`.
    """
    records = read_journal(path)
    recorder = AnswerRecorder()
    ledger = CostLedger()
    resumes = 0
    lost: dict = {}
    kinds: Counter = Counter()
    for record in records:
        kind = record.get("kind")
        kinds[kind] += 1
        if kind in ANSWER_KINDS:
            _apply_answer(recorder, record)
        elif kind == "lost":
            key = (int(record["object"]), str(record["attribute"]))
            lost[key] = lost.get(key, 0) + int(record["count"])
        elif kind == "ledger":
            event = record["event"]
            if event == "charge":
                ledger.record(record["category"], record["cost"], record["count"])
            elif event == "retry":
                ledger.record_retry(record["category"], record["count"])
            elif event == "abandon":
                ledger.record_abandon(record["category"], record["count"])
            elif event == "saving":
                ledger.record_saving(
                    record["category"], record["cost"], record["count"]
                )
            else:
                raise JournalCorruptionError(
                    f"unknown ledger event in journal: {event!r}"
                )
        elif kind == "resume":
            resumes += 1
            _rewind(recorder, record["tapes"])
            ledger.restore(record["ledger"])
        else:
            raise JournalCorruptionError(f"unknown journal record kind: {kind!r}")
    return JournalReplay(
        recorder=recorder,
        ledger=ledger,
        record_count=len(records),
        resumes=resumes,
        lost=lost,
        kinds=kinds,
    )
