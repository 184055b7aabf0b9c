"""Byte pins for the crowd platform's answer streams.

A fixed question script runs against a mixed worker pool (honest,
spam, colluding, drifting and sleeper workers) through the four
``ask_*`` methods and the serving tier's per-coordinate value stream.
Every answer is hashed bit for bit (``float.hex``), so a change to how
a worker draws its answer, how the platform picks a worker, or how the
retry loop spends its random streams shows up here even when every
statistical test still passes.

The domain is hand built from integer grids and a fixed relevance
table: no LAPACK call feeds the hashed bytes, so the digests hold
across hosts.
"""

import hashlib
import json

import numpy as np

from repro.crowd.faults import FaultProfile
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.crowd.spam import ZScoreSpamFilter
from repro.domains.base import IRRELEVANT, Domain
from repro.serve.stream import DeterministicValueStream

#: sha256 of the canonical answer document for each configuration.
PINNED = {
    "fault_free": (
        "e6b7fbf01f39bfc4e76689769d881be6816b63f7e66ac6395c8783030cd9104b"
    ),
    "faulted_spam_filtered": (
        "ad3b628de414a64e11465671094235851ff4877c9cd14f054d514b71f21fd5bf"
    ),
}

_N_OBJECTS = 120


class PinDomain(Domain):
    """Four attributes on exact decimal grids, with a fixed taxonomy."""

    name = "pin"
    _NAMES = ("target", "helper", "noise", "flag")
    _DIFFICULTY = {"target": 0.5, "helper": 0.2, "noise": 1.0, "flag": 0.05}
    _RELEVANT = {
        frozenset(("target", "helper")): 0.8,
        frozenset(("target", "flag")): 0.6,
        frozenset(("helper", "flag")): 0.4,
    }
    _DISMANTLE = {
        "target": {"helper": 0.5, "flag": 0.2, IRRELEVANT: 0.3},
        "helper": {"target": 0.6, IRRELEVANT: 0.4},
        "noise": {IRRELEVANT: 1.0},
        "flag": {"helper": 0.7, IRRELEVANT: 0.3},
    }

    def __init__(self) -> None:
        rng = np.random.default_rng(11)
        self._values = {
            "target": 10.0 + rng.integers(-400, 400, _N_OBJECTS) / 100.0,
            "helper": 5.0 + rng.integers(-300, 300, _N_OBJECTS) / 100.0,
            "noise": rng.integers(0, 1000, _N_OBJECTS) / 100.0,
            "flag": rng.integers(0, 101, _N_OBJECTS) / 100.0,
        }

    def attributes(self) -> tuple[str, ...]:
        return self._NAMES

    def n_objects(self) -> int:
        return _N_OBJECTS

    def is_binary(self, attribute: str) -> bool:
        self.check_attribute(attribute)
        return attribute == "flag"

    def true_value(self, object_id: int, attribute: str) -> float:
        self.check_attribute(attribute)
        self.check_object(object_id)
        return float(self._values[attribute][object_id])

    def true_values(self, attribute: str) -> np.ndarray:
        self.check_attribute(attribute)
        return self._values[attribute].copy()

    def difficulty(self, attribute: str) -> float:
        self.check_attribute(attribute)
        return self._DIFFICULTY[attribute]

    def relevance(self, attribute_a: str, attribute_b: str) -> float:
        if attribute_a == attribute_b:
            return 1.0
        return self._RELEVANT.get(frozenset((attribute_a, attribute_b)), 0.0)

    def dismantle_distribution(self, attribute: str) -> dict[str, float]:
        self.check_attribute(attribute)
        return dict(self._DISMANTLE[attribute])

    def synonyms(self, attribute: str) -> tuple[str, ...]:
        self.check_attribute(attribute)
        return ("flagged",) if attribute == "flag" else ()


def _pool(fault_spread: float = 0.0) -> WorkerPool:
    """40 workers: 6 spam, 6 colluding, 6 drifting, 6 sleepers, 16 honest."""
    return WorkerPool(
        size=40,
        seed=5,
        spam_fraction=0.15,
        colluding_fraction=0.15,
        drifting_fraction=0.15,
        sleeper_fraction=0.15,
        sleeper_patience=60,
        skill_spread=0.3,
        fault_spread=fault_spread,
    )


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _script(platform: CrowdPlatform) -> dict:
    """Interleaved questions of every type; returns every answer."""
    values, dismantles, votes, examples = [], [], [], []
    for round_index in range(3):
        for object_id in (3, 40, 59, 60, 61, 100 + round_index):
            for attribute, n in (("target", 5), ("helper", 3), ("flagged", 4)):
                values.append(_hex(platform.ask_value(object_id, attribute, n)))
        for _ in range(3):
            for attribute in ("target", "helper", "flag", "noise"):
                dismantles.append(platform.ask_dismantle(attribute))
            for pair in (
                ("target", "helper"),
                ("target", "noise"),
                ("flagged", "helper"),
            ):
                votes.append(platform.ask_verification_vote(*pair))
            for targets in (("target",), ("target", "helper")):
                object_id, truth = platform.ask_example(targets)
                examples.append(
                    [object_id, {k: float(v).hex() for k, v in truth.items()}]
                )
    stream = DeterministicValueStream(platform)
    streamed = [
        _hex(stream.answers(object_id, attribute, start, 6))
        for object_id in (0, 59, 60, 119)
        for attribute in ("target", "flagged", "noise")
        for start in (0, 4)
    ]
    report = platform.resilience_report()
    return {
        "value": values,
        "dismantle": dismantles,
        "verification": votes,
        "example": examples,
        "stream": streamed,
        "spent": float(platform.total_spent).hex(),
        "retries": report.retries_by_category,
        "abandons": report.abandons_by_category,
        "faults": [report.timeouts, report.abandons, report.garbage_answers],
        "quarantined": list(report.quarantined_workers),
        "clock": float(report.simulated_seconds).hex(),
    }


def _digest(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_fault_free_answers_are_pinned():
    platform = CrowdPlatform(
        PinDomain(), pool=_pool(), recorder=AnswerRecorder(), seed=3
    )
    assert _digest(_script(platform)) == PINNED["fault_free"]


def test_faulted_spam_filtered_answers_are_pinned():
    platform = CrowdPlatform(
        PinDomain(),
        pool=_pool(fault_spread=1.0),
        recorder=AnswerRecorder(),
        spam_filter=ZScoreSpamFilter(threshold=2.0),
        faults=FaultProfile.uniform(0.08, latency_mean=2.0),
        seed=3,
    )
    document = _script(platform)
    assert sum(document["faults"]) > 0
    assert _digest(document) == PINNED["faulted_spam_filtered"]
