"""Unit tests for the serving engine and report objects."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.recording import AnswerRecorder
from repro.durability.journal import Journal
from repro.errors import ConfigurationError, JournalCorruptionError
from repro.serve import (
    DegradedResult,
    Predicate,
    QueryRequest,
    QueryResult,
    ServeEngine,
    ServeReport,
    TermShortfall,
    load_query_file,
)


def identity_plan(target: str, n_questions: int = 4) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def make_engine(domain, **kwargs) -> tuple[ServeEngine, CrowdPlatform]:
    platform = CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=3, budget=kwargs.pop("budget", None)
    )
    return ServeEngine(platform, **kwargs), platform


class TestServeRequests:
    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            QueryRequest("", ("a",), (1,))
        with pytest.raises(ConfigurationError):
            QueryRequest("q", (), (1,))
        with pytest.raises(ConfigurationError):
            QueryRequest("q", ("a",), ())
        with pytest.raises(ConfigurationError):
            QueryRequest("q", ("a",), (1,), deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            QueryRequest(
                "q", ("a",), (1,), predicate=Predicate("other", ">=", 0.0)
            )

    def test_predicate_ops(self):
        assert Predicate("a", ">=", 1.0).matches(1.0)
        assert not Predicate("a", ">", 1.0).matches(1.0)
        assert Predicate("a", "<", 2.0).matches(1.0)
        with pytest.raises(ConfigurationError):
            Predicate("a", "!=", 1.0)

    def test_result_roundtrip(self):
        result = QueryResult(
            query_id="q",
            status="degraded",
            degraded_reason="deadline",
            degraded=DegradedResult(
                reason="deadline",
                reasons=("deadline", "budget"),
                completeness=0.5,
                confidence=0.7,
                answers_demanded=8,
                answers_served=4,
                objects_requested=4,
                objects_evaluated=2,
                shortfalls=[TermShortfall(1, "a", 4, 2)],
                intervals={"a": [[0.1, 0.9], [0.2, 1.3]]},
            ),
            object_ids=[1, 2],
            estimates={"a": [0.5, 0.75]},
            selected=[2],
            fresh_answers=3,
            saved_answers=1,
            spent_cents=1.2,
            saved_cents=0.4,
        )
        assert QueryResult.from_dict(result.to_dict()) == result

    def test_shed_result_roundtrip(self):
        result = QueryResult(query_id="q", status="shed", shed_reason="deadline")
        assert QueryResult.from_dict(result.to_dict()) == result
        with pytest.raises(ConfigurationError):
            QueryResult(query_id="q", status="shed", shed_reason="bogus")

    def test_non_finite_deadline_rejected(self):
        for bad in (float("nan"), float("inf"), -2.0):
            with pytest.raises(ConfigurationError):
                QueryRequest("q", ("a",), (1,), deadline_s=bad)

    def test_query_file_parsing(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            '{"queries": [{"id": "qa", "targets": ["a"],'
            ' "objects": {"range": [0, 3]},'
            ' "predicate": {"target": "a", "op": ">=", "threshold": 1}},'
            ' {"targets": ["b"], "objects": [7, 9]}]}'
        )
        first, second = load_query_file(path)
        assert first.query_id == "qa"
        assert first.object_ids == (0, 1, 2)
        assert first.predicate.threshold == 1.0
        assert second.query_id == "q1"  # positional default
        assert second.object_ids == (7, 9)
        assert second.predicate is None

    def test_query_file_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_query_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_query_file(bad)


class TestServeEngine:
    def test_overlap_buys_each_answer_once(self, tiny_domain):
        engine, platform = make_engine(tiny_domain)
        plan = identity_plan("target", 4)
        engine.submit(QueryRequest("q1", ("target",), (0, 1, 2)), plan)
        engine.submit(QueryRequest("q2", ("target",), (1, 2, 3)), plan)
        report = engine.run()
        # Union is 4 objects x 4 answers; the 2 shared objects are hits
        # for the second query.
        assert platform.ledger.questions_by_category["value"] == 16
        assert report.result("q2").saved_answers == 8
        assert report.result("q2").fresh_answers == 4
        assert report.result("q1").saved_answers == 0
        assert report.coalesced_questions == 8

    def test_wave_coalescing_takes_max_demand(self, tiny_domain):
        engine, platform = make_engine(tiny_domain)
        engine.submit(
            QueryRequest("small", ("target",), (0,)), identity_plan("target", 2)
        )
        engine.submit(
            QueryRequest("large", ("target",), (0,)), identity_plan("target", 6)
        )
        engine.run()
        # One purchase of max(2, 6) answers, not 2 + 6.
        assert platform.ledger.questions_by_category["value"] == 6

    def test_sheds_beyond_max_queue(self, tiny_domain):
        engine, _ = make_engine(tiny_domain, max_queue=1)
        plan = identity_plan("target")
        assert engine.submit(QueryRequest("q1", ("target",), (0,)), plan)
        assert not engine.submit(QueryRequest("q2", ("target",), (1,)), plan)
        report = engine.run()
        assert report.shed == 1
        assert report.result("q2").status == "shed"
        assert report.result("q2").object_ids == []
        # The shed query spent nothing.
        assert report.result("q2").spent_cents == 0.0

    def test_duplicate_query_id_rejected(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        plan = identity_plan("target")
        engine.submit(QueryRequest("q1", ("target",), (0,)), plan)
        with pytest.raises(ConfigurationError):
            engine.submit(QueryRequest("q1", ("target",), (1,)), plan)

    @pytest.mark.parametrize("bad_id", [-1, 200])
    def test_unknown_object_id_rejected_at_submit(self, tiny_domain, bad_id):
        # tiny_domain has 200 rows.  The bad query is refused before it
        # is routed or queued, and the good query queued before it
        # still serves.
        def no_routing(request):
            raise AssertionError("routed a query with unknown object ids")

        engine, _ = make_engine(tiny_domain, plan_source=no_routing)
        plan = identity_plan("target")
        engine.submit(QueryRequest("good", ("target",), (0, 199)), plan)
        with pytest.raises(ConfigurationError, match="'bad'.*outside"):
            engine.submit(QueryRequest("bad", ("target",), (3, bad_id)))
        assert engine.queue_depth == 1
        report = engine.run()
        assert [r.query_id for r in report.results] == ["good"]
        assert report.result("good").status == "completed"

    def test_missing_plan_target_rejected(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        with pytest.raises(ConfigurationError):
            engine.submit(
                QueryRequest("q1", ("target", "helper"), (0,)),
                identity_plan("target"),
            )

    def test_predicate_selects_objects(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        engine.submit(
            QueryRequest(
                "q1",
                ("target",),
                tuple(range(12)),
                predicate=Predicate("target", ">=", 10.0),
            ),
            identity_plan("target", 30),
        )
        report = engine.run()
        result = report.result("q1")
        estimates = dict(zip(result.object_ids, result.estimates["target"]))
        assert result.selected == [
            oid for oid in result.object_ids if estimates[oid] >= 10.0
        ]

    def test_deadline_returns_flagged_prefix(self, tiny_domain):
        ticks = iter(range(1000))

        def clock():
            return float(next(ticks))

        engine, _ = make_engine(tiny_domain, clock=clock)
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(10)), deadline_s=2.0),
            identity_plan("target"),
        )
        report = engine.run()
        result = report.result("q1")
        assert result.status == "degraded"
        assert result.degraded_reason == "deadline"
        assert result.degraded is not None
        assert "deadline" in result.degraded.reasons
        assert 0 < len(result.object_ids) < 10
        assert len(result.estimates["target"]) == len(result.object_ids)
        # Timing-only degradation: every evaluated object had its full
        # answer budget, so completeness is the object fraction alone.
        assert result.degraded.completeness == pytest.approx(
            len(result.object_ids) / 10
        )
        assert result.degraded.objects_evaluated == len(result.object_ids)

    def test_budget_exhaustion_degrades(self, tiny_domain):
        # 4 numeric answers cost 1.6c; allow only the first object's worth.
        engine, platform = make_engine(tiny_domain, budget=Budget(1.7))
        engine.submit(
            QueryRequest("q1", ("target",), (0, 1)), identity_plan("target", 4)
        )
        report = engine.run()
        result = report.result("q1")
        assert result.status == "degraded"
        assert result.degraded_reason == "budget"
        # Both objects evaluated; the unfunded one degraded, not dropped.
        assert len(result.object_ids) == 2
        assert platform.ledger.questions_by_category["value"] == 4
        annotation = result.degraded
        assert annotation is not None
        assert annotation.reasons == ("budget",)
        assert annotation.answers_demanded == 8
        assert annotation.answers_served == 4
        assert annotation.shortfalls == [TermShortfall(1, "target", 4, 0)]
        assert 0.0 < annotation.completeness < 1.0
        assert annotation.confidence == pytest.approx(0.95 * 4 / 8)
        # The unfunded object's interval is widened by the range prior;
        # the funded one still gets a finite, nonempty interval.
        lo, hi = annotation.intervals["target"][1]
        assert hi > lo

    def test_checkpoint_resume_without_repurchase(self, tiny_domain, tmp_path):
        plan = identity_plan("target", 4)
        requests = [
            QueryRequest("q1", ("target",), tuple(range(6))),
            QueryRequest("q2", ("target",), tuple(range(3, 9))),
        ]

        reference_engine, reference_platform = make_engine(tiny_domain)
        for request in requests:
            reference_engine.submit(request, plan)
        reference = reference_engine.run()

        # Serve only the first wave, checkpoint, then "crash".
        crashed, crashed_platform = make_engine(
            tiny_domain, wave_size=1, checkpoint_dir=tmp_path
        )
        for request in requests:
            crashed.submit(request, plan)
        wave, crashed._queue = crashed._queue[:1], crashed._queue[1:]
        crashed._serve_wave(wave)
        crashed._checkpoint()
        crashed.close()

        resumed_engine, resumed_platform = make_engine(
            tiny_domain, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed_engine.resumed
        for request in requests:
            resumed_engine.submit(request, plan)
        resumed = resumed_engine.run()
        resumed_engine.close()

        assert resumed.result("q1").from_checkpoint
        for query_id in ("q1", "q2"):
            assert np.array_equal(
                np.array(resumed.result(query_id).estimates["target"]),
                np.array(reference.result(query_id).estimates["target"]),
            )
        assert resumed_platform.ledger.total_spent == pytest.approx(
            reference_platform.ledger.total_spent
        )

    def test_journal_tail_recharges_unchecked_answers(self, tiny_domain, tmp_path):
        # Crash *between* journal writes and the wave checkpoint: the
        # journal runs ahead; resume must re-charge and reuse its tail.
        plan = identity_plan("target", 4)
        crashed, crashed_platform = make_engine(
            tiny_domain, checkpoint_dir=tmp_path
        )
        crashed.submit(QueryRequest("q1", ("target",), (0, 1)), plan)
        wave, crashed._queue = crashed._queue[:1], crashed._queue[1:]
        crashed._serve_wave(wave)  # journaled, but never checkpointed
        crashed.close()
        spent = crashed_platform.ledger.total_spent
        assert spent > 0

        resumed, resumed_platform = make_engine(
            tiny_domain, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.restored_answers == 8
        assert resumed_platform.ledger.total_spent == pytest.approx(spent)
        resumed.submit(QueryRequest("q1", ("target",), (0, 1)), plan)
        report = resumed.run()
        resumed.close()
        # Fully served from the restored cache: no new spend.
        assert resumed_platform.ledger.total_spent == pytest.approx(spent)
        assert report.result("q1").saved_answers == 8

    def test_resume_requires_checkpoint_dir(self, tiny_domain):
        with pytest.raises(ConfigurationError):
            make_engine(tiny_domain, resume=True)

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_only_serial_workers_accepted(self, tiny_domain, workers):
        with pytest.raises(ConfigurationError, match="thread pool was removed"):
            make_engine(tiny_domain, workers=workers)
        engine, _ = make_engine(tiny_domain, workers=1)
        engine.close()

    def test_resume_refuses_per_partition_journals(self, tiny_domain, tmp_path):
        # An older release journaled answers per key-hash partition.
        # Those answers were paid for; resuming without replaying them
        # would buy them again, so the engine refuses the directory.
        plan = identity_plan("target", 4)
        crashed, _ = make_engine(tiny_domain, checkpoint_dir=tmp_path)
        crashed.submit(QueryRequest("q1", ("target",), (0, 1)), plan)
        wave, crashed._queue = crashed._queue[:1], crashed._queue[1:]
        crashed._serve_wave(wave)
        crashed.close()
        flat = tmp_path / "serve.journal.jsonl"
        legacy = tmp_path / "serve.shard01.journal.jsonl"
        flat.rename(legacy)
        with pytest.raises(ConfigurationError, match="serve.shard01.journal.jsonl"):
            make_engine(tiny_domain, checkpoint_dir=tmp_path, resume=True)
        # Nothing was opened or written by the refused engine.
        assert not flat.exists()

    def test_report_lookup_and_counts(self):
        report = ServeReport(
            results=[
                QueryResult(query_id="a"),
                QueryResult(query_id="b", status="shed"),
            ]
        )
        assert report.completed == 1
        assert report.shed == 1
        assert report.result("a").query_id == "a"
        with pytest.raises(ConfigurationError):
            report.result("missing")


class TestJournalResumeRefusal:
    """Resume refuses a serve journal the engine could not have written.

    Each case appends one checksummed record to a crashed wave's
    journal; resume must raise before it charges or buys anything.
    """

    def crashed_journal(self, domain, directory) -> Path:
        crashed, _ = make_engine(domain, checkpoint_dir=directory)
        crashed.submit(
            QueryRequest("q1", ("target",), (0, 1)), identity_plan("target", 4)
        )
        wave, crashed._queue = crashed._queue[:1], crashed._queue[1:]
        crashed._serve_wave(wave)  # journaled, never checkpointed
        crashed.close()
        return directory / "serve.journal.jsonl"

    def assert_refused(self, domain, directory, path, match: str | None):
        before = path.read_bytes()
        platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
        with pytest.raises(JournalCorruptionError, match=match):
            ServeEngine(platform, checkpoint_dir=directory, resume=True)
        assert platform.ledger.total_spent == 0.0
        assert platform.ledger.questions_by_category["value"] == 0
        assert path.read_bytes() == before

    def test_duplicate_record_with_another_answer(self, tiny_domain, tmp_path):
        path = self.crashed_journal(tiny_domain, tmp_path)
        with Journal(path) as journal:
            journal.record_answer("value", (0, "target"), 1, 1e9)
        self.assert_refused(tiny_domain, tmp_path, path, None)

    def test_index_gap_in_a_tape(self, tiny_domain, tmp_path):
        path = self.crashed_journal(tiny_domain, tmp_path)
        with Journal(path) as journal:
            journal.record_answer("value", (0, "target"), 5, 1.0)
        self.assert_refused(tiny_domain, tmp_path, path, "leaves a gap")

    def test_foreign_record_kind(self, tiny_domain, tmp_path):
        path = self.crashed_journal(tiny_domain, tmp_path)
        with Journal(path) as journal:
            journal.record_answer("dismantle", "target", 0, "helper")
        self.assert_refused(tiny_domain, tmp_path, path, "'dismantle' records")


class TestEngineShutdown:
    def test_context_manager_closes_on_error(self, tiny_domain, tmp_path):
        engine, _ = make_engine(tiny_domain, checkpoint_dir=tmp_path)
        with pytest.raises(RuntimeError):
            with engine:
                raise RuntimeError("boom")
        assert engine.journal is not None
        with pytest.raises(ValueError):  # I/O on a closed file
            engine.journal.append({"kind": "probe"})
