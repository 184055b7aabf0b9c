"""Crash/resume equivalence: the chaos matrix.

The contract under test is the tentpole guarantee of the durability
subsystem: for every kill point, resuming an interrupted DisQ run
produces a plan, model and ledger **bit-identical** to a run that never
crashed, with zero re-purchased answers.
"""

import json

import pytest

from repro.core.disq import DisQParams
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_synthetic_domain
from repro.durability import (
    CrashInjector,
    SimulatedCrash,
    durability_summary,
    run_disq,
)
from repro.errors import CheckpointError
from repro.experiments.runner import make_query

B_OBJ = 4.0
B_PRC = 400.0


def fresh():
    """A deterministic small world: same seeds -> same crowd answers."""
    domain = make_synthetic_domain(n_objects=60, seed=3)
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    query = make_query(domain, (domain.attributes()[0],))
    return domain, platform, query


def params():
    return DisQParams(n1=12)


def run_to_completion(checkpoint_dir=None, resume=False, chaos=None):
    domain, platform, query = fresh()
    return run_disq(
        platform, query, B_OBJ, B_PRC, params(),
        checkpoint_dir=checkpoint_dir, resume=resume, chaos=chaos,
    )


def state_of(run):
    """Everything that must be bit-identical between two runs."""
    planner = run.planner
    plan = run.plan
    return {
        "formulas": {
            target: repr(formula)
            for target, formula in plan.formulas.items()
        },
        "budget_counts": dict(plan.budget.counts),
        "preprocessing_cost": plan.preprocessing_cost,
        "dismantle_rounds": plan.dismantle_rounds,
        "attributes": tuple(plan.attributes),
        "ledger": planner.platform.ledger.snapshot(),
        "recorder": planner.platform.recorder.to_dict(),
    }


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference run: no checkpointing, no crashes."""
    return state_of(run_to_completion())


KILL_INTERACTIONS = (5, 30, 200)
KILL_PHASES = ("examples", "statistics", "dismantle", "allocate")


class TestKillMatrix:
    @pytest.mark.parametrize("kill_at", KILL_INTERACTIONS)
    def test_resume_after_interaction_kill_is_bit_identical(
        self, tmp_path, uninterrupted, kill_at
    ):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=kill_at),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert state_of(resumed) == uninterrupted

    @pytest.mark.parametrize("kill_phase", KILL_PHASES)
    def test_resume_after_phase_boundary_kill_is_bit_identical(
        self, tmp_path, uninterrupted, kill_phase
    ):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase=kill_phase),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert state_of(resumed) == uninterrupted
        assert resumed.resumed_from == kill_phase

    def test_double_crash_then_resume(self, tmp_path, uninterrupted):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=30),
            )
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path, resume=True,
                chaos=CrashInjector(at_interactions=200),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert state_of(resumed) == uninterrupted

    def test_crash_before_first_checkpoint_resumes_fresh(
        self, tmp_path, uninterrupted
    ):
        # Interaction 1 is long before the first phase boundary: there
        # is no checkpoint yet, so --resume must start from scratch and
        # still reach the identical end state.
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=1),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert resumed.resumed_from is None
        assert state_of(resumed) == uninterrupted


class TestNoRepurchase:
    def test_ledger_totals_match_uninterrupted_exactly(
        self, tmp_path, uninterrupted
    ):
        """The central economics claim: a crash costs zero extra cents.

        The resumed run's per-category question counts and spend equal
        the uninterrupted run's — every answer bought before the crash
        is replayed free from the journal-backed recorder.
        """
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=200),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        ledger = resumed.planner.platform.ledger
        assert ledger.snapshot() == uninterrupted["ledger"]
        assert ledger.total_spent == uninterrupted["preprocessing_cost"]


class TestProvenance:
    def test_resumed_run_reports_provenance(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="dismantle"),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        summary = durability_summary(resumed)
        assert summary["resumed"] is True
        assert summary["resumed_from"] == "dismantle"
        assert summary["journal_records"] > 0
        assert summary["checkpoint"].endswith("disq.checkpoint.json")

    def test_manifest_carries_durability_section(self, tmp_path):
        from repro.obs import Observability
        from repro.obs.manifest import build_manifest, load_manifest, write_manifest

        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path / "ck",
                chaos=CrashInjector(at_phase="statistics"),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path / "ck", resume=True)
        manifest = build_manifest(
            "crash-resume", Observability.collecting(),
            durability=durability_summary(resumed),
        )
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = load_manifest(path)
        assert loaded["durability"]["resumed"] is True
        assert loaded["durability"]["resumed_from"] == "statistics"

    def test_journal_replay_reconstructs_final_state(self, tmp_path):
        """The journal alone (no checkpoint) rebuilds recorder + ledger."""
        from repro.durability import replay_journal

        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=200),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        replay = replay_journal(resumed.journal_path)
        assert replay.resumes == 1
        assert (
            replay.recorder.to_dict()
            == resumed.planner.platform.recorder.to_dict()
        )
        assert replay.ledger.snapshot() == resumed.planner.platform.ledger.snapshot()


class TestGuards:
    def test_mismatched_config_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="statistics"),
            )
        domain, platform, query = fresh()
        with pytest.raises(CheckpointError):
            run_disq(
                platform, query, B_OBJ, B_PRC + 100.0, params(),
                checkpoint_dir=tmp_path, resume=True,
            )

    def test_checkpoint_with_removed_allocator_option_refused(self, tmp_path):
        # Planner checkpoints of older releases fingerprint a params repr
        # that still carries ``allocator='fast'``; resuming one must be
        # refused rather than continued under a different configuration.
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="statistics"),
            )
        checkpoint = tmp_path / "disq.checkpoint.json"
        document = json.loads(checkpoint.read_text())
        params_repr = document["config"]["params"]
        assert "allocator=" not in params_repr
        document["config"]["params"] = params_repr.replace(
            "aggregator=", "allocator='fast', aggregator="
        )
        checkpoint.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(CheckpointError, match="different"):
            run_to_completion(checkpoint_dir=tmp_path, resume=True)

    def test_torn_checkpoint_file_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="statistics"),
            )
        checkpoint = tmp_path / "disq.checkpoint.json"
        checkpoint.write_text(checkpoint.read_text()[:100])
        with pytest.raises(CheckpointError):
            run_to_completion(checkpoint_dir=tmp_path, resume=True)


class TestSweepResume:
    def test_interrupted_sweep_resumes_identically(self, tmp_path):
        from repro.experiments import ExperimentConfig, sweep_b_prc

        domain, _, query = fresh()
        config = ExperimentConfig(
            n_objects=60, n1=12, repetitions=1, eval_objects=20
        )
        algorithms = ["DisQ", "NaiveAverage"]
        values = [300.0, 400.0]
        reference = sweep_b_prc(
            algorithms, domain, query, B_OBJ, values, config
        )
        # Simulate an interrupted sweep: only the first cell completed.
        partial = sweep_b_prc(
            algorithms, domain, query, B_OBJ, values[:1], config,
            checkpoint_dir=tmp_path,
        )
        assert partial["DisQ"][0] == reference["DisQ"][0]
        resumed = sweep_b_prc(
            algorithms, domain, query, B_OBJ, values, config,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed == reference

    def test_repetition_mismatch_refused(self, tmp_path):
        from repro.experiments import ExperimentConfig, sweep_b_prc

        domain, _, query = fresh()
        config = ExperimentConfig(
            n_objects=60, n1=12, repetitions=1, eval_objects=20
        )
        sweep_b_prc(
            ["NaiveAverage"], domain, query, B_OBJ, [300.0], config,
            checkpoint_dir=tmp_path,
        )
        bigger = ExperimentConfig(
            n_objects=60, n1=12, repetitions=2, eval_objects=20
        )
        with pytest.raises(CheckpointError):
            sweep_b_prc(
                ["NaiveAverage"], domain, query, B_OBJ, [300.0], bigger,
                checkpoint_dir=tmp_path, resume=True,
            )
