"""Integration tests for budget-split tuning and the CLI."""

import json
import math

import pytest

from repro.core.disq import DisQParams
from repro.core.tuning import candidate_splits, optimize_budget_split
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.errors import ConfigurationError
from repro.experiments.runner import make_query


class TestCandidateSplits:
    def test_infeasible_grid_points_dropped(self):
        splits = candidate_splits(1000.0, 100, b_obj_grid=(1.0, 5.0, 20.0))
        # 20c/object over 100 objects already exceeds the total.
        assert [s.b_obj_cents for s in splits] == [1.0, 5.0]
        assert splits[0].b_prc_cents == pytest.approx(900.0)

    def test_all_infeasible_rejected(self):
        with pytest.raises(ConfigurationError):
            candidate_splits(100.0, 1000, b_obj_grid=(1.0,))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            candidate_splits(0.0, 10, (1.0,))
        with pytest.raises(ConfigurationError):
            candidate_splits(100.0, 0, (1.0,))


class TestOptimizeBudgetSplit:
    def test_returns_best_of_grid(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        query = make_query(tiny_domain, ("target",))
        best, grid = optimize_budget_split(
            platform,
            tiny_domain,
            query,
            total_cents=2500.0,
            n_objects=150,
            params=DisQParams(n1=20, max_rounds=20),
            b_obj_grid=(1.0, 4.0),
            pilot_objects=20,
            repetitions=1,
        )
        assert math.isfinite(best.pilot_error)
        assert best.pilot_error == min(s.pilot_error for s in grid)
        assert len(grid) == 2


class TestCli:
    def test_plan_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "plan",
                "--domain", "recipes",
                "--target", "protein",
                "--n-objects", "150",
                "--n1", "25",
                "--b-obj", "2",
                "--b-prc", "700",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan for targets protein" in out

    def test_evaluate_command_with_compare(self, capsys):
        from repro.cli import main

        code = main(
            [
                "evaluate",
                "--domain", "pictures",
                "--target", "bmi",
                "--n-objects", "150",
                "--n1", "25",
                "--b-obj", "2",
                "--b-prc", "700",
                "--objects", "20",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DisQ weighted query error" in out
        assert "NaiveAverage query error" in out

    def test_sweep_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--domain", "pictures",
                "--target", "bmi",
                "--n-objects", "150",
                "--n1", "20",
                "--axis", "b_obj",
                "--values", "1,4",
                "--b-prc", "700",
                "--objects", "20",
                "--repetitions", "1",
                "--algorithms", "NaiveAverage",
            ]
        )
        assert code == 0
        assert "B_obj(c)" in capsys.readouterr().out

    def test_unknown_domain_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["plan", "--domain", "mars", "--target", "x"])

    def test_tune_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "tune",
                "--domain", "pictures",
                "--target", "bmi",
                "--n-objects", "150",
                "--n1", "20",
                "--total", "2000",
                "--objects", "200",
            ]
        )
        assert code == 0
        assert "best: B_obj=" in capsys.readouterr().out


class TestCliDurability:
    PLAN = [
        "plan",
        "--domain", "synthetic",
        "--target", "attr_00",
        "--n-objects", "60",
        "--n1", "12",
        "--b-obj", "4",
        "--b-prc", "400",
        "--seed", "3",
    ]

    def test_exit_codes_are_distinct_and_nonzero(self):
        from repro.cli import EXIT_CONFIGURATION_ERROR, EXIT_CRASH

        assert EXIT_CONFIGURATION_ERROR != 0
        assert EXIT_CRASH != 0
        assert EXIT_CONFIGURATION_ERROR != EXIT_CRASH

    def test_configuration_error_exit_code(self, capsys):
        from repro.cli import EXIT_CONFIGURATION_ERROR, main

        code = main(self.PLAN + ["--resume"])
        assert code == EXIT_CONFIGURATION_ERROR
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "--resume requires --checkpoint-dir" in err

    def test_crash_exit_code_and_resume_hint(self, tmp_path, capsys):
        from repro.cli import EXIT_CRASH, main

        argv = self.PLAN + [
            "--checkpoint-dir", str(tmp_path), "--chaos-after", "60",
        ]
        code = main(argv)
        assert code == EXIT_CRASH
        err = capsys.readouterr().err
        assert "crashed: simulated crash" in err
        assert "resume with: python -m repro plan" in err
        assert "--resume" in err
        # The hint must not re-inject the crash.
        assert "--chaos-after" not in err

    def test_crash_without_checkpoint_state_prints_no_hint(self, capsys):
        from repro.cli import EXIT_CRASH, main

        code = main(self.PLAN + ["--chaos-after", "60"])
        assert code == EXIT_CRASH
        assert "resume with:" not in capsys.readouterr().err

    def test_crash_then_resume_completes(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = str(tmp_path / "ck")
        manifest = str(tmp_path / "manifest.json")
        assert main(self.PLAN + [
            "--checkpoint-dir", checkpoint, "--chaos-after", "60",
        ]) != 0
        capsys.readouterr()
        code = main(self.PLAN + [
            "--checkpoint-dir", checkpoint, "--resume",
            "--manifest", manifest,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint after phase:" in out
        assert "plan for targets attr_00" in out
        payload = json.loads(open(manifest).read())
        assert payload["durability"]["resumed"] is True
        assert payload["durability"]["journal_records"] > 0

    def test_resume_with_another_budget_is_a_durability_error(
        self, tmp_path, capsys
    ):
        from repro.cli import EXIT_CONFIGURATION_ERROR, EXIT_CRASH, main

        checkpoint = str(tmp_path / "ck")
        assert main(self.PLAN + [
            "--checkpoint-dir", checkpoint, "--chaos-after", "60",
        ]) == EXIT_CRASH
        capsys.readouterr()
        argv = list(self.PLAN)
        argv[argv.index("--b-prc") + 1] = "500"
        code = main(argv + ["--checkpoint-dir", checkpoint, "--resume"])
        assert code == EXIT_CONFIGURATION_ERROR
        err = capsys.readouterr().err
        assert "durability error:" in err
        # Resuming the same command would fail the same way again.
        assert "resume with:" not in err

    def test_sweep_checkpoint_resume(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep",
            "--domain", "synthetic",
            "--target", "attr_00",
            "--n-objects", "60",
            "--n1", "12",
            "--axis", "b_prc",
            "--values", "300,400",
            "--b-obj", "4",
            "--objects", "20",
            "--repetitions", "1",
            "--algorithms", "NaiveAverage",
            "--seed", "3",
            "--checkpoint-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        # All cells replayed from the checkpoint: identical series.
        assert capsys.readouterr().out == first
