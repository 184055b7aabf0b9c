"""Integration: the resilient serving tier end to end, through the CLI.

The acceptance story of the resilience layer: a fault-injected serving
run killed by chaos *inside a wave* resumes with exit 0, re-purchases
**zero** answers (every journal value record is unique across the
crashed and resumed runs combined), and completes every admitted
query — answered or degraded, never silently dropped.  Admission-time
validation of money and fault knobs is covered alongside, since it
shares the same CLI surface.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_CONFIGURATION_ERROR, EXIT_CRASH, main
from repro.obs.manifest import load_manifest

pytestmark = [pytest.mark.serve, pytest.mark.faults, pytest.mark.load]

#: Tiny-but-real serve workload: three overlapping queries, 18 fresh
#: answers in one wave (planning replays recorded answers and pays no
#: crowd interactions, so ``--chaos-after N`` with ``N < 18`` lands
#: inside the wave's commit loop).
QUERIES = {
    "queries": [
        {"id": "qa", "targets": ["protein"], "objects": {"range": [0, 10]}},
        {"id": "qb", "targets": ["protein"], "objects": {"range": [5, 15]}},
        {"id": "qc", "targets": ["protein"], "objects": {"range": [8, 18]}},
    ]
}

BASE = [
    "serve",
    "--domain",
    "recipes",
    "--n-objects",
    "40",
    "--n1",
    "16",
    "--b-prc",
    "200",
    "--fault-profile",
    "0.2:0.1",
]


@pytest.fixture
def queries_path(tmp_path) -> Path:
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(QUERIES))
    return path


def run_cli(argv) -> int:
    return main([str(token) for token in argv])


def journal_value_tuples(checkpoint_dir: Path) -> list[tuple]:
    """Every journaled value purchase as ``(object, attribute, index)``."""
    path = checkpoint_dir / "serve.journal.jsonl"
    tuples = []
    for line in path.read_bytes().splitlines():
        record = json.loads(line)
        if record.get("kind") == "value":
            tuples.append(
                (record["object"], record["attribute"], record["index"])
            )
    return tuples


class TestChaosMidWaveResume:
    def test_crash_resume_repurchases_nothing(
        self, tmp_path, queries_path, capsys
    ):
        reference_out = tmp_path / "reference.json"
        assert (
            run_cli(
                BASE + ["--queries", queries_path, "--out", reference_out]
            )
            == 0
        )
        reference = json.loads(reference_out.read_text())
        capsys.readouterr()

        checkpoint_dir = tmp_path / "ckpt"
        code = run_cli(
            BASE
            + [
                "--queries",
                queries_path,
                "--checkpoint-dir",
                checkpoint_dir,
                "--chaos-after",
                7,
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CRASH
        assert "crashed: simulated crash" in captured.err
        assert "resume with:" in captured.err
        assert "--resume" in captured.err
        assert "--chaos-after" not in captured.err
        # The kill landed mid-wave: some but not all answers journaled.
        crashed_tuples = journal_value_tuples(checkpoint_dir)
        assert 0 < len(crashed_tuples) < reference["fresh_answers"]

        resumed_out = tmp_path / "resumed.json"
        code = run_cli(
            BASE
            + [
                "--queries",
                queries_path,
                "--checkpoint-dir",
                checkpoint_dir,
                "--resume",
                "--out",
                resumed_out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (
            f"resumed serving run: {len(crashed_tuples)} cached answers restored"
            in captured.out
        )
        resumed = json.loads(resumed_out.read_text())

        # Zero re-purchase: across the crashed and resumed runs the
        # journal holds each (object, attribute, index) exactly once,
        # and the union equals the uncrashed run's purchases.
        tuples = journal_value_tuples(checkpoint_dir)
        assert len(tuples) == len(set(tuples))
        assert len(tuples) == reference["fresh_answers"]

        # No admitted query is lost, and the answers are byte-identical
        # to the uncrashed run's.
        by_id = {result["query_id"]: result for result in resumed["results"]}
        for expected in reference["results"]:
            result = by_id[expected["query_id"]]
            assert result["status"] in ("completed", "degraded")
            assert result["status"] == expected["status"]
            assert np.array_equal(
                np.array(result["estimates"]["protein"]),
                np.array(expected["estimates"]["protein"]),
            )
            # Journal-tail answers legitimately shift from "fresh" to
            # "saved" on resume; the per-query answer volume does not.
            assert (
                result["fresh_answers"] + result["saved_answers"]
                == expected["fresh_answers"] + expected["saved_answers"]
            )

        # Money: the crashed run paid for its journaled answers; the
        # resumed run paid only for the rest.  Together they equal the
        # uncrashed spend.
        price = reference["spent_cents"] / reference["fresh_answers"]
        assert resumed["spent_cents"] + len(crashed_tuples) * price == (
            pytest.approx(reference["spent_cents"])
        )


    def test_resume_over_damaged_journal_is_a_durability_error(
        self, tmp_path, queries_path, capsys
    ):
        checkpoint_dir = tmp_path / "ckpt"
        argv = BASE + [
            "--queries",
            queries_path,
            "--checkpoint-dir",
            checkpoint_dir,
        ]
        assert run_cli(argv + ["--chaos-after", 7]) == EXIT_CRASH
        journal = checkpoint_dir / "serve.journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) > 2
        # Damage one record in the middle: its checksum no longer holds.
        lines[1] = lines[1].replace(b'"index":', b'"indey":')
        journal.write_bytes(b"".join(lines))
        capsys.readouterr()

        code = run_cli(argv + ["--resume"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIGURATION_ERROR
        assert "durability error:" in err
        assert "corrupt journal record" in err
        assert "resume with:" not in err

class TestAdmissionValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--fault-profile", "bogus"],
            ["--fault-profile", "1.5"],
            ["--fault-profile", "0.2:-1"],
            ["--b-obj", "nan"],
            ["--b-obj", "inf"],
            ["--b-prc", "-100"],
        ],
    )
    def test_bad_knobs_rejected_at_admission(
        self, queries_path, capsys, flags
    ):
        argv = [
            "serve",
            "--domain",
            "recipes",
            "--queries",
            queries_path,
            *flags,
        ]
        assert run_cli(argv) == EXIT_CONFIGURATION_ERROR
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_id", [-1, 40])
    def test_unknown_object_id_is_a_configuration_error(
        self, tmp_path, capsys, bad_id
    ):
        # BASE serves a 40-row table: ids -1 and 40 name no object.
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                {
                    "queries": [
                        QUERIES["queries"][0],
                        {"id": "qbad", "targets": ["protein"], "objects": [38, bad_id]},
                    ]
                }
            )
        )
        argv = BASE + ["--queries", path, "--checkpoint-dir", tmp_path / "ckpt"]
        assert run_cli(argv) == EXIT_CONFIGURATION_ERROR
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "'qbad'" in err
        assert "resume with" not in err

    def test_resume_refuses_per_partition_journals(
        self, tmp_path, queries_path, capsys
    ):
        # An older release journaled answers per key-hash partition;
        # resuming over those files without replaying them would buy
        # the journaled answers again.
        checkpoint_dir = tmp_path / "ckpt"
        checkpoint_dir.mkdir()
        (checkpoint_dir / "serve.shard00.journal.jsonl").write_text("")
        argv = BASE + [
            "--queries",
            queries_path,
            "--checkpoint-dir",
            checkpoint_dir,
            "--resume",
        ]
        assert run_cli(argv) == EXIT_CONFIGURATION_ERROR
        assert "serve.shard00.journal.jsonl" in capsys.readouterr().err
        assert not (checkpoint_dir / "serve.journal.jsonl").exists()

    def test_admission_front_door_end_to_end(self, tmp_path, queries_path):
        manifest_path = tmp_path / "manifest.json"
        argv = BASE + [
            "--queries",
            queries_path,
            "--admit-reject-depth",
            "64",
            "--manifest",
            manifest_path,
        ]
        assert run_cli(argv) == 0
        serve = load_manifest(manifest_path)["serve"]
        assert serve["admission"]["admitted"] == len(QUERIES["queries"])
        assert "shards" not in serve
