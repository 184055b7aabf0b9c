"""Unit tests for run manifests and their schema validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import NULL_OBS, Observability
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    SCHEMA_VERSION,
    build_manifest,
    load_manifest,
    manifest_errors,
    plan_summary,
    resilience_from_metrics,
    spend_from_metrics,
    validate_manifest,
    write_manifest,
)


def recording_obs() -> Observability:
    obs = Observability.collecting()
    obs.metrics.inc("crowd.spend.value", 4.0)
    obs.metrics.inc("crowd.spend.example", 5.0)
    obs.metrics.inc("crowd.questions.value", 10)
    obs.metrics.inc("crowd.questions.example", 1)
    obs.metrics.inc("crowd.retries.value", 2)
    obs.metrics.inc("crowd.faults.timeout", 2)
    obs.metrics.inc("crowd.spam.rejected", 3)
    obs.metrics.inc("allocator.calls")
    obs.metrics.inc("allocator.grants", 12)
    obs.metrics.gauge("plan.attributes", 2)
    with obs.tracer.span("preprocess"):
        pass
    return obs


class TestSections:
    def test_spend_from_metrics(self):
        spend = spend_from_metrics(recording_obs().metrics)
        assert spend["total_cents"] == pytest.approx(9.0)
        assert spend["by_category"] == {"example": 5.0, "value": 4.0}
        assert spend["questions_by_category"] == {"example": 1, "value": 10}

    def test_resilience_from_metrics(self):
        resilience = resilience_from_metrics(recording_obs().metrics)
        assert resilience["retries_by_category"] == {"value": 2}
        assert resilience["timeouts"] == 2
        assert resilience["spam_rejected"] == 3
        assert resilience["abandons"] == 0
        assert resilience["degradations"] == 0

    def test_empty_metrics_sections(self):
        spend = spend_from_metrics(NULL_OBS.metrics)
        assert spend == {
            "total_cents": 0.0,
            "by_category": {},
            "questions_by_category": {},
        }


class TestBuildManifest:
    def test_disabled_obs_yields_valid_manifest(self):
        manifest = build_manifest("empty", NULL_OBS, created_at=0.0)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["phases"] == {}
        assert manifest_errors(manifest) == []

    def test_recording_obs_fills_sections(self):
        manifest = build_manifest("run", recording_obs(), created_at=1.0)
        assert manifest["spend"]["total_cents"] == pytest.approx(9.0)
        assert manifest["allocator"] == {"calls": 1, "grants": 12}
        assert "preprocess" in manifest["phases"]
        assert manifest["gauges"] == {"plan.attributes": 2}

    def test_extra_section_passthrough(self):
        manifest = build_manifest(
            "run", NULL_OBS, extra={"query_error": 0.5}, created_at=0.0
        )
        assert manifest["extra"] == {"query_error": 0.5}

    def test_plan_summary_from_real_plan(self, tiny_platform):
        from repro.core.disq import DisQParams, DisQPlanner
        from repro.core.model import Query

        plan = DisQPlanner(
            tiny_platform,
            Query.single("target"),
            4.0,
            600.0,
            DisQParams(n1=15),
        ).preprocess()
        summary = plan_summary(plan)
        assert summary["targets"] == ["target"]
        assert summary["online_questions_per_object"] >= 1
        assert summary["preprocessing_cost_cents"] > 0
        manifest = build_manifest("planned", NULL_OBS, plan=plan, created_at=0.0)
        assert manifest["plan"] == summary


class TestValidation:
    def test_missing_required_key_listed(self):
        manifest = build_manifest("x", NULL_OBS, created_at=0.0)
        del manifest["spend"]
        errors = manifest_errors(manifest)
        assert any("spend" in error for error in errors)
        with pytest.raises(ConfigurationError):
            validate_manifest(manifest)

    def test_wrong_type_listed(self):
        manifest = build_manifest("x", NULL_OBS, created_at=0.0)
        manifest["label"] = 42
        assert any("label" in error for error in manifest_errors(manifest))

    def test_bool_is_not_integer(self):
        manifest = build_manifest("x", NULL_OBS, created_at=0.0)
        manifest["allocator"]["calls"] = True
        assert manifest_errors(manifest)

    def test_nested_map_values_checked(self):
        manifest = build_manifest("x", NULL_OBS, created_at=0.0)
        manifest["spend"]["questions_by_category"] = {"value": 1.5}
        assert any("questions_by_category" in e for e in manifest_errors(manifest))

    def test_schema_itself_requires_core_sections(self):
        assert "spend" in MANIFEST_SCHEMA["required"]
        assert "resilience" in MANIFEST_SCHEMA["required"]


class TestFileRoundtrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "nested" / "run.manifest.json"
        manifest = build_manifest("roundtrip", recording_obs(), created_at=2.0)
        written = write_manifest(path, manifest)
        assert written == path
        loaded = load_manifest(path)
        assert loaded == manifest
        # The file is plain, stable JSON (sorted keys, trailing newline).
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == manifest

    def test_write_rejects_invalid(self, tmp_path):
        manifest = build_manifest("x", NULL_OBS, created_at=0.0)
        del manifest["phases"]
        with pytest.raises(ConfigurationError):
            write_manifest(tmp_path / "bad.json", manifest)

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(ConfigurationError):
            load_manifest(path)


class TestAtomicWrites:
    def _valid_manifest(self):
        return build_manifest("atomic-test", NULL_OBS)

    def test_no_temp_residue_after_write(self, tmp_path):
        import os

        path = tmp_path / "manifest.json"
        write_manifest(path, self._valid_manifest())
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_simulated_crash_mid_write_leaves_old_or_valid(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "manifest.json"
        write_manifest(path, self._valid_manifest())
        original = path.read_text()

        # Crash between writing the temp file and renaming it: the
        # published manifest must still be the old, complete one.
        def explode(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            write_manifest(path, build_manifest("second", NULL_OBS))
        assert path.read_text() == original
        assert os.listdir(tmp_path) == ["manifest.json"]
        # And what is on disk always validates.
        load_manifest(path)

    def test_fresh_write_crash_leaves_nothing(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "manifest.json"

        def explode(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            write_manifest(path, self._valid_manifest())
        # Either absent or valid — never truncated garbage.
        assert not path.exists()
        assert os.listdir(tmp_path) == []


class TestDurabilitySection:
    def test_round_trips_through_build_and_validate(self):
        manifest = build_manifest(
            "durable",
            NULL_OBS,
            durability={
                "resumed": True,
                "journal_records": 630,
                "resumed_from": "allocate",
                "checkpoint": "/tmp/ck/disq.checkpoint.json",
            },
        )
        assert manifest["durability"]["resumed"] is True
        validate_manifest(manifest)

    def test_minimal_section_is_valid(self):
        manifest = build_manifest(
            "durable", NULL_OBS,
            durability={"resumed": False, "journal_records": 0},
        )
        validate_manifest(manifest)

    def test_missing_required_keys_rejected(self):
        manifest = build_manifest("durable", NULL_OBS)
        manifest["durability"] = {"resumed": True}
        errors = manifest_errors(manifest)
        assert any("journal_records" in e for e in errors)


class TestServeSection:
    def test_older_manifest_with_shards_subsection_still_loads(self, tmp_path):
        # v3-v5 manifests may carry the retired ``serve.shards``
        # subsection; the serve section admits extra keys.
        obs = Observability.collecting()
        obs.metrics.inc("serve.queries", 2)
        obs.metrics.inc("serve.completed", 2)
        manifest = build_manifest("serve", obs)
        assert "shards" not in manifest["serve"]
        manifest["serve"]["shards"] = {
            "count": 2,
            "processes": False,
            "keys_by_shard": [3, 4],
            "answers_by_shard": [12, 16],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert load_manifest(path)["serve"]["shards"]["count"] == 2
