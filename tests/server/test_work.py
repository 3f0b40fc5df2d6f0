"""Tests for job-spec validation and execution."""

import pytest

from repro.errors import CancelledError, ValidationError
from repro.runtime import CancellationToken
from repro.server import execute_job, parse_spec


class TestParseSpec:
    def test_sweep_defaults(self):
        spec = parse_spec("sweep", {})
        assert spec == {
            "figure": "11",
            "arrival_rate": 100.0,
            "servers_max": 10,
            "workers": 1,
            "profile": False,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec("frobnicate", {})
        assert "frobnicate" in str(excinfo.value)

    def test_unknown_key_rejected_with_allowed_list(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec("sweep", {"figur": "11"})
        message = str(excinfo.value)
        assert "figur" in message and "figure" in message

    def test_non_object_spec_rejected(self):
        with pytest.raises(ValidationError):
            parse_spec("sweep", [1, 2])

    def test_bad_figure_rejected(self):
        with pytest.raises(ValidationError):
            parse_spec("sweep", {"figure": "13"})

    def test_campaign_defaults_and_scenario_check(self):
        spec = parse_spec("campaign", {"scenario": "lan-host"})
        assert spec["scenario"] == "lan-host"
        assert spec["horizon"] == 100.0
        assert spec["replications"] == 4
        with pytest.raises(ValidationError):
            parse_spec("campaign", {"scenario": "meteor-strike"})

    def test_campaign_seed_must_be_int(self):
        with pytest.raises(ValidationError):
            parse_spec("campaign", {"seed": True})

    def test_campaign_seed_must_be_non_negative(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec("campaign", {"seed": -3})
        assert str(excinfo.value).startswith("seed")

    @pytest.mark.parametrize("kind,key,value", [
        ("sweep", "arrival_rate", True),
        ("campaign", "horizon", "5"),
        ("cloud", "zone_availability", "0.99"),
    ])
    def test_numeric_keys_reject_booleans_and_strings(
        self, kind, key, value
    ):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec(kind, {key: value})
        message = str(excinfo.value)
        assert message.startswith(key)
        assert "\n" not in message

    def test_integral_floats_and_numeric_figures_stay_accepted(self):
        spec = parse_spec("sweep", {"servers_max": 2.0, "figure": 11})
        assert spec["servers_max"] == 2 and type(spec["servers_max"]) is int
        assert spec["figure"] == "11"
        assert parse_spec("sweep", {"figure": "12"})["figure"] == "12"

    def test_policies_accepts_the_cli_policy_keys(self):
        keys = {
            "timeout": 0.1, "hedge_delay": 0.03, "max_retries": 5,
            "persistence": 0.8, "breaker_threshold": 2,
            "breaker_reset": 10.0,
        }
        spec = parse_spec("policies", keys)
        assert {key: spec[key] for key in keys} == keys
        assert parse_spec("policies", {})["timeout"] == 0.05

    def test_policies_cross_field_rule_is_a_validation_error(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec("policies", {"hedge_delay": 0.2})
        assert "hedge_delay" in str(excinfo.value)
        assert "unknown" not in str(excinfo.value)

    def test_probe_hold_bounded(self):
        assert parse_spec("probe", {"hold": 0.5}) == {"hold": 0.5}
        with pytest.raises(ValidationError):
            parse_spec("probe", {"hold": 3600.0})
        with pytest.raises(ValidationError):
            parse_spec("probe", {"hold": -1.0})

    def test_policies_validates_positive_ints(self):
        with pytest.raises(ValidationError):
            parse_spec("policies", {"servers": 0})

    def test_cloud_defaults(self):
        spec = parse_spec("cloud", {})
        assert spec == {
            "arrival_rate": 100.0,
            "service_rate": 100.0,
            "zone_availability": 0.9995,
            "workers": 1,
            "profile": False,
        }

    def test_cloud_unknown_key_rejected_with_allowed_list(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec("cloud", {"zone_avail": 0.99})
        message = str(excinfo.value)
        assert "zone_avail" in message and "zone_availability" in message

    @pytest.mark.parametrize("kind", ["sweep", "policies", "cloud"])
    def test_profile_key_accepted_on_engine_kinds(self, kind):
        assert parse_spec(kind, {"profile": True})["profile"] is True

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_profile_key_must_be_boolean(self, value):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec("sweep", {"profile": value})
        assert "'profile' must be a boolean" in str(excinfo.value)

    def test_profile_key_rejected_on_campaign(self):
        with pytest.raises(ValidationError):
            parse_spec("campaign", {"profile": True})

    def test_cloud_validates_values(self):
        with pytest.raises(ValidationError):
            parse_spec("cloud", {"arrival_rate": 0})
        with pytest.raises(ValidationError):
            parse_spec("cloud", {"zone_availability": 1.5})
        with pytest.raises(ValidationError):
            parse_spec("cloud", {"zone_availability": -0.1})
        with pytest.raises(ValidationError):
            parse_spec("cloud", {"workers": 0})


class TestExecuteJob:
    def test_probe_returns_held_seconds(self):
        result = execute_job("probe", {"hold": 0.0})
        assert result == {"held_seconds": 0.0}

    def test_probe_cancellation_is_prompt(self):
        token = CancellationToken()
        token.cancel("test stop")
        with pytest.raises(CancelledError):
            execute_job("probe", parse_spec("probe", {"hold": 30.0}),
                        token=token)

    def test_sweep_result_document(self):
        spec = parse_spec("sweep", {"servers_max": 3})
        result = execute_job("sweep", spec)
        assert result["cells"] == 9
        assert "Figure 11" in result["text"]
        assert set(result["series"]) == {"0.01", "0.001", "0.0001"}
        assert all(len(v) == 3 for v in result["series"].values())

    def test_campaign_result_document(self):
        spec = parse_spec("campaign", {
            "scenario": "null", "user_class": "A",
            "horizon": 50.0, "replications": 2,
        })
        result = execute_job("campaign", spec)
        assert result["calibrated"] in (True, False)
        assert len(result["campaigns"]) == 1
        assert result["campaigns"][0]["user_class"] == "class A"

    def test_cloud_result_document(self):
        spec = parse_spec("cloud", {})
        result = execute_job("cloud", spec)
        assert result["cells"] == 5
        assert "best deployment:" in result["text"]
        assert result["best"]["deployment"] in result["ranking"]
        assert result["ranking"][0] == result["best"]["deployment"]
        assert 0.99 < result["best"]["mean_availability"] < 1.0
        assert sorted(result["ranking"]) == sorted(set(result["ranking"]))

    def test_unprofiled_result_has_no_profile(self):
        spec = parse_spec("sweep", {"servers_max": 2})
        assert "profile" not in execute_job("sweep", spec)

    def test_profiled_sweep_attaches_profile_document(self):
        spec = parse_spec("sweep", {"servers_max": 3, "profile": True})
        result = execute_job("sweep", spec)
        profile = result["profile"]
        assert set(profile) == {
            "attribution", "text", "collapsed", "speedscope"
        }
        (batch,) = profile["attribution"]["batches"]
        assert batch["tasks"] == 9
        assert batch["coverage"] >= 0.95
        assert "performance attribution" in profile["text"]
        # The profiled text is a side document: the job's headline text
        # stays byte-identical to the unprofiled run.
        plain = execute_job("sweep", parse_spec("sweep", {"servers_max": 3}))
        assert result["text"] == plain["text"]

    def test_profile_text_is_the_cli_attribution_txt(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import PerfRecorder
        from repro.server import work

        recorder = PerfRecorder()
        monkeypatch.setattr(work, "_job_recorder", lambda spec: recorder)
        spec = parse_spec("sweep", {"servers_max": 2, "profile": True})
        profile = execute_job("sweep", spec)["profile"]
        recorder.write_artifacts(tmp_path)
        cli_text = (tmp_path / "attribution.txt").read_text(encoding="utf-8")
        assert profile["text"] + "\n" == cli_text

    def test_profiled_policies_attaches_profile_document(self):
        spec = parse_spec("policies", {"profile": True})
        result = execute_job("policies", spec)
        assert result["profile"]["attribution"]["batches"]
