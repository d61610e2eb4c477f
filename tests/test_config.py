"""Flat key-value configuration: parsing, file loading, precedence,
manifest views, and conversion into typed model objects."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from cnvlink.config import (
    ENV_OUTPUT_ROOT,
    REQUIRED,
    SCHEMA,
    load_config_file,
    manifest_view,
    parse_value,
    resolve,
    resolve_out_dir,
    to_hmm_hyper,
    to_regression_hyper,
    to_sampler_config,
    to_scenario_spec,
)
from cnvlink.model import HmmHyper, RegressionHyper, SamplerConfig, ValidationError
from cnvlink.simulate import ScenarioSpec


class TestParseValue:
    def test_integer_keys(self):
        assert parse_value("sampler.iterations", "500") == 500
        assert parse_value("sampler.seed", "-3") == -3

    def test_integer_rejects_garbage(self):
        with pytest.raises(
            ValidationError, match="key 'sampler.iterations': expected an integer"
        ):
            parse_value("sampler.iterations", "lots")

    def test_integer_rejects_float_spelling(self):
        with pytest.raises(ValidationError, match="expected an integer"):
            parse_value("sampler.burn_in", "10.5")

    def test_float_keys(self):
        assert parse_value("fit.fdr", "0.15") == 0.15
        with pytest.raises(ValidationError, match="key 'fit.fdr': expected a number"):
            parse_value("fit.fdr", "maybe")

    @pytest.mark.parametrize("raw", ["true", "True", "1", "yes", "ON"])
    def test_boolean_true_spellings(self, raw):
        assert parse_value("fit.standardize", raw) is True

    @pytest.mark.parametrize("raw", ["false", "FALSE", "0", "no", "off"])
    def test_boolean_false_spellings(self, raw):
        assert parse_value("fit.standardize", raw) is False

    def test_boolean_rejects_garbage(self):
        with pytest.raises(ValidationError, match="expected a boolean"):
            parse_value("sampler.update_assoc", "perhaps")

    def test_concentration_accepts_inf(self):
        assert parse_value("prior.alpha", "inf") == math.inf
        assert parse_value("prior.alpha", "Infinity") == math.inf
        assert parse_value("prior.alpha", "30") == 30.0

    def test_auto_spelling_maps_to_none(self):
        assert parse_value("prior.resid_scale", "auto") is None
        assert parse_value("prior.resid_scale", "0.05") == 0.05
        assert parse_value("data.fragment_length", "AUTO") is None
        assert parse_value("scenario.fragment_length", "12.5") == 12.5

    def test_four_vectors(self):
        assert parse_value("hmm.eta_loc", "-1, 0, 0.58, 1") == (-1.0, 0.0, 0.58, 1.0)
        assert parse_value("hmm.eta_high", "-0.1,0.1,0.73,inf") == (
            -0.1, 0.1, 0.73, math.inf,
        )

    def test_four_vector_rejects_wrong_arity(self):
        with pytest.raises(
            ValidationError, match="expected four comma-separated numbers"
        ):
            parse_value("hmm.eta_loc", "1,2,3")

    def test_noise_sd_scalar_or_list(self):
        assert parse_value("scenario.noise_sd", "0.1") == 0.1
        assert parse_value("scenario.noise_sd", "0.1, 0.2,0.3") == (0.1, 0.2, 0.3)
        assert parse_value("scenario.noise_sd", "0.1,0.2,") == (0.1, 0.2)

    def test_string_keys_pass_through(self):
        assert parse_value("data.dir", "/tmp/spaces in name") == "/tmp/spaces in name"

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(
            ValidationError, match="unknown configuration key 'sampler.warp'"
        ):
            parse_value("sampler.warp", "9")


class TestLoadConfigFile:
    def test_parses_comments_blanks_and_inline_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# full-line comment\n"
            "\n"
            "sampler.seed = 4  # inline comment\n"
            "fit.fdr=0.1\n"
            "prior.alpha = inf\n"
            "hmm.sd_cap = 0.5, 0.5, 0.5, 2\n",
            encoding="utf-8",
        )
        values = load_config_file(str(path))
        assert values == {
            "sampler.seed": 4,
            "fit.fdr": 0.1,
            "prior.alpha": math.inf,
            "hmm.sd_cap": (0.5, 0.5, 0.5, 2.0),
        }

    def test_rejects_lines_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sampler.seed = 1\njust words\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"run\.cfg:2: expected 'key = value'"):
            load_config_file(str(path))

    def test_rejects_duplicate_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fit.fdr = 0.1\nfit.fdr = 0.2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate key 'fit.fdr'"):
            load_config_file(str(path))

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fit.turbo = on\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown configuration key 'fit.turbo'"):
            load_config_file(str(path))

    def test_missing_file_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read config file"):
            load_config_file(str(tmp_path / "absent.cfg"))


class TestResolve:
    def test_defaults_cover_the_whole_schema(self):
        resolved, provenance = resolve()
        assert set(resolved) == set(SCHEMA)
        assert all(source == "default" for source in provenance.values())
        assert resolved["sampler.iterations"] == 500_000
        assert resolved["sampler.burn_in"] == 350_000
        assert resolved["fit.fdr"] == 0.05
        assert resolved["prior.alpha"] == 30.0
        assert resolved["prior.incl_a"] == 0.001
        assert resolved["prior.incl_b"] == 0.999
        assert resolved["hmm.eta_high"] == (-0.1, 0.1, 0.73, math.inf)
        assert resolved["data.dir"] is REQUIRED
        assert resolved["scenario.weak_effect_count"] == 6

    def test_file_beats_default_and_flag_beats_file(self):
        resolved, provenance = resolve(
            {"fit.fdr": 0.1, "sampler.seed": 7},
            {"fit.fdr": 0.2},
        )
        assert resolved["fit.fdr"] == 0.2
        assert provenance["fit.fdr"] == "flag"
        assert resolved["sampler.seed"] == 7
        assert provenance["sampler.seed"] == "file"
        assert provenance["sampler.thin"] == "default"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown configuration key"):
            resolve({"nope.nope": 1}, None)
        with pytest.raises(ValidationError, match="unknown configuration key"):
            resolve(None, {"nope.nope": 1})


class TestManifestView:
    def test_json_safe_and_spells_out_infinities(self):
        resolved, _ = resolve(None, {"prior.alpha": math.inf})
        view = manifest_view(resolved)
        assert view["data.dir"] is None
        assert view["prior.resid_scale"] is None
        assert view["prior.alpha"] == "inf"
        assert view["hmm.eta_low"] == ["-inf", -0.1, 0.1, "-inf"]
        assert view["hmm.eta_high"] == [-0.1, 0.1, 0.73, "inf"]
        assert view["sampler.iterations"] == 500_000
        json.dumps(view)

    def test_finite_values_pass_through(self):
        resolved, _ = resolve(None, {"prior.alpha": 30.0})
        assert manifest_view(resolved)["prior.alpha"] == 30.0


class TestTypedConversions:
    def test_sampler_config_fields(self):
        resolved, _ = resolve(
            None, {"sampler.iterations": 100, "sampler.burn_in": 10, "sampler.thin": 3}
        )
        cfg = to_sampler_config(resolved)
        assert cfg.iterations == 100
        assert cfg.burn_in == 10
        assert cfg.thin == 3
        assert cfg.seed == 0
        assert cfg.gene_block_p == 0.4
        assert cfg.row_block_p == 0.6
        assert cfg.neutral_mask_frac == 0.9
        assert cfg.flip_prob == 0.5
        assert cfg.update_assoc and cfg.update_states
        assert not cfg.debug_checks

    def test_regression_hyper_fields(self):
        resolved, _ = resolve(None, {"prior.alpha": math.inf})
        hyper = to_regression_hyper(resolved)
        assert hyper.slab_prec == 10.0
        assert hyper.intercept_prec == 1e-6
        assert hyper.resid_df == 3.0
        assert hyper.resid_scale is None
        assert hyper.incl_a == 0.001
        assert hyper.incl_b == 0.999
        assert hyper.alpha == math.inf

    def test_hmm_hyper_fields(self):
        resolved, _ = resolve()
        hmm = to_hmm_hyper(resolved)
        assert np.array_equal(hmm.eta_loc, [-1.0, 0.0, 0.58, 1.0])
        assert np.array_equal(hmm.eta_scale, [1.0, 1.0, 1.0, 2.0])
        assert np.array_equal(hmm.eta_low, [-math.inf, -0.1, 0.1, -math.inf])
        assert np.array_equal(hmm.eta_high, [-0.1, 0.1, 0.73, math.inf])
        assert np.array_equal(hmm.prec_shape, [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(hmm.prec_rate, [1.0, 1.0, 1.0, 0.01])
        assert np.array_equal(hmm.sd_cap, [0.41, 0.41, 0.41, 1.0])
        assert np.array_equal(hmm.trans_conc, [1.0, 1.0, 1.0, 1.0])
        assert hmm.amp_floor_tracks_gain is True
        # the command line and the library default fit the same prior
        default = HmmHyper()
        for name in ("eta_loc", "eta_scale", "eta_low", "eta_high",
                     "prec_shape", "prec_rate", "sd_cap", "trans_conc"):
            assert np.array_equal(getattr(hmm, name), getattr(default, name)), name
        assert hmm.amp_floor_tracks_gain == default.amp_floor_tracks_gain

    def test_scenario_spec_fields(self):
        resolved, _ = resolve(None, {"scenario.n_samples": 30})
        spec = to_scenario_spec(resolved)
        assert spec.n_samples == 30
        assert spec.n_genes == 100
        assert spec.n_probes == 1000
        assert spec.weak_effect_count == 6
        assert spec.clustered is False

    def test_clustered_scenarios_drop_weak_effects(self):
        resolved, _ = resolve(None, {"scenario.clustered": True})
        spec = to_scenario_spec(resolved)
        assert spec.clustered is True
        assert spec.weak_effect_count == 0


#: Each config group and the dataclass its keys build.
_BUILDERS = {
    "sampler": (SamplerConfig, to_sampler_config),
    "prior": (RegressionHyper, to_regression_hyper),
    "hmm": (HmmHyper, to_hmm_hyper),
    "scenario": (ScenarioSpec, to_scenario_spec),
}
#: The one field that no key sets, so it keeps its default.
_UNKEYED = {"scenario.trans_matrix"}


def _changed(default):
    """A valid value other than ``default``, of the same kind."""
    if default is None:  # the 'auto' keys
        return 0.5
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 1.1
    return tuple(v * 1.1 for v in default)


class TestFieldWalk:
    @pytest.mark.parametrize("group", sorted(_BUILDERS))
    def test_keys_and_fields_correspond(self, group):
        cls, _ = _BUILDERS[group]
        keys = {key for key in SCHEMA if key.startswith(group + ".")}
        fields = {f"{group}.{field.name}" for field in dataclasses.fields(cls)}
        assert keys - fields == set(), "keys that name no field"
        assert fields - keys == _UNKEYED & fields, "fields with no key"

    @pytest.mark.parametrize("group", sorted(_BUILDERS))
    def test_every_key_reaches_the_built_object(self, group):
        _, build = _BUILDERS[group]
        for key in (key for key in SCHEMA if key.startswith(group + ".")):
            value = _changed(SCHEMA[key].default)
            resolved, _ = resolve(None, {key: value})
            built = getattr(build(resolved), key.split(".", 1)[1])
            assert np.array_equal(np.asarray(built), np.asarray(value)), key


class TestResolveOutDir:
    def test_explicit_directory_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_ROOT, "/somewhere/else")
        assert resolve_out_dir("given", "cnvlink-fit") == "given"

    def test_environment_root_prefixes_the_default(self, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_ROOT, "/data/runs")
        assert resolve_out_dir(None, "cnvlink-fit") == os.path.join(
            "/data/runs", "cnvlink-fit"
        )

    def test_bare_default_without_environment(self, monkeypatch):
        monkeypatch.delenv(ENV_OUTPUT_ROOT, raising=False)
        assert resolve_out_dir(None, "cnvlink-sim") == "cnvlink-sim"
