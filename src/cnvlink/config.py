"""Flat key-value run configuration.

Config files hold one ``dotted.key = value`` pair per line, ``#`` comments,
and nothing else. Every key must appear in the schema below; unknown or
duplicate keys are rejected by name. Values are typed per key, with two
special spellings: ``inf`` for the selection-prior concentration and ``auto``
for data-derived scale parameters. Command-line flags mirror the keys and
take precedence over the file, which takes precedence over defaults; the
resolved values and where each came from are recorded in the run manifest.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from .model import (
    HmmHyper,
    RegressionHyper,
    SamplerConfig,
    ValidationError,
)
from .simulate import ScenarioSpec

REQUIRED = object()

ENV_OUTPUT_ROOT = "CNVLINK_OUTPUT_ROOT"


def _parse_int(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValidationError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"expected a number, got {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {raw!r}")


def _parse_float_or_inf(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    return _parse_float(raw)


def _parse_float_or_auto(raw: str):
    if raw.strip().lower() == "auto":
        return None
    return _parse_float(raw)


def _parse_vec4(raw: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ValidationError(f"expected four comma-separated numbers, got {raw!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_float_or_list(raw: str):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) == 1:
        return _parse_float(parts[0])
    return tuple(_parse_float(p) for p in parts)


def _parse_str(raw: str) -> str:
    return raw


@dataclass(frozen=True)
class SchemaEntry:
    parse: Callable[[str], Any]
    default: Any
    help: str


SCHEMA: dict[str, SchemaEntry] = {
    # input/output plumbing
    "data.dir": SchemaEntry(_parse_str, REQUIRED, "directory holding Y.tsv, X.tsv, pos.tsv, manifest.json"),
    "data.fragment_length": SchemaEntry(_parse_float_or_auto, None, "override the dataset's fragment length"),
    "out.dir": SchemaEntry(_parse_str, None, "output directory (default under $" + ENV_OUTPUT_ROOT + ")"),
    # fit behavior
    "fit.fdr": SchemaEntry(_parse_float, 0.05, "Bayesian FDR target for selection"),
    "fit.checkpoint_every": SchemaEntry(_parse_int, 0, "sweeps between checkpoints (0 disables)"),
    "fit.standardize": SchemaEntry(_parse_bool, True, "standardize expression columns before fitting"),
    # sampler
    "sampler.iterations": SchemaEntry(_parse_int, 500_000, "total MCMC sweeps"),
    "sampler.burn_in": SchemaEntry(_parse_int, 350_000, "sweeps discarded before retention"),
    "sampler.thin": SchemaEntry(_parse_int, 1, "keep every k-th retained sweep"),
    "sampler.seed": SchemaEntry(_parse_int, 0, "PCG64 seed"),
    "sampler.gene_block_p": SchemaEntry(_parse_float, 0.4, "geometric rate for genes updated per sweep"),
    "sampler.row_block_p": SchemaEntry(_parse_float, 0.6, "geometric rate for rows updated per column sweep"),
    "sampler.neutral_mask_frac": SchemaEntry(_parse_float, 0.9, "support constraint: no gene selects a column neutral in more than this fraction of samples"),
    "sampler.flip_prob": SchemaEntry(_parse_float, 0.5, "probability of add/delete versus swap"),
    "sampler.update_assoc": SchemaEntry(_parse_bool, True, "enable the inclusion move"),
    "sampler.update_states": SchemaEntry(_parse_bool, True, "enable the state moves: column Metropolis, then an FFBS row block"),
    "sampler.update_means": SchemaEntry(_parse_bool, True, "enable the emission-mean move"),
    "sampler.update_sds": SchemaEntry(_parse_bool, True, "enable the emission-sd move"),
    "sampler.update_trans": SchemaEntry(_parse_bool, True, "enable the transition-matrix move"),
    "sampler.debug_checks": SchemaEntry(_parse_bool, False, "verify incremental caches every sweep"),
    # regression / selection prior
    "prior.slab_prec": SchemaEntry(_parse_float, 10.0, "prior precision scale of included effects"),
    "prior.intercept_prec": SchemaEntry(_parse_float, 1e-6, "prior precision scale of the intercept"),
    "prior.resid_df": SchemaEntry(_parse_float, 3.0, "residual-variance prior degrees of freedom"),
    "prior.resid_scale": SchemaEntry(_parse_float_or_auto, None, "residual-variance prior scale, or auto"),
    "prior.incl_a": SchemaEntry(_parse_float, 0.001, "fresh-draw inclusion weight"),
    "prior.incl_b": SchemaEntry(_parse_float, 0.999, "fresh-draw exclusion weight"),
    "prior.alpha": SchemaEntry(_parse_float_or_inf, 30.0, "selection-prior concentration; inf = independent sites"),
    # HMM hyperparameters
    "hmm.eta_loc": SchemaEntry(_parse_vec4, (-1.0, 0.0, 0.58, 1.0), "emission-mean prior centers"),
    "hmm.eta_scale": SchemaEntry(_parse_vec4, (1.0, 1.0, 1.0, 2.0), "emission-mean prior scales"),
    "hmm.eta_low": SchemaEntry(_parse_vec4, (-math.inf, -0.1, 0.1, -math.inf), "emission-mean lower bounds"),
    "hmm.eta_high": SchemaEntry(_parse_vec4, (-0.1, 0.1, 0.73, math.inf), "emission-mean upper bounds"),
    "hmm.prec_shape": SchemaEntry(_parse_vec4, (1.0, 1.0, 1.0, 1.0), "emission-precision prior shapes"),
    "hmm.prec_rate": SchemaEntry(_parse_vec4, (1.0, 1.0, 1.0, 0.01), "emission-precision prior rates"),
    "hmm.sd_cap": SchemaEntry(_parse_vec4, (0.41, 0.41, 0.41, 1.0), "emission-sd upper caps"),
    "hmm.trans_conc": SchemaEntry(_parse_vec4, (1.0, 1.0, 1.0, 1.0), "transition-row Dirichlet concentration"),
    "hmm.amp_floor_tracks_gain": SchemaEntry(_parse_bool, True, "restrict the support to amp mean > gain mean + gain sd"),
    # simulation scenarios
    "scenario.n_samples": SchemaEntry(_parse_int, 100, "samples (rows)"),
    "scenario.n_genes": SchemaEntry(_parse_int, 100, "genes (expression columns)"),
    "scenario.n_probes": SchemaEntry(_parse_int, 1000, "copy-number probes"),
    "scenario.n_varied": SchemaEntry(_parse_int, 250, "columns carrying non-neutral structure"),
    "scenario.n_assoc": SchemaEntry(_parse_int, 20, "planted associations"),
    "scenario.noise_sd": SchemaEntry(_parse_float_or_list, 0.1, "expression noise sd (scalar or per-gene list)"),
    "scenario.effect_mean": SchemaEntry(_parse_float, 2.0, "effect magnitude mean"),
    "scenario.effect_sd": SchemaEntry(_parse_float, 0.3, "effect magnitude sd"),
    "scenario.weak_effect_count": SchemaEntry(_parse_int, 6, "effects drawn from the low-magnitude law"),
    "scenario.weak_effect_mean": SchemaEntry(_parse_float, 0.5, "low-magnitude effect mean"),
    "scenario.clustered": SchemaEntry(_parse_bool, False, "place effects as two adjacent-column clusters"),
    "scenario.state_means": SchemaEntry(_parse_vec4, (-0.65, 0.0, 0.65, 1.5), "emission means used for generation"),
    "scenario.state_sds": SchemaEntry(_parse_vec4, (0.1, 0.1, 0.1, 0.2), "emission sds used for generation"),
    "scenario.intercept_sd": SchemaEntry(_parse_float, 0.1, "per-gene intercept sd"),
    "scenario.probe_spacing": SchemaEntry(_parse_float, 1.0, "distance between adjacent probes"),
    "scenario.fragment_length": SchemaEntry(_parse_float_or_auto, None, "decay length (auto = span + spacing)"),
    "scenario.seed": SchemaEntry(_parse_int, 0, "generator seed"),
}


def parse_value(key: str, raw: str):
    entry = SCHEMA.get(key)
    if entry is None:
        raise ValidationError(f"unknown configuration key '{key}'")
    try:
        return entry.parse(raw)
    except ValidationError as err:
        raise ValidationError(f"key '{key}': {err}") from None


def load_config_file(path: str) -> dict[str, Any]:
    """Parse a config file into typed values, rejecting unknown or repeated
    keys by name."""
    values: dict[str, Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ValidationError(f"cannot read config file {path}: {err}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in values:
            raise ValidationError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = parse_value(key, raw)
    return values


def resolve(
    file_values: dict[str, Any] | None = None,
    flag_values: dict[str, Any] | None = None,
):
    """Merge defaults, file values, and flag values (ascending precedence).

    Returns ``(resolved, provenance)`` where provenance maps each key to
    'default', 'file', or 'flag'.
    """
    resolved: dict[str, Any] = {}
    provenance: dict[str, str] = {}
    for key, entry in SCHEMA.items():
        resolved[key] = entry.default
        provenance[key] = "default"
    for source, values in (("file", file_values), ("flag", flag_values)):
        if not values:
            continue
        for key, value in values.items():
            if key not in SCHEMA:
                raise ValidationError(f"unknown configuration key '{key}'")
            resolved[key] = value
            provenance[key] = source
    return resolved, provenance


def manifest_view(resolved: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe copy of the resolved config (inf spelled out, REQUIRED and
    None left as null)."""
    out: dict[str, Any] = {}
    for key, value in resolved.items():
        if value is REQUIRED or value is None:
            out[key] = None
        elif isinstance(value, float) and math.isinf(value):
            out[key] = "inf" if value > 0 else "-inf"
        elif isinstance(value, tuple):
            out[key] = ["inf" if isinstance(v, float) and v == math.inf
                        else "-inf" if isinstance(v, float) and v == -math.inf
                        else v for v in value]
        else:
            out[key] = value
    return out


def _from_keys(cls, group: str, resolved: dict[str, Any], **fixed):
    """Build the dataclass ``cls`` from the keys ``<group>.<field>``; a field
    with no key keeps its default, and ``fixed`` overrides fields."""
    values = {
        f.name: resolved[f"{group}.{f.name}"]
        for f in dataclasses.fields(cls)
        if f"{group}.{f.name}" in SCHEMA
    }
    return cls(**{**values, **fixed})


def to_sampler_config(resolved: dict[str, Any]) -> SamplerConfig:
    return _from_keys(SamplerConfig, "sampler", resolved)


def to_regression_hyper(resolved: dict[str, Any]) -> RegressionHyper:
    return _from_keys(RegressionHyper, "prior", resolved)


def to_hmm_hyper(resolved: dict[str, Any]) -> HmmHyper:
    return _from_keys(HmmHyper, "hmm", resolved)


def to_scenario_spec(resolved: dict[str, Any]) -> ScenarioSpec:
    """Clustered scenarios draw every effect from one law, so they plant no
    weak effects."""
    fixed = {"weak_effect_count": 0} if resolved["scenario.clustered"] else {}
    return _from_keys(ScenarioSpec, "scenario", resolved, **fixed)


def resolve_out_dir(given: str | None, default_name: str) -> str:
    if given:
        return given
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root:
        return os.path.join(root, default_name)
    return default_name
