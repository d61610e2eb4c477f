"""The three benchmark workloads: their datasets, fit configuration and checks.

Each workload fixes a dataset (generated before any timing) and the
configuration keys that ``cnvlink fit`` receives as ``--set KEY=VALUE``.

The benchmark seed offsets the chain seed of ``toy`` only. Its emission and
transition parameters are pinned by near-point priors, so every chain seed
does the same work and the exact enumeration holds for each. ``acceptance``
and ``paper`` keep fixed chain seeds: the recovery bounds are verified for
those fits, and on the paper dataset about one chain seed in eleven stops at
the first sweep (see the ``FOUND:`` line in ``CHANGES.md``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

#: Generating emission values of ``cnvlink simulate`` (its defaults, passed
#: explicitly so the checks know them).
STATE_MEANS = (-0.65, 0.0, 0.65, 1.5)
STATE_SDS = (0.1, 0.1, 0.1, 0.2)

#: The 4 x 1 x 2 problem of acceptance criterion 4.
TOY_Y = np.array([[-0.8], [0.1], [0.5], [1.2]])
TOY_X = np.array([[-1.05, 0.10], [0.05, 0.75], [0.62, 0.68], [1.45, 1.50]])
TOY_POS = np.array([0.0, 1.0])
TOY_FRAGMENT_LENGTH = 2.0
#: Criterion 4's emission parameters. The toy runs all five moves, but its
#: near-point priors hold the means to about 1e-4 of these values, the sds
#: to about 1e-3 of theirs, and every transition row to about 1e-3 of
#: uniform, so the exact enumeration at the read-back values applies.
TOY_MEANS = (-1.0, 0.0, 0.7, 1.6)
TOY_SDS = (0.3, 0.3, 0.3, 0.45)
#: Gamma shape of the toy's precision priors (relative sd 1/sqrt(shape)) and
#: total Dirichlet concentration of its transition rows.
TOY_PREC_SHAPE = 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    #: configuration keys given to ``cnvlink fit`` (values as typed on the
    #: command line); ``sampler.seed`` is added per run
    config: dict
    #: the chain seed, or its base when ``seeded`` (then ``base_seed + --seed``)
    base_seed: int
    #: setup calls timed per round (more where one call is short)
    setup_calls: int
    #: ``cnvlink simulate`` keys, or None for the hand-written toy data
    simulate: dict | None = None
    #: names of the checks in :mod:`checks` run after every round
    check_names: tuple = field(default_factory=tuple)
    #: whether the benchmark seed offsets the chain seed
    seeded: bool = False
    #: passes of summarize plus diagnose per round (more where one is short)
    post_repeats: int = 1

    @property
    def iterations(self) -> int:
        return int(self.config["sampler.iterations"])

    @property
    def n_retained(self) -> int:
        thin = int(self.config.get("sampler.thin", "1"))
        return len(range(int(self.config["sampler.burn_in"]), self.iterations, thin))

    def fit_config(self, seed: int) -> dict:
        chain_seed = self.base_seed + seed if self.seeded else self.base_seed
        return {**self.config, "sampler.seed": str(chain_seed)}

    def make_dataset(self, data_dir: str) -> None:
        """Write Y.tsv, X.tsv, pos.tsv and manifest.json (and, for simulated
        workloads, the planted truth) into ``data_dir``."""
        os.makedirs(data_dir, exist_ok=True)
        if self.simulate is None:
            _write_tsv(os.path.join(data_dir, "Y.tsv"), TOY_Y, "s", "g")
            _write_tsv(os.path.join(data_dir, "X.tsv"), TOY_X, "s", "p")
            _write_tsv(
                os.path.join(data_dir, "pos.tsv"), TOY_POS.reshape(-1, 1), "p", "pos"
            )
            with open(os.path.join(data_dir, "manifest.json"), "w", encoding="utf-8") as fh:
                json.dump({"fragment_length": TOY_FRAGMENT_LENGTH}, fh)
            return
        from cnvlink.cli import main

        args = ["simulate", "--out", data_dir]
        for key, value in self.simulate.items():
            args += ["--set", f"{key}={value}"]
        if main(args) != 0:
            raise RuntimeError(f"{self.name}: cnvlink simulate failed")


def _write_tsv(path: str, matrix: np.ndarray, row_prefix: str, col_prefix: str) -> None:
    """A labeled TSV in the program's input format."""
    lines = ["\t".join(["id", *(f"{col_prefix}{j + 1}" for j in range(matrix.shape[1]))])]
    for i, row in enumerate(matrix):
        lines.append("\t".join([f"{row_prefix}{i + 1}", *(repr(float(v)) for v in row)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


_SIM_EMISSION = {
    "scenario.state_means": _vec(STATE_MEANS),
    "scenario.state_sds": _vec(STATE_SDS),
}

WORKLOADS = {
    "toy": Workload(
        name="toy",
        config={
            "prior.slab_prec": "1",
            "prior.intercept_prec": "1",
            "prior.resid_df": "4",
            "prior.resid_scale": "1",
            "prior.incl_a": "1",
            "prior.incl_b": "3",
            "prior.alpha": "2",
            "sampler.neutral_mask_frac": "1",
            "sampler.gene_block_p": "0.5",
            "sampler.row_block_p": "0.5",
            "fit.standardize": "false",
            "hmm.eta_loc": _vec(TOY_MEANS),
            "hmm.eta_scale": _vec([1e-4] * 4),
            "hmm.prec_shape": _vec([TOY_PREC_SHAPE] * 4),
            "hmm.prec_rate": _vec([TOY_PREC_SHAPE * sd * sd for sd in TOY_SDS]),
            "hmm.trans_conc": _vec([TOY_PREC_SHAPE / 4] * 4),
            "sampler.iterations": "30000",
            "sampler.burn_in": "1000",
            "sampler.thin": "1",
        },
        base_seed=4,
        setup_calls=100,
        check_names=("toy_enumeration",),
        seeded=True,
        post_repeats=10,
    ),
    "acceptance": Workload(
        name="acceptance",
        config={"sampler.iterations": "10000", "sampler.burn_in": "5000"},
        base_seed=1101,
        setup_calls=20,
        simulate={
            "scenario.n_samples": "50",
            "scenario.n_genes": "20",
            "scenario.n_probes": "120",
            "scenario.n_varied": "30",
            "scenario.n_assoc": "8",
            "scenario.weak_effect_count": "0",
            "scenario.noise_sd": "0.1",
            "scenario.seed": "101",
            **_SIM_EMISSION,
        },
        check_names=("recovery",),
        post_repeats=10,
    ),
    "paper": Workload(
        name="paper",
        config={
            "sampler.iterations": "1500",
            "sampler.burn_in": "750",
            "fit.checkpoint_every": "750",
        },
        base_seed=0,
        setup_calls=5,
        simulate={"scenario.seed": "0", **_SIM_EMISSION},
        check_names=("states", "selection", "checkpoint"),
        post_repeats=3,
    ),
}
