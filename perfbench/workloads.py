"""Workload definitions: input sizes, input generation and command sequences.

Each workload is a fixed sequence of ``diagnokit`` CLI commands over inputs
that the benchmark generates from its ``--seed``. The program sees only the
generated files and the arguments below; its own ``--seed`` is fixed so that
every workload seed runs the same amount of MCMC and training work.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PROGRAM_SEED = "0"
# classify-explain attributes a probe cohort made from this fixed seed, not
# from ``--seed``: the known near-zero-sd fault makes most of its samples miss
# IG completeness, and on fixed inputs the same ones miss in every run.
PROBE_SEED = 0
REPORT_SAMPLES = ("s000", "s001", "s002", "s003")
AUDIENCES = ("clinician", "patient")

# Input sizes per workload. ``toy`` variants serve the self-test only.
SIZES = {
    "deconv-mcmc": {
        "scenario": {"G": 80, "C": 3, "N": 80, "d1": 2, "d2": 1,
                     "ref_cells_per_type": 50},
        "mcmc": {"chains": 2, "iters": 30, "burnin": 15, "rounds": 2},
    },
    "reference-wide": {
        "scenario": {"G": 250, "C": 5, "N": 24, "d1": 2, "d2": 1,
                     "ref_cells_per_type": 60},
        "mcmc": {"chains": 2, "iters": 4, "burnin": 0, "rounds": 1},
    },
    "classify-explain": {
        "scenario": {"G": 20, "C": 3, "N": 800, "d1": 1, "d2": 0,
                     "ref_cells_per_type": 4},
        "train": {"max_epochs": 20, "patience": 20},
        "probe_samples": 400,
    },
}
TOY_SIZES = {
    "deconv-mcmc": {
        "scenario": {"G": 24, "C": 3, "N": 30, "d1": 1, "d2": 1,
                     "ref_cells_per_type": 20},
        "mcmc": {"chains": 2, "iters": 40, "burnin": 20, "rounds": 2},
    },
    "reference-wide": {
        "scenario": {"G": 60, "C": 4, "N": 12, "d1": 1, "d2": 1,
                     "ref_cells_per_type": 15},
        "mcmc": {"chains": 2, "iters": 6, "burnin": 2, "rounds": 1},
    },
    "classify-explain": {
        "scenario": {"G": 6, "C": 2, "N": 120, "d1": 1, "d2": 0,
                     "ref_cells_per_type": 4},
        "train": {"max_epochs": 8, "patience": 8},
        "probe_samples": 40,
    },
}
WORKLOADS = tuple(SIZES)
# Set-ups timed back to back as one ``setup_s`` sample, so that each sample
# lasts a few tenths of a second.
SETUP_REPS = {"deconv-mcmc": 4, "reference-wide": 2, "classify-explain": 1}


def write_configs(workload: str, inputs: Path, toy: bool = False) -> None:
    """Write the scenario and command config files the CLI reads."""
    spec = (TOY_SIZES if toy else SIZES)[workload]
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "scenario.json").write_text(json.dumps(spec["scenario"]))
    if "probe_samples" in spec:
        probe = {**spec["scenario"], "N": spec["probe_samples"]}
        (inputs / "probe_scenario.json").write_text(json.dumps(probe))
    for key in ("mcmc", "train"):
        if key in spec:
            (inputs / f"{key}.json").write_text(json.dumps(spec[key]))


def cohort(truth, seed: int):
    """eQTL table, covariates and labels for the classify-explain cohort.

    Labels follow a logistic rule on three cell-type-specific features and
    age, so the classifier has signal to learn. eQTL effects include negative
    betas, so the symbolic-conflict subset is never empty.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xC0)))
    genes, samples = truth.genes, truth.samples
    eqtl = {g: (float(rng.normal(0.0, 0.3)), float(rng.uniform(0.02, 0.2)),
                float(rng.uniform(1e-8, 0.05))) for g in genes}
    eqtl[genes[0]] = (-abs(eqtl[genes[0]][0]) - 0.01,) + eqtl[genes[0]][1:]
    age = rng.normal(70.0, 8.0, len(samples))
    covariates = {s: {"age": float(age[i])} for i, s in enumerate(samples)}
    m = truth.mean

    def z(a):
        return (a - a.mean()) / a.std()

    score = (z(m[0, 0]) - z(m[-1, -1]) + 0.5 * z(m[len(genes) // 2, 0])
             + 0.05 * (age - 70.0))
    labels = (rng.random(len(samples)) < 1.0 / (1.0 + np.exp(-1.5 * score))).astype(int)
    return eqtl, covariates, labels


def _simulate(main, config: Path, seed: int, out: Path, threads: int) -> None:
    rc = main(["simulate", "--config", str(config), "--seed", str(seed),
               "--out", str(out), "--threads", str(threads)])
    if rc != 0:
        raise RuntimeError(f"simulate exited {rc}")


def _dataset(sim: Path, seed: int, path: Path) -> None:
    """A cohort dataset from ``classifier.build_features`` on the true tensor."""
    from diagnokit.classifier import build_features, save_dataset
    from diagnokit.io import load_cts_tensor
    from diagnokit.types import PairSelection, pair_key

    truth = load_cts_tensor(sim / "truth.tsv")
    pairs = frozenset((g, c) for g in truth.genes for c in truth.cell_types)
    selection = PairSelection(pairs=pairs,
                              provenance={pair_key(*p): "stability" for p in pairs},
                              scores={pair_key(*p): 1.0 for p in pairs})
    eqtl, covariates, labels = cohort(truth, seed)
    save_dataset(build_features(truth, selection, eqtl, covariates), labels, path)


def generate_inputs(main, workload: str, seed: int, inputs: Path,
                    threads: int, toy: bool = False) -> None:
    """Generate and write one workload's inputs through the program's CLI.

    ``simulate`` writes the bulk matrix, truth tensor, metadata and reference.
    classify-explain then builds its dataset with ``classifier.build_features``,
    and makes the probe: a dataset from PROBE_SEED and a model trained on it.
    """
    write_configs(workload, inputs, toy)
    _simulate(main, inputs / "scenario.json", seed, inputs / "sim", threads)
    if workload != "classify-explain":
        return
    _dataset(inputs / "sim", seed, inputs / "dataset.tsv")
    probe = inputs / "probe"
    _simulate(main, inputs / "probe_scenario.json", PROBE_SEED, probe / "sim", threads)
    _dataset(probe / "sim", PROBE_SEED, probe / "dataset.tsv")
    rc = main(["train", "--dataset", str(probe / "dataset.tsv"),
               "--config", str(inputs / "train.json"), "--out", str(probe / "model"),
               "--seed", PROGRAM_SEED, "--threads", str(threads)])
    if rc != 0:
        raise RuntimeError(f"probe train exited {rc}")


def commands(workload: str, inputs: Path, out: Path, threads: int) -> list[list[str]]:
    """The CLI argument lists of one pipeline round, in order."""
    common = ["--seed", PROGRAM_SEED, "--threads", str(threads)]
    sim = inputs / "sim"
    if workload in ("deconv-mcmc", "reference-wide"):
        ref = ["--ref", str(sim / "reference.tsv"),
               "--labels", str(sim / "reference_labels.json")]
        return [
            ["select-genes", *ref, "--out", str(out / "sel"), *common],
            ["deconvolve", "--bulk", str(sim / "bulk.tsv"), *ref,
             "--meta", str(sim / "meta.json"),
             "--selection", str(out / "sel" / "selection.json"),
             "--config", str(inputs / "mcmc.json"), "--out", str(out / "dec"), *common],
            ["eval", "--estimate", str(out / "dec" / "cts.tsv"),
             "--truth", str(sim / "truth.tsv"), "--out", str(out / "eval"), *common],
        ]
    data = ["--dataset", str(inputs / "dataset.tsv")]
    ckpt = ["--checkpoint", str(out / "model" / "model.json")]
    cmds = [
        ["train", *data, "--config", str(inputs / "train.json"),
         "--out", str(out / "model"), *common],
        ["attribute", "--checkpoint", str(inputs / "probe" / "model" / "model.json"),
         "--dataset", str(inputs / "probe" / "dataset.tsv"), "--out", str(out / "attr"),
         *common],
    ]
    for sample in REPORT_SAMPLES:
        for audience in AUDIENCES:
            cmds.append(["report", *ckpt, *data, "--sample", sample,
                         "--audience", audience, "--offline",
                         "--out", str(out / f"report_{sample}_{audience}"), *common])
    cmds.append(["diverge", *ckpt, *data, "--offline", "--out", str(out / "div"), *common])
    return cmds
