"""End-to-end CLI pipeline, exit codes, and run-manifest structure."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diagnokit
from diagnokit.classifier import FeatureVector, save_dataset
from diagnokit.cli import main

SCENARIO = {"G": 6, "C": 2, "N": 10, "d1": 1, "d2": 0, "ref_cells_per_type": 6}
MCMC = {"chains": 2, "iters": 30, "burnin": 15, "rounds": 1}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "scenario.json"
    cfg.write_text(json.dumps(SCENARIO))
    out = root / "sim"
    assert main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    """Small labeled dataset with cts/eqtl/covariate tags for the
    classifier-facing subcommands."""
    rng = np.random.default_rng(7)
    names = ("cts:gA|ct1", "beta:gA", "se:gA", "pval:gA", "cov:age")
    tags = ("cts", "eqtl_beta", "eqtl_se", "eqtl_pval", "covariate")
    feats, labels = [], []
    for i in range(24):
        y = i % 2
        base = 2.0 if y else -2.0
        vals = np.array([base + rng.normal(0, 0.3),
                         -0.05 if (y and i % 4 == 1) else 0.05,
                         0.05, 0.5, 60.0 + rng.normal(0, 5)])
        feats.append(FeatureVector(values=vals, names=names, tags=tags,
                                   sample_id=f"p{i:02d}"))
        labels.append(y)
    path = tmp_path_factory.mktemp("data") / "dataset.tsv"
    save_dataset(feats, np.array(labels), path)
    return path


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, dataset_path):
    out = tmp_path_factory.mktemp("model")
    cfg = out / "train.json"
    cfg.write_text(json.dumps({"max_epochs": 60, "batch_size": 8}))
    assert main(["train", "--dataset", str(dataset_path), "--config", str(cfg),
                 "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def selection_path(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("sel")
    assert main(["select-genes", "--ref", str(sim_dir / "reference.tsv"),
                 "--labels", str(sim_dir / "reference_labels.json"),
                 "--out", str(out)]) == 0
    return out / "selection.json"


def _deconvolve_args(sim_dir, meta, selection, out, config=None):
    return (["deconvolve", "--bulk", str(sim_dir / "bulk.tsv"),
             "--ref", str(sim_dir / "reference.tsv"),
             "--labels", str(sim_dir / "reference_labels.json"),
             "--meta", str(meta), "--selection", str(selection),
             "--seed", "5", "--out", str(out)]
            + (["--config", str(config)] if config else []))


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("bulk.tsv", "truth_mean.tsv", "truth_variance.tsv",
                     "meta.json", "reference.tsv", "reference_labels.json",
                     "manifest.json"):
            assert (sim_dir / name).exists(), name

    def test_byte_reproducible_across_thread_counts(self, sim_dir, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(SCENARIO))
        out2 = tmp_path / "sim2"
        assert main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out2), "--threads", "1"]) == 0
        for name in ("bulk.tsv", "truth_mean.tsv", "reference.tsv", "meta.json"):
            assert (sim_dir / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_changes_output(self, sim_dir, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(SCENARIO))
        out2 = tmp_path / "sim2"
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--out", str(out2)]) == 0
        assert (sim_dir / "bulk.tsv").read_bytes() != (out2 / "bulk.tsv").read_bytes()


def test_manifest_structure(sim_dir):
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["status"] == "ok"
    assert manifest["seed"] == 1
    assert len(manifest["config_hash"]) == 64
    assert manifest["outputs"]
    assert manifest["timestamp"] > 0


def test_select_genes_and_deconvolve_and_eval(sim_dir, tmp_path):
    sel_out = tmp_path / "sel"
    cfg = tmp_path / "sel.json"
    cfg.write_text(json.dumps({"fdr_threshold": 0.5, "lfc_threshold": 0.1}))
    assert main(["select-genes", "--ref", str(sim_dir / "reference.tsv"),
                 "--labels", str(sim_dir / "reference_labels.json"),
                 "--config", str(cfg), "--out", str(sel_out)]) == 0
    selection = json.loads((sel_out / "selection.json").read_text())
    assert selection and all({"gene", "cell_type"} <= set(r) for r in selection)

    dec_out = tmp_path / "dec"
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps(MCMC))
    assert main(["deconvolve", "--bulk", str(sim_dir / "bulk.tsv"),
                 "--ref", str(sim_dir / "reference.tsv"),
                 "--labels", str(sim_dir / "reference_labels.json"),
                 "--meta", str(sim_dir / "meta.json"),
                 "--selection", str(sel_out / "selection.json"),
                 "--config", str(mcfg), "--seed", "5",
                 "--out", str(dec_out)]) == 0
    diag = json.loads((dec_out / "diagnostics.json").read_text())
    assert set(diag) == {"converged", "max_rhat", "rhat_threshold",
                         "estimated_pairs", "median_noise_var"}
    assert (dec_out / "cts_mean.tsv").exists()
    assert (dec_out / "cts_variance.tsv").exists()

    eval_out = tmp_path / "eval"
    assert main(["eval", "--estimate", str(dec_out / "cts.tsv"),
                 "--truth", str(sim_dir / "truth.tsv"),
                 "--out", str(eval_out)]) == 0
    recovery = json.loads((eval_out / "recovery.json").read_text())
    assert "per_gene" in recovery and "median_per_gene_overall" in recovery


def test_train_outputs(model_dir):
    model = json.loads((model_dir / "model.json").read_text())
    assert "w1" in model and "feature_names" in model
    log = json.loads((model_dir / "train_log.json").read_text())
    assert log["log"] and "val_loss" in log["log"][0]


def test_attribute(model_dir, dataset_path, tmp_path):
    out = tmp_path / "attr"
    assert main(["attribute", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--out", str(out)]) == 0
    lines = (out / "attributions.tsv").read_text().splitlines()
    assert lines[0].startswith("sample\t")
    assert len(lines) == 25  # header + 24 samples


@pytest.mark.parametrize("audience", ["clinician", "patient"])
def test_report_offline(model_dir, dataset_path, tmp_path, audience):
    out = tmp_path / f"rep_{audience}"
    assert main(["report", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--sample", "p01",
                 "--audience", audience, "--offline", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["decision"] in ("AD", "nonAD")
    assert report["audience"] == audience
    assert report["generator"] == "offline"
    assert report["recommendations"]
    assert (out / "report.md").read_text().startswith("# Diagnostic report")


def test_report_step_strategy(model_dir, dataset_path, tmp_path):
    out = tmp_path / "rep_step"
    assert main(["report", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--sample", "p03",
                 "--audience", "clinician", "--strategy", "step",
                 "--offline", "--out", str(out)]) == 0


def test_report_unknown_sample_exits_one(model_dir, dataset_path, tmp_path):
    assert main(["report", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--sample", "nope",
                 "--audience", "patient", "--offline",
                 "--out", str(tmp_path / "r")]) == 1


def test_diverge_offline(model_dir, dataset_path, tmp_path):
    out = tmp_path / "div"
    assert main(["diverge", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--offline",
                 "--out", str(out)]) == 0
    reports = json.loads((out / "divergence.json").read_text())
    names = {r["subset_name"] for r in reports}
    assert names == {"symbolic-conflict", "ood"}
    assert all(r["llm_accuracy"] is None for r in reports)
    md = (out / "divergence.md").read_text()
    assert md.startswith("| Case | Features | Label | MLP | LLM | Key Insight |")


class TestSampleMeta:
    """meta.json is joined to the bulk columns by sample_id, and malformed
    files are input errors (exit 1), not runtime errors."""

    def _records(self, sim_dir):
        return json.loads((sim_dir / "meta.json").read_text())

    def _run(self, sim_dir, selection_path, tmp_path, meta_text, name):
        meta = tmp_path / f"{name}.json"
        meta.write_text(meta_text)
        mcfg = tmp_path / "mcmc.json"
        mcfg.write_text(json.dumps(MCMC))
        return main(_deconvolve_args(sim_dir, meta, selection_path,
                                     tmp_path / name, mcfg))

    def test_record_order_does_not_matter(self, sim_dir, selection_path, tmp_path):
        records = self._records(sim_dir)
        assert self._run(sim_dir, selection_path, tmp_path,
                         json.dumps(records), "in_order") == 0
        assert self._run(sim_dir, selection_path, tmp_path,
                         json.dumps(records[::-1]), "reversed") == 0
        for name in ("cts_mean.tsv", "cts_variance.tsv"):
            assert ((tmp_path / "in_order" / name).read_bytes()
                    == (tmp_path / "reversed" / name).read_bytes()), name

    @pytest.mark.parametrize("case", ["unknown_id", "missing_id", "duplicate_id"])
    def test_id_mismatch_is_one(self, sim_dir, selection_path, tmp_path, case):
        records = self._records(sim_dir)
        if case == "unknown_id":
            records[0]["sample_id"] = "not-a-sample"
        elif case == "missing_id":
            records = records[1:]
        else:
            records[1]["sample_id"] = records[0]["sample_id"]
        assert self._run(sim_dir, selection_path, tmp_path,
                         json.dumps(records), case) == 1

    def test_invalid_json_is_one(self, sim_dir, selection_path, tmp_path, capsys):
        text = json.dumps(self._records(sim_dir), indent=2)[:-40]
        assert self._run(sim_dir, selection_path, tmp_path, text, "truncated") == 1
        assert "line " in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not_a_list", "no_sample_id", "no_proportions",
                                      "non_numeric", "ragged_covariates"])
    def test_malformed_record_is_one(self, sim_dir, selection_path, tmp_path, case):
        records = self._records(sim_dir)
        if case == "not_a_list":
            records = {r["sample_id"]: r for r in records}
        elif case == "no_sample_id":
            del records[2]["sample_id"]
        elif case == "no_proportions":
            del records[2]["proportions"]
        elif case == "ragged_covariates":
            records[2]["bulk_cov"].append(1.0)
        else:
            first = next(iter(records[2]["proportions"]))
            records[2]["proportions"][first] = "high"
        assert self._run(sim_dir, selection_path, tmp_path,
                         json.dumps(records), case) == 1


def test_cli_import_pulls_in_neither_numba_nor_requests():
    src = Path(diagnokit.__file__).resolve().parents[1]
    code = ("import sys, diagnokit.cli; "
            "print(sorted({'numba', 'requests'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestExitCodes:
    def test_missing_input_file_is_one(self, tmp_path):
        assert main(["select-genes", "--ref", str(tmp_path / "nope.tsv"),
                     "--labels", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_usage_error_is_one(self):
        assert main(["select-genes"]) == 1
        assert main(["not-a-command"]) == 1

    def test_runtime_error_is_two(self, sim_dir, selection_path, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler crashed")

        monkeypatch.setattr("diagnokit.cli.deconvolve", broken)
        assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                     tmp_path / "dec")) == 2

    def test_version_is_zero(self, capsys):
        assert main(["--version"]) == 0
