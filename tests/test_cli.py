"""End-to-end CLI pipeline, exit codes, and run-manifest structure."""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagnokit
from diagnokit.classifier import Dataset, load_dataset, save_dataset
from diagnokit.cli import CONFIG_KEYS, main
from diagnokit.io import load_cts_tensor, save_cts_tensor
from diagnokit.types import CtsTensor

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
    rows, labels = [], []
    for i in range(24):
        y = i % 2
        base = 2.0 if y else -2.0
        rows.append([base + rng.normal(0, 0.3),
                     -0.05 if (y and i % 4 == 1) else 0.05,
                     0.05, 0.5, 60.0 + rng.normal(0, 5)])
        labels.append(y)
    feats = Dataset(values=np.array(rows), names=names, tags=tags,
                    sample_ids=tuple(f"p{i:02d}" for i in range(24)))
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
                         "estimated_pairs", "median_noise_var", "rescues"}
    assert diag["rescues"] == {"iw_redraws": 0, "spd_jitter": 0}
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


class TestDatasetValidation:
    """load_dataset validates the file once, for every classifier command,
    and each rejection exits 1 and names the offending line."""

    def _edit(self, dataset_path, tmp_path, case):
        lines = dataset_path.read_text().splitlines()
        if case == "duplicate_id":
            lines[5] = "p01" + lines[5][lines[5].index("\t"):]  # line 6 repeats line 4
            lineno = 6
        elif case == "label_two":
            lines[6] = lines[6][:lines[6].rindex("\t")] + "\t2"
            lineno = 7
        elif case == "non_finite":
            fields = lines[4].split("\t")
            fields[1] = "inf"
            lines[4] = "\t".join(fields)
            lineno = 5
        elif case == "short_tag_row":
            lines[1] = lines[1][:lines[1].rindex("\t")]
            lineno = 2
        else:
            lines[1] = lines[1].replace("covariate", "cofactor")
            lineno = 2
        path = tmp_path / f"{case}.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path, lineno

    @pytest.mark.parametrize("case", ["duplicate_id", "label_two", "non_finite",
                                      "short_tag_row", "unknown_tag"])
    def test_bad_dataset_is_one_with_line(self, model_dir, dataset_path, tmp_path,
                                          capsys, case):
        path, lineno = self._edit(dataset_path, tmp_path, case)
        ckpt = ["--checkpoint", str(model_dir / "model.json")]
        runs = {
            "train": ["train"],
            "attribute": ["attribute", *ckpt],
            "report": ["report", *ckpt, "--sample", "p01", "--audience", "patient",
                       "--offline"],
            "diverge": ["diverge", *ckpt, "--offline"],
        }
        for command, argv in runs.items():
            capsys.readouterr()
            assert main([*argv, "--dataset", str(path),
                         "--out", str(tmp_path / command)]) == 1, command
            assert f"error: line {lineno}: " in capsys.readouterr().err, command


def test_population_stats_per_feature(dataset_path):
    from diagnokit.classifier import load_dataset
    from diagnokit.cli import _population_stats
    feats, labels = load_dataset(dataset_path)
    stats = _population_stats(feats, labels)
    x = feats.values
    for j, name in enumerate(feats.names):
        col = x[:, j]
        want = (col[labels == 1].mean(), col[labels == 0].mean(),
                col.std() if np.ptp(col) > 0 else 1.0)
        assert stats[name] == pytest.approx(want, rel=1e-12, abs=0)
    # a column of equal values gets sd 1, also where std rounds to ~1e-17
    assert np.std(x[:, 2]) > 0
    assert stats["se:gA"][2] == stats["pval:gA"][2] == 1.0


@pytest.mark.parametrize("case", ["not_an_object", "number", "string_weights",
                                  "ragged_weights", "numeric_names"])
def test_malformed_checkpoint_is_one(model_dir, dataset_path, tmp_path, capsys, case):
    payload = json.loads((model_dir / "model.json").read_text())
    if case == "not_an_object":
        payload = [1, 2]
    elif case == "number":
        payload = 3
    elif case == "string_weights":
        payload["w1"] = "heavy"
    elif case == "ragged_weights":
        payload["w2"] = [[1.0, 2.0], [3.0]]
    else:
        payload["feature_names"] = list(range(len(payload["feature_names"])))
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(payload))
    assert main(["attribute", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                 "--out", str(tmp_path / "attr")]) == 1
    assert "error: checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [None, "t0", ["t0", "t1"], "non_string"],
                         ids=["null", "string", "list", "non_string"])
def test_label_sidecar_must_map_cells_to_names(sim_dir, tmp_path, capsys, labels):
    if labels == "non_string":
        known = json.loads((sim_dir / "reference_labels.json").read_text())
        labels = {cell: 1 for cell in known}
    sidecar = tmp_path / "labels.json"
    sidecar.write_text(json.dumps(labels))
    assert main(["select-genes", "--ref", str(sim_dir / "reference.tsv"),
                 "--labels", str(sidecar), "--out", str(tmp_path / "sel")]) == 1
    assert "label sidecar labels.json must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("failure,code", [("validation", 1), ("runtime", 2)])
def test_failed_command_marks_manifest(model_dir, dataset_path, tmp_path, monkeypatch,
                                       failure, code):
    if failure == "runtime":
        def broken(*args, **kwargs):
            raise RuntimeError("renderer crashed")

        monkeypatch.setattr("diagnokit.cli.generate_report", broken)
    out = tmp_path / "rep"
    assert main(["report", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--audience", "patient", "--offline",
                 "--sample", "nope" if failure == "validation" else "p01",
                 "--out", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == ("ValidationError: sample 'nope' not in dataset"
                                 if failure == "validation"
                                 else "RuntimeError: renderer crashed")
    assert manifest["outputs"] == []


def test_deconvolve_warns_when_not_converged(sim_dir, selection_path, tmp_path, capsys):
    cfg = tmp_path / "mcmc.json"
    cfg.write_text(json.dumps({"chains": 2, "iters": 8, "burnin": 2, "rounds": 1,
                               "rhat_threshold": 1.0001}))
    assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                 tmp_path / "dec", cfg)) == 0
    diag = json.loads((tmp_path / "dec" / "diagnostics.json").read_text())
    assert diag["converged"] is False
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert str(diag["max_rhat"]) in err[0] and "1.0001" in err[0]
    for name in ("cts_mean.tsv", "cts_variance.tsv"):
        assert (tmp_path / "dec" / name).exists()


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


@pytest.mark.parametrize("case", ["not_a_list", "no_gene", "no_cell_type",
                                  "no_provenance", "no_score", "non_numeric_score",
                                  "bad_provenance"])
def test_malformed_selection_is_one(sim_dir, selection_path, tmp_path, capsys, case):
    records = json.loads(selection_path.read_text())
    assert records
    if case == "not_a_list":
        records = {"pairs": records}
    elif case.startswith("no_"):
        del records[0][case[3:]]
    elif case == "non_numeric_score":
        records[0]["score"] = "high"
    else:
        records[0]["provenance"] = "curated"
    sel = tmp_path / "selection.json"
    sel.write_text(json.dumps(records))
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps(MCMC))
    assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", sel,
                                 tmp_path / "dec", mcfg)) == 1
    assert "selection" in capsys.readouterr().err


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports diagnokit from this tree."""
    src = Path(diagnokit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)


def test_reference_path_loads_no_scipy_stats_or_special(tmp_path):
    """select-genes, a one-round deconvolve and eval in a fresh interpreter
    leave scipy.stats and scipy.special unloaded (they cost about 100 MB).
    The reference has more than 12 cells, so selection takes the
    normal-approximation path."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({**SCENARIO, "ref_cells_per_type": 10}))
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(sim_dir)]) == 0
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps(MCMC))
    ref = ["--ref", str(sim_dir / "reference.tsv"),
           "--labels", str(sim_dir / "reference_labels.json")]
    argvs = [
        ["select-genes", *ref, "--out", str(tmp_path / "sel")],
        _deconvolve_args(sim_dir, sim_dir / "meta.json", tmp_path / "sel" / "selection.json",
                         tmp_path / "dec", mcfg),
        ["eval", "--estimate", str(tmp_path / "dec" / "cts.tsv"),
         "--truth", str(sim_dir / "truth.tsv"), "--out", str(tmp_path / "eval")],
    ]
    code = ("import json, sys\n"
            "from diagnokit.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(argvs))}):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))\n")
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "eval" / "recovery.json").exists()


def test_two_round_pipeline_runs_with_scipy_refused(sim_dir, selection_path, tmp_path):
    """select-genes, a two-round deconvolve (so refine_priors runs) and eval
    succeed in a fresh interpreter whose import system refuses every scipy
    module: no command needs scipy, not even lazily."""
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps({**MCMC, "rounds": 2}))
    ref = ["--ref", str(sim_dir / "reference.tsv"),
           "--labels", str(sim_dir / "reference_labels.json")]
    argvs = [
        ["select-genes", *ref, "--out", str(tmp_path / "sel")],
        _deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                         tmp_path / "dec", mcfg),
        ["eval", "--estimate", str(tmp_path / "dec" / "cts.tsv"),
         "--truth", str(sim_dir / "truth.tsv"), "--out", str(tmp_path / "eval")],
    ]
    code = ("import json, sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError(f'refused: {name}')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "from diagnokit.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(argvs))}):\n"
            "    code = main(argv)\n"
            "    if code:\n"
            "        sys.exit(code)\n"
            "sys.exit(3 if any(m.partition('.')[0] == 'scipy' for m in sys.modules) else 0)\n")
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    diag = json.loads((tmp_path / "dec" / "diagnostics.json").read_text())
    assert diag["estimated_pairs"] > 0  # the sampler ran, so refine_priors did
    assert set(diag["rescues"]) == {"iw_redraws", "spd_jitter"}
    assert (tmp_path / "eval" / "recovery.json").exists()


def test_cli_import_pulls_in_neither_numba_nor_requests():
    """Nor urllib.request, which only an LLM call needs and which pulls in
    http.client, email and ssl."""
    proc = _fresh_python("import sys, diagnokit.cli; print(sorted({'numba', 'requests', "
                         "'scipy.stats', 'scipy.optimize', 'urllib.request', "
                         "'http.client', 'email', 'ssl'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command,key,nearest", [
    ("deconvolve", "iter", "iters"),
    ("deconvolve", "chain", "chains"),
    ("simulate", "n_genes", None),
])
def test_unknown_config_key_is_one(sim_dir, selection_path, tmp_path, capsys,
                                   command, key, nearest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**MCMC, key: 10} if command == "deconvolve" else {key: 10}))
    if command == "deconvolve":
        argv = _deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                tmp_path / "out", cfg)
    else:
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"unknown config key {key!r}" in err
    assert (f"did you mean {nearest!r}" if nearest else "known keys") in err


class TestExitCodes:
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unreadable_config_is_one(self, tmp_path, capsys, case):
        cfg = tmp_path / "cfg.json"
        if case == "directory":
            cfg.mkdir()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {cfg}: ")

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


def test_every_manifest_records_stage_timings(sim_dir, selection_path, model_dir,
                                              dataset_path, tmp_path):
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps(MCMC))
    ckpt = ["--checkpoint", str(model_dir / "model.json")]
    data = ["--dataset", str(dataset_path)]
    runs = {
        "deconvolve": _deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                       tmp_path / "deconvolve", mcfg),
        "eval": ["eval", "--estimate", str(sim_dir / "truth.tsv"),
                 "--truth", str(sim_dir / "truth.tsv"), "--out", str(tmp_path / "eval")],
        "attribute": ["attribute", *ckpt, *data, "--out", str(tmp_path / "attribute")],
        "report": ["report", *ckpt, *data, "--sample", "p01", "--audience", "patient",
                   "--offline", "--out", str(tmp_path / "report")],
        "diverge": ["diverge", *ckpt, *data, "--offline", "--out", str(tmp_path / "diverge")],
    }
    dirs = {"simulate": sim_dir, "select-genes": selection_path.parent, "train": model_dir}
    for command, argv in runs.items():
        assert main(argv) == 0, command
        dirs[command] = tmp_path / command
    assert set(dirs) == set(CONFIG_KEYS)
    for command, out in dirs.items():
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        timings = manifest["timings"]
        assert set(timings) == {"read_s", "compute_s", "write_s"}, command
        assert all(isinstance(v, float) and v >= 0 for v in timings.values()), command
        assert timings["compute_s"] > 0 and timings["write_s"] > 0, command


# Each TSV input and a command that reads it; the index of its first data line.
_TSV_READERS = {
    "bulk.tsv": 1, "reference.tsv": 1, "truth_mean.tsv": 1, "dataset.tsv": 2,
}


def _reader_argv(name, path, sim_dir, selection_path, out):
    if name == "bulk.tsv":
        argv = _deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path, out)
        argv[argv.index("--bulk") + 1] = str(path)
        return argv
    if name == "reference.tsv":
        return ["select-genes", "--ref", str(path),
                "--labels", str(sim_dir / "reference_labels.json"), "--out", str(out)]
    if name == "truth_mean.tsv":
        return ["eval", "--estimate", str(sim_dir / "truth.tsv"),
                "--truth", str(path.parent / "truth.tsv"), "--out", str(out)]
    return ["train", "--dataset", str(path), "--out", str(out)]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_TSV_READERS)), ragged=st.booleans(), data=st.data())
def test_cut_or_ragged_line_exits_one_naming_it(sim_dir, selection_path, dataset_path,
                                                tmp_path_factory, name, ragged, data):
    source = dataset_path if name == "dataset.tsv" else sim_dir / name
    lines = source.read_text().splitlines()
    i = data.draw(st.integers(_TSV_READERS[name], len(lines) - 1), label="line index")
    if ragged:
        lines[i] += "\t" + data.draw(st.sampled_from(["1.0", "x", ""]), label="extra")
    else:
        # cut at or before the last tab, so the line loses at least one field
        lines[i] = lines[i][:data.draw(st.integers(1, lines[i].rindex("\t")), label="cut")]
    root = tmp_path_factory.mktemp("broken")
    path = root / name
    path.write_text("\n".join(lines) + "\n")
    if name == "truth_mean.tsv":
        (root / "truth_variance.tsv").write_bytes((sim_dir / "truth_variance.tsv").read_bytes())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(_reader_argv(name, path, sim_dir, selection_path, root / "out"))
    assert code == 1
    assert f"error: line {i + 1}: expected " in err.getvalue()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tensor_loads_the_same_from_crlf_blank_lines_and_any_row_order(
        sim_dir, tmp_path_factory, data):
    truth = load_cts_tensor(sim_dir / "truth.tsv")
    root = tmp_path_factory.mktemp("layout")
    n_rows = truth.mean.size
    # one order for both files (independent orders: tests/test_io_batched.py)
    order = data.draw(st.permutations(range(n_rows)), label="row order")
    for part in ("mean", "variance"):
        header, *rows = (sim_dir / f"truth_{part}.tsv").read_text().splitlines()
        rows = [rows[i] for i in order]
        for pos in data.draw(st.lists(st.integers(0, n_rows), max_size=4),
                             label=f"{part} blanks"):
            rows.insert(pos, "")
        (root / f"t_{part}.tsv").write_bytes("\r\n".join([header, *rows]).encode() + b"\r\n")
    loaded = load_cts_tensor(root / "t.tsv")
    # axes come in order of first appearance; reorder them to the original's
    assert sorted(loaded.genes) == sorted(truth.genes)
    assert sorted(loaded.cell_types) == sorted(truth.cell_types)
    assert sorted(loaded.samples) == sorted(truth.samples)
    ix = np.ix_([loaded.genes.index(g) for g in truth.genes],
                [loaded.cell_types.index(c) for c in truth.cell_types],
                [loaded.samples.index(s) for s in truth.samples])
    assert loaded.mean[ix].tobytes() == truth.mean.tobytes()
    assert loaded.variance[ix].tobytes() == truth.variance.tobytes()


def _dataset_variant(dataset_path, path, columns):
    """The fixture dataset with its features in the order ``columns``."""
    feats, labels = load_dataset(dataset_path)
    save_dataset(Dataset(values=feats.values[:, columns],
                         names=[feats.names[j] for j in columns],
                         tags=[feats.tags[j] for j in columns],
                         sample_ids=feats.sample_ids), labels, path)
    return path


def _classifier_outputs(model_dir, dataset, out):
    ckpt = ["--checkpoint", str(model_dir / "model.json"), "--dataset", str(dataset)]
    assert main(["attribute", *ckpt, "--out", str(out / "attr")]) == 0
    assert main(["report", *ckpt, "--sample", "p01", "--audience", "clinician",
                 "--offline", "--out", str(out / "rep")]) == 0
    assert main(["diverge", *ckpt, "--offline", "--out", str(out / "div")]) == 0
    return [(out / f).read_bytes() for f in ("attr/attributions.tsv", "rep/report.json",
                                              "rep/report.md", "div/divergence.json")]


def test_features_join_the_model_by_name(model_dir, dataset_path, tmp_path):
    """A dataset with its columns reversed gives the same bytes: each
    classifier command puts the features in the model's order by name."""
    n = len(load_dataset(dataset_path)[0].names)
    reversed_path = _dataset_variant(dataset_path, tmp_path / "reversed.tsv",
                                     list(range(n))[::-1])
    assert (_classifier_outputs(model_dir, reversed_path, tmp_path / "b")
            == _classifier_outputs(model_dir, dataset_path, tmp_path / "a"))


@pytest.mark.parametrize("command", ["attribute", "report", "diverge"])
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_missing_or_extra_feature_exits_one_naming_it(model_dir, dataset_path, tmp_path,
                                                      capsys, command, change):
    feats, labels = load_dataset(dataset_path)
    path = tmp_path / "d.tsv"
    if change == "missing":
        _dataset_variant(dataset_path, path, [0, 1, 2, 4])
        message = "dataset has no feature 'pval:gA'"
    else:
        save_dataset(Dataset(values=np.hstack([feats.values, feats.values[:, :1]]),
                             names=feats.names + ("cov:bmi",), tags=feats.tags + ("covariate",),
                             sample_ids=feats.sample_ids), labels, path)
        message = "dataset feature 'cov:bmi' is not in the model"
    argv = [command, "--checkpoint", str(model_dir / "model.json"), "--dataset", str(path),
            "--out", str(tmp_path / "out")]
    if command == "report":
        argv += ["--sample", "p01", "--audience", "patient", "--offline"]
    elif command == "diverge":
        argv += ["--offline"]
    capsys.readouterr()
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_all_empty_value_parts_print_only_the_error(tmp_path, capfd):
    """np.loadtxt's "input contained no data" notice does not reach stderr
    ahead of the error that names the line."""
    path = tmp_path / "d.tsv"
    path.write_text("sample\tf1\tlabel\n#tags\tcts\t-\ns0\t\ns1\t\n")
    capfd.readouterr()
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capfd.readouterr().err == "error: line 3: expected 3 fields, got 2\n"


@pytest.fixture(scope="module")
def eval_dirs(sim_dir, tmp_path_factory):
    """An estimate (the truth plus noise) and the recovery.json eval writes for it."""
    root = tmp_path_factory.mktemp("eval")
    truth = load_cts_tensor(sim_dir / "truth.tsv")
    noise = np.random.default_rng(9).normal(0.0, 0.3, truth.mean.shape)
    save_cts_tensor(CtsTensor(genes=truth.genes, cell_types=truth.cell_types,
                              samples=truth.samples, mean=truth.mean + noise,
                              variance=truth.variance), root / "est.tsv")
    assert main(["eval", "--estimate", str(root / "est.tsv"), "--truth",
                 str(sim_dir / "truth.tsv"), "--out", str(root / "out")]) == 0
    return root


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_eval_joins_estimate_to_truth_by_key(sim_dir, eval_dirs, tmp_path_factory, data):
    """recovery.json is byte-identical whatever order the estimate lists its
    (gene, cell type, sample) rows in."""
    root = tmp_path_factory.mktemp("perm")
    for part in ("mean", "variance"):
        header, *rows = (eval_dirs / f"est_{part}.tsv").read_text().splitlines()
        order = data.draw(st.permutations(range(len(rows))), label=f"{part} order")
        (root / f"est_{part}.tsv").write_text("\n".join([header, *[rows[i] for i in order]])
                                             + "\n")
    assert main(["eval", "--estimate", str(root / "est.tsv"), "--truth",
                 str(sim_dir / "truth.tsv"), "--out", str(root / "out")]) == 0
    assert ((root / "out" / "recovery.json").read_bytes()
            == (eval_dirs / "out" / "recovery.json").read_bytes())


@pytest.mark.parametrize("change", ["dropped", "foreign"])
def test_eval_rejects_estimate_with_other_keys(sim_dir, eval_dirs, tmp_path, capsys, change):
    for part in ("mean", "variance"):
        header, *rows = (eval_dirs / f"est_{part}.tsv").read_text().splitlines()
        # every entry of the first gene goes, or is renamed to a gene the truth lacks
        gene = rows[0].split("\t")[0]
        rows = [("gX" + r[len(gene):] if change == "foreign" else None)
                if r.split("\t")[0] == gene else r for r in rows]
        (tmp_path / f"est_{part}.tsv").write_text(
            "\n".join([header, *[r for r in rows if r is not None]]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--estimate", str(tmp_path / "est.tsv"), "--truth",
                 str(sim_dir / "truth.tsv"), "--out", str(tmp_path / "out")]) == 1
    assert "estimate and truth axes do not match" in capsys.readouterr().err
