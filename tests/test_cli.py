"""End-to-end CLI pipeline, exit codes, and run-manifest structure."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagnokit
from diagnokit import engine
from diagnokit.classifier import Dataset, load_dataset, load_model, save_dataset
from diagnokit.cli import CONFIG_KEYS, main
from diagnokit.io import load_cts_tensor, save_cts_tensor
from diagnokit.report import build_prompt, prompt_input
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
    cfg = tmp_path_factory.mktemp("model_config") / "train.json"
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


def test_diverge_offline(model_dir, dataset_path, tmp_path, capsys):
    out = tmp_path / "div"
    cfg = tmp_path / "div.json"
    cfg.write_text(json.dumps({"subset_size": 5, "ood_threshold": 0.0}))
    capsys.readouterr()
    assert main(["diverge", "--checkpoint", str(model_dir / "model.json"),
                 "--dataset", str(dataset_path), "--config", str(cfg), "--offline",
                 "--out", str(out)]) == 0
    reports = json.loads((out / "divergence.json").read_text())
    names = {r["subset_name"] for r in reports}
    assert names == {"symbolic-conflict", "ood"}
    assert all(r["llm_accuracy"] is None for r in reports)
    # 6 of the 12 AD samples carry a negative beta; at threshold 0 every
    # sample is out of distribution, and diverge says so
    size = {r["subset_name"]: (r["subset_size"], r["candidates"]) for r in reports}
    assert size == {"symbolic-conflict": (5, 6), "ood": (5, 24)}
    assert capsys.readouterr().err == ("warning: the ood rule selects all 24 eligible samples; "
                                       "the subset holds the first 5\n")
    md = (out / "divergence.md").read_text()
    assert md.startswith("| Case | Features | Label | MLP | LLM | Key Insight |")


def test_diverge_scores_ood_on_the_kept_features_only(tmp_path, capsys):
    # train drops the constant beta and site columns; a site of 70 lies 70 sds
    # from a mean of 0, so scoring it would put every sample out of distribution
    rng = np.random.default_rng(11)
    x = np.column_stack([rng.normal(size=(40, 3)), np.full(40, -0.1), np.full(40, 70.0)])
    feats = Dataset(values=x, names=("cts:a|ct1", "cts:b|ct1", "cts:c|ct1", "beta:a",
                                     "cov:site"),
                    tags=("cts", "cts", "cts", "eqtl_beta", "covariate"),
                    sample_ids=tuple(f"s{i:02d}" for i in range(40)))
    data = tmp_path / "dataset.tsv"
    save_dataset(feats, (x[:, 0] > 0).astype(int), data)
    assert main(["train", "--dataset", str(data), "--seed", "1",
                 "--out", str(tmp_path / "model")]) == 0
    model = load_model(tmp_path / "model" / "model.json")
    assert list(model.kept) == [True, True, True, False, False]
    assert main(["diverge", "--checkpoint", str(tmp_path / "model" / "model.json"),
                 "--dataset", str(data), "--offline", "--out", str(tmp_path / "div")]) == 0
    far = (np.abs(x[:, :3] - model.mean) / model.sd).max(axis=1) > 1.0
    reports = {r["subset_name"]: r
               for r in json.loads((tmp_path / "div" / "divergence.json").read_text())}
    assert 0 < far.sum() < 40
    assert reports["ood"]["candidates"] == far.sum()
    assert ([row["sample"] for row in reports["ood"]["case_table"]]
            == [feats.sample_ids[i] for i in np.flatnonzero(far)])
    assert "ood rule" not in capsys.readouterr().err


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers every POST with a completion that names the fixture's features,
    gives one recommendation and decides AD; keeps each request's body and
    Authorization header."""

    seen: list = []
    auth: list = []
    content = ("cts:gA|ct1, beta:gA, se:gA, pval:gA and cov:age drove the call.\n"
               "- Confirm with clinical testing.\nDECISION: AD\n")

    def do_POST(self):
        self.seen.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        self.auth.append(self.headers.get("Authorization"))
        reply = json.dumps({"choices": [{"message": {"content": self.content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    """A local chat server, with DIAGNO_LLM_URL pointing at it."""
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    _ChatHandler.seen, _ChatHandler.auth = [], []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("DIAGNO_LLM_URL", f"http://127.0.0.1:{server.server_port}/v1")
    monkeypatch.delenv("DIAGNO_LLM_KEY", raising=False)
    yield
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_report_and_diverge_ask_the_llm(model_dir, dataset_path, tmp_path, chat_server,
                                        monkeypatch):
    monkeypatch.setenv("DIAGNO_LLM_KEY", "secret")
    cfg = tmp_path / "llm.json"
    cfg.write_text(json.dumps({"model": "test-model"}))
    common = ["--checkpoint", str(model_dir / "model.json"), "--dataset", str(dataset_path),
              "--config", str(cfg)]
    assert main(["report", *common, "--sample", "p01", "--audience", "clinician",
                 "--out", str(tmp_path / "rep")]) == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["generator"] == "llm"
    assert report["decision"] == "AD"
    assert main(["diverge", *common, "--out", str(tmp_path / "div")]) == 0
    reports = json.loads((tmp_path / "div" / "divergence.json").read_text())
    # one prompt per case, each built from its row by the shared prompt builder
    model = load_model(model_dir / "model.json")
    dataset, _ = load_dataset(dataset_path)
    samples = ["p01"] + [row["sample"] for r in reports for row in r["case_table"]]
    want = [build_prompt(prompt_input(model, dataset.values[dataset.sample_ids.index(s)],
                                      dataset.names, "clinician")) for s in samples]
    assert [body["messages"][0]["content"] for body in _ChatHandler.seen] == want
    assert all(row["llm_pred"] == 1 for r in reports for row in r["case_table"])
    conflict = next(r for r in reports if r["subset_name"] == "symbolic-conflict")
    assert conflict["llm_accuracy"] == 1.0  # every case there is labelled AD
    assert all(r["llm_accuracy"] is not None for r in reports)
    assert {body["model"] for body in _ChatHandler.seen} == {"test-model"}
    assert _ChatHandler.auth == ["Bearer secret"] * len(_ChatHandler.seen)


@pytest.mark.parametrize("command,extra,data_file", [
    ("report", ["--sample", "p01", "--audience", "patient"], "report.json"),
    ("diverge", [], "divergence.json"),
])
def test_offline_or_unset_url_asks_no_llm(model_dir, dataset_path, tmp_path, chat_server,
                                          monkeypatch, command, extra, data_file):
    argv = [command, "--checkpoint", str(model_dir / "model.json"),
            "--dataset", str(dataset_path), *extra]
    assert main([*argv, "--offline", "--out", str(tmp_path / "offline")]) == 0
    monkeypatch.delenv("DIAGNO_LLM_URL")
    assert main([*argv, "--out", str(tmp_path / "unset")]) == 0
    assert _ChatHandler.seen == []
    offline = (tmp_path / "offline" / data_file).read_bytes()
    assert offline == (tmp_path / "unset" / data_file).read_bytes()


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
                                  "ragged_weights", "numeric_names", "huge_weight",
                                  "string_number_weight", "bool_weight", "nan_sd",
                                  "kept_two", "kept_string"])
def test_malformed_checkpoint_is_one(model_dir, dataset_path, tmp_path, capsys, case):
    payload = json.loads((model_dir / "model.json").read_text())
    field = {"string_weights": "w1", "ragged_weights": "w2", "huge_weight": "w1",
             "string_number_weight": "w3", "bool_weight": "b1", "nan_sd": "sd",
             "kept_two": "kept", "kept_string": "kept"}.get(case)
    if case == "not_an_object":
        payload = [1, 2]
    elif case == "number":
        payload = 3
    elif case == "string_weights":
        payload["w1"] = "heavy"
    elif case == "ragged_weights":
        payload["w2"] = [[1.0, 2.0], [3.0]]
    elif case == "huge_weight":
        # an integer too large for a float
        payload["w1"][0][0] = 10 ** 400
    elif case == "string_number_weight":
        payload["w3"][0][0] = str(payload["w3"][0][0])
    elif case == "bool_weight":
        payload["b1"][0] = True
    elif case == "nan_sd":
        payload["sd"][0] = float("nan")
    elif case == "kept_two":
        payload["kept"][0] = 2
    elif case == "kept_string":
        payload["kept"][0] = "1"
    else:
        payload["feature_names"] = list(range(len(payload["feature_names"])))
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(payload))
    assert main(["attribute", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                 "--out", str(tmp_path / "attr")]) == 1
    err = capsys.readouterr().err
    assert "error: checkpoint" in err
    if field:
        assert f"field {field!r}" in err


@pytest.mark.parametrize("case", ["invalid_json", "not_utf8", "nested_entry"])
@pytest.mark.parametrize("command", ["select-genes", "report"])
def test_unreadable_markers_or_knowledge_is_one(sim_dir, model_dir, dataset_path, tmp_path,
                                                capsys, command, case):
    bad = tmp_path / "input.json"
    if case == "invalid_json":
        bad.write_text('{\n  "a": "one",\n  "b":\n}\n')
    elif case == "nested_entry":  # a list where a name or a snippet belongs
        bad.write_text('{"g0001": [["ct1"]]}')
    else:
        bad.write_bytes('{"g0001": ["ct\u00e9"]}'.encode("latin-1"))
    if command == "select-genes":
        argv = ["select-genes", "--ref", str(sim_dir / "reference.tsv"),
                "--labels", str(sim_dir / "reference_labels.json"), "--markers", str(bad)]
    else:
        argv = ["report", "--checkpoint", str(model_dir / "model.json"),
                "--dataset", str(dataset_path), "--sample", "p01", "--audience", "clinician",
                "--strategy", "step-domain", "--offline", "--knowledge", str(bad)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case == "invalid_json":
        assert "line 4: invalid JSON in input.json" in err


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


@pytest.mark.parametrize("failure,code", [("validation", 1), ("runtime", 2),
                                          ("interrupt", None)])
def test_failed_command_marks_manifest(model_dir, dataset_path, tmp_path, monkeypatch,
                                       failure, code):
    if failure != "validation":
        def broken(*args, **kwargs):
            raise RuntimeError("renderer crashed") if failure == "runtime" else KeyboardInterrupt

        monkeypatch.setattr("diagnokit.cli.generate_report", broken)
    out = tmp_path / "rep"
    # main returns an exit code, but lets Ctrl-C's KeyboardInterrupt through
    with pytest.raises(KeyboardInterrupt) if code is None else contextlib.nullcontext():
        assert main(["report", "--checkpoint", str(model_dir / "model.json"),
                     "--dataset", str(dataset_path), "--audience", "patient", "--offline",
                     "--sample", "nope" if failure == "validation" else "p01",
                     "--out", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == {
        "validation": "ValidationError: missing from dataset samples: 'nope'",
        "runtime": "RuntimeError: renderer crashed",
        "interrupt": "KeyboardInterrupt"}[failure]
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


def test_deconvolve_verdict_covers_only_the_selected_pairs(sim_dir, tmp_path, capsys,
                                                          monkeypatch):
    # g0000 is sampled for ct1 only, so its ct2 output is the reference prior;
    # that pair's R-hat is the only one above the threshold
    records = [{"gene": g, "cell_type": c, "provenance": "marker", "score": 1.0}
               for g, c in (("g0000", "ct1"), ("g0001", "ct1"), ("g0001", "ct2"))]
    sel = tmp_path / "selection.json"
    sel.write_text(json.dumps(records))
    rhats = []

    def unselected_high(traces):
        rhat = np.ones(traces.shape[2:])
        rhat[0, 1] = 2.0  # (g0000, ct2): sampled rows g0000, g0001
        rhats.append(rhat)
        return rhat

    monkeypatch.setattr(engine, "split_rhat", unselected_high)
    cfg = tmp_path / "mcmc.json"
    cfg.write_text(json.dumps(MCMC))
    assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", sel,
                                 tmp_path / "dec", cfg)) == 0
    assert len(rhats) == MCMC["rounds"]
    diag = json.loads((tmp_path / "dec" / "diagnostics.json").read_text())
    assert diag["converged"] is True and diag["max_rhat"] == 1.0
    assert diag["estimated_pairs"] == 3
    assert capsys.readouterr().err == ""


def test_non_finite_draw_names_the_gene_and_exits_two(sim_dir, tmp_path, capsys):
    # with g0001 left out, g0003 is the third gene sampled: row 2, not bulk row 3
    header, *rows = (sim_dir / "bulk.tsv").read_text().splitlines()
    gene, *values = rows[3].split("\t")
    assert gene == "g0003"
    rows[3] = "\t".join([gene, *(repr(float(v) * 1e160) for v in values)])
    bulk = tmp_path / "bulk.tsv"
    bulk.write_text("\n".join([header, *rows]) + "\n")
    records = [{"gene": f"g{i:04d}", "cell_type": "ct1", "provenance": "marker", "score": 1.0}
               for i in range(SCENARIO["G"]) if i != 1]
    sel = tmp_path / "selection.json"
    sel.write_text(json.dumps(records))
    cfg = tmp_path / "mcmc.json"
    cfg.write_text(json.dumps(MCMC))
    argv = _deconvolve_args(sim_dir, sim_dir / "meta.json", sel, tmp_path / "dec", cfg)
    argv[argv.index("--bulk") + 1] = str(bulk)
    capsys.readouterr()
    assert main(argv) == 2
    assert ("runtime error: Gibbs sweep produced a non-finite draw for gene 'g0003'"
            in capsys.readouterr().err)


def test_deconvolve_says_when_no_selected_pair_has_an_rhat(sim_dir, selection_path,
                                                           tmp_path, capsys):
    # split R-hat needs 4 kept draws per chain; this run keeps 2
    cfg = tmp_path / "mcmc.json"
    cfg.write_text(json.dumps({"chains": 2, "iters": 5, "burnin": 3, "rounds": 1}))
    assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                 tmp_path / "dec", cfg)) == 0
    diag = json.loads((tmp_path / "dec" / "diagnostics.json").read_text())
    assert diag["converged"] is False and diag["max_rhat"] is None
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert "None" not in err[0]
    assert "R-hat is undefined" in err[0] and "keeps 2" in err[0]


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

    @pytest.mark.parametrize("case", ["unknown_id", "missing_id", "duplicate_id",
                                      "extra_cell_type", "zero_mass_cell_type"])
    def test_id_mismatch_is_one(self, sim_dir, selection_path, tmp_path, capsys, case):
        records = self._records(sim_dir)
        if case == "unknown_id":
            records[0]["sample_id"] = "not-a-sample"
        elif case == "missing_id":
            records = records[1:]
        elif case == "duplicate_id":
            records[1]["sample_id"] = records[0]["sample_id"]
        else:
            # a type the reference lacks: with mass, every record sums to 1.5
            for r in records:
                r["proportions"]["ct9"] = 0.5 if case == "extra_cell_type" else 0.0
        assert self._run(sim_dir, selection_path, tmp_path,
                         json.dumps(records), case) == 1
        err = capsys.readouterr().err
        if case == "extra_cell_type":
            assert f"sum to 1.5, outside simplex tolerance (sample {records[0]['sample_id']!r})" in err
        elif case == "zero_mass_cell_type":
            assert "missing from reference cell types: 'ct9'" in err

    def test_invalid_json_is_one(self, sim_dir, selection_path, tmp_path, capsys):
        text = json.dumps(self._records(sim_dir), indent=2)[:-40]
        assert self._run(sim_dir, selection_path, tmp_path, text, "truncated") == 1
        assert "line " in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not_a_list", "no_sample_id", "no_proportions",
                                      "non_numeric", "ragged_covariates", "list_sample_id",
                                      "string_proportions", "bool_covariate",
                                      "huge_covariate", "nan_proportion",
                                      "ragged_cts_covariates", "other_cell_types",
                                      "repeated_key"])
    def test_malformed_record_is_one(self, sim_dir, selection_path, tmp_path, capsys, case):
        records = self._records(sim_dir)
        sid = records[2]["sample_id"]
        if case == "not_a_list":
            records = {r["sample_id"]: r for r in records}
        elif case == "no_sample_id":
            del records[2]["sample_id"]
        elif case == "no_proportions":
            del records[2]["proportions"]
        elif case == "ragged_covariates":
            records[2]["bulk_cov"].append(1.0)
        elif case == "ragged_cts_covariates":
            records[2]["cts_cov"].append(1.0)
        elif case == "other_cell_types":
            # every record must name the same cell types
            records[2]["proportions"]["ct9"] = 0.0
        elif case == "list_sample_id":
            records[2]["sample_id"] = [records[2]["sample_id"]]
        elif case == "string_proportions":
            # a number written as a JSON string is not read as the number
            records[2]["proportions"] = {c: str(w) for c, w in records[2]["proportions"].items()}
        elif case == "bool_covariate":
            records[2]["bulk_cov"][0] = True
        elif case == "huge_covariate":
            # an integer too large for a float
            records[2]["bulk_cov"][0] = 10 ** 400
        elif case == "nan_proportion":
            first = next(iter(records[2]["proportions"]))
            records[2]["proportions"][first] = float("nan")
        elif case != "repeated_key":
            first = next(iter(records[2]["proportions"]))
            records[2]["proportions"][first] = "high"
        text = json.dumps(records)
        if case == "repeated_key":
            # json.load alone would keep the last value; the first, 7.5, is no proportion
            first = next(iter(records[0]["proportions"]))
            text = text.replace('"proportions": {', f'"proportions": {{"{first}": 7.5, ', 1)
        assert self._run(sim_dir, selection_path, tmp_path, text, case) == 1
        # each rejection names the record
        err = capsys.readouterr().err
        if case == "repeated_key":
            assert f"duplicate key {first!r} in repeated_key.json" in err
        elif case == "list_sample_id":
            assert "sample metadata record 2" in err
        elif case in ("string_proportions", "bool_covariate", "huge_covariate",
                      "nan_proportion", "ragged_covariates", "ragged_cts_covariates",
                      "other_cell_types"):
            assert f"sample {sid!r}" in err


@pytest.fixture(scope="module")
def small_sim(tmp_path_factory):
    """A 12-cell reference (4 cells per type), simulated at seed 0."""
    root = tmp_path_factory.mktemp("small")
    cfg = root / "scenario.json"
    cfg.write_text(json.dumps({"G": 24, "C": 3, "N": 30, "d1": 1, "d2": 1,
                               "ref_cells_per_type": 4}))
    assert main(["simulate", "--config", str(cfg), "--seed", "0",
                 "--out", str(root / "sim")]) == 0
    return root / "sim"


def test_select_genes_warns_when_it_selects_no_pair(small_sim, tmp_path, capsys):
    capsys.readouterr()
    assert main(["select-genes", "--ref", str(small_sim / "reference.tsv"),
                 "--labels", str(small_sim / "reference_labels.json"),
                 "--out", str(tmp_path / "sel")]) == 0
    # the file is what it was; only stderr says why it is empty
    assert (tmp_path / "sel" / "selection.json").read_text() == "[]\n"
    err = capsys.readouterr().err
    assert err.startswith("warning: no (gene, cell type) pair was selected")
    assert "at most 12 cells gets exact rank-sum p-values" in err
    assert "fdr_threshold" in err


@pytest.mark.parametrize("markers", [
    {"gNOPE": ["ct1"], "g0000": ["ct9"]},
    {f"gNOPE{i}": ["ct1"] for i in range(7)},
], ids=["two", "seven"])
def test_select_genes_warns_of_markers_the_reference_lacks(sim_dir, selection_path, tmp_path,
                                                           capsys, markers):
    """Unknown markers are dropped, as before, and one warning names up to
    five of them; the selection is what no marker list gives."""
    path = tmp_path / "markers.json"
    path.write_text(json.dumps(markers))
    capsys.readouterr()
    assert main(["select-genes", "--ref", str(sim_dir / "reference.tsv"),
                 "--labels", str(sim_dir / "reference_labels.json"),
                 "--markers", str(path), "--out", str(tmp_path / "sel")]) == 0
    pairs = sorted((g, c) for g, cts in markers.items() for c in cts)
    more = f" and {len(pairs) - 5} more" if len(pairs) > 5 else ""
    assert capsys.readouterr().err == (
        "warning: dropped the markers that name a gene or cell type the reference lacks: "
        f"{', '.join(map(repr, pairs[:5]))}{more}\n")
    assert (tmp_path / "sel" / "selection.json").read_bytes() == selection_path.read_bytes()


def test_deconvolve_warns_when_no_selected_pair_was_sampled(small_sim, tmp_path, capsys):
    sel = tmp_path / "selection.json"
    sel.write_text("[]\n")
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps(MCMC))
    capsys.readouterr()
    assert main(_deconvolve_args(small_sim, small_sim / "meta.json", sel,
                                 tmp_path / "dec", mcfg)) == 0
    diagnostics = json.loads((tmp_path / "dec" / "diagnostics.json").read_text())
    assert diagnostics["estimated_pairs"] == 0 and diagnostics["converged"] is True
    assert capsys.readouterr().err == ("warning: the selection holds no pair, so nothing "
                                       "was sampled and cts.tsv holds the reference "
                                       "priors\n")


@pytest.mark.parametrize("case", ["not_a_list", "no_gene", "no_cell_type",
                                  "no_provenance", "no_score", "non_numeric_score",
                                  "bad_provenance", "list_gene", "object_cell_type",
                                  "huge_score", "nan_score", "infinite_score",
                                  "duplicate_pair", "repeated_key"])
def test_malformed_selection_is_one(sim_dir, selection_path, tmp_path, capsys, case):
    records = json.loads(selection_path.read_text())
    assert records
    if case == "not_a_list":
        records = {"pairs": records}
    elif case.startswith("no_"):
        del records[0][case[3:]]
    elif case == "non_numeric_score":
        records[0]["score"] = "high"
    elif case == "list_gene":
        records[0]["gene"] = [records[0]["gene"]]
    elif case == "object_cell_type":
        records[0]["cell_type"] = {"name": records[0]["cell_type"]}
    elif case.endswith("_score"):
        # an integer too large for a float, NaN or Infinity is no score
        records[0]["score"] = {"huge": 10 ** 400, "nan": float("nan"),
                               "infinite": float("inf")}[case[:-6]]
    elif case == "duplicate_pair":
        records.append({**records[0], "score": 0.5})
    elif case != "repeated_key":
        records[0]["provenance"] = "curated"
    text = json.dumps(records)
    if case == "repeated_key":
        text = text.replace('"score": ', '"score": 0.5, "score": ', 1)
    sel = tmp_path / "selection.json"
    sel.write_text(text)
    mcfg = tmp_path / "mcmc.json"
    mcfg.write_text(json.dumps(MCMC))
    assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", sel,
                                 tmp_path / "dec", mcfg)) == 1
    err = capsys.readouterr().err
    assert "selection" in err
    if case.endswith("_score"):
        assert "selection record 0" in err
    elif case == "duplicate_pair":
        assert f"selection records 0 and {len(records) - 1} both list the pair" in err
    elif case == "repeated_key":
        assert "duplicate key 'score' in selection.json" in err


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


@pytest.mark.parametrize("command,config,key", [
    ("deconvolve", {"iters": "100"}, "iters"),
    ("deconvolve", {"iters": 30.5}, "iters"),
    ("deconvolve", {"chains": 2.0}, "chains"),
    ("deconvolve", {"rounds": 1.5}, "rounds"),
    ("deconvolve", {"tau": "x"}, "tau"),
    ("deconvolve", {"tau": None}, "tau"),
    ("deconvolve", {"burnin": True}, "burnin"),
    ("deconvolve", {"shrinkage": "0.5"}, "shrinkage"),
    ("train", {"batch_size": 2.5}, "batch_size"),
    ("train", {"max_epochs": "5"}, "max_epochs"),
    ("train", {"patience": 1.5}, "patience"),
    ("attribute", {"steps": "x"}, "steps"),
    ("attribute", {"steps": 2.5}, "steps"),
    ("diverge", {"subset_size": "x"}, "subset_size"),
    ("diverge", {"model": 5}, "model"),
    ("simulate", {"G": 2.5}, "G"),
    ("simulate", {"ref_cells_per_type": 0}, "ref_cells_per_type"),
    ("simulate", {"expr_sd": -1}, "expr_sd"),
    ("simulate", {"ref_cell_sd": -1}, "ref_cell_sd"),
    ("simulate", {"sigma_scale": -1}, "sigma_scale"),
    ("simulate", {"sigma_rho_range": [0.5, 1.5]}, "sigma_rho_range"),
    ("simulate", {"sigma_rho_range": 0.5}, "sigma_rho_range"),
    ("simulate", {"dirichlet_alpha": 3}, "dirichlet_alpha"),
    ("simulate", {"dirichlet_alpha": ["x", 1, 1]}, "dirichlet_alpha"),
    ("simulate", {"sigma_rho_range": [0.5, "a"]}, "sigma_rho_range"),
    ("simulate", {"sigma_rho_range": [0.5, 0.6, 0.7]}, "sigma_rho_range"),
    ("simulate", {"dirichlet_alpha": [1, True, 1]}, "dirichlet_alpha"),
    # JSON's NaN and Infinity parse as floats but are no number of a scenario
    ("simulate", {"noise_sd": float("nan")}, "noise_sd"),
    ("simulate", {"expr_mean": float("inf")}, "expr_mean"),
    ("simulate", {"dirichlet_alpha": [float("nan"), 1, 1]}, "dirichlet_alpha"),
    # report keeps the top_k features of the prompt, so at least one
    ("report", {"top_k": 0}, "top_k"),
    ("report", {"top_k": -2}, "top_k"),
    ("report", {"top_k": 2.5}, "top_k"),
    ("report", {"top_k": True}, "top_k"),
    # an integer too large for a float is no number of any kind
    ("select-genes", {"fdr_threshold": 10 ** 400}, "fdr_threshold"),
    ("report", {"top_k": 10 ** 400}, "top_k"),
    ("simulate", {"noise_sd": 10 ** 400}, "noise_sd"),
    ("simulate", {"dirichlet_alpha": [10 ** 400, 1, 1]}, "dirichlet_alpha"),
    ("deconvolve", {"shrinkage": -10 ** 400}, "shrinkage"),
    # JSON text that lists a key twice (MCMC lists iters too); the last would win
    pytest.param("deconvolve", '"iters": 40', "duplicate key 'iters' in cfg.json",
                 id="deconvolve-repeated-iters"),
    pytest.param("simulate", '{"G": 6, "G": 7}', "duplicate key 'G' in cfg.json",
                 id="simulate-repeated-G"),
])
def test_config_value_of_wrong_kind_or_range_is_one(sim_dir, selection_path, model_dir,
                                                    dataset_path, tmp_path, capsys,
                                                    command, config, key):
    cfg = tmp_path / "cfg.json"
    if isinstance(config, str):  # raw JSON text
        cfg.write_text(json.dumps(MCMC)[:-1] + f", {config}}}" if command == "deconvolve"
                       else config)
    else:
        cfg.write_text(json.dumps({**MCMC, **config} if command == "deconvolve" else config))
    out = tmp_path / "out"
    ckpt = ["--checkpoint", str(model_dir / "model.json")]
    argv = {
        "deconvolve": _deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                       out, cfg),
        "train": ["train", "--dataset", str(dataset_path)],
        "attribute": ["attribute", *ckpt, "--dataset", str(dataset_path)],
        "diverge": ["diverge", *ckpt, "--dataset", str(dataset_path), "--offline"],
        "report": ["report", *ckpt, "--dataset", str(dataset_path), "--sample", "p01",
                   "--audience", "clinician", "--offline"],
        "simulate": ["simulate"],
        "select-genes": ["select-genes", "--ref", str(sim_dir / "reference.tsv"),
                         "--labels", str(sim_dir / "reference_labels.json")],
    }[command]
    if command != "deconvolve":
        argv += ["--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("nu", [1, 3.5])
def test_bad_nu_exits_before_the_first_sweep(sim_dir, selection_path, tmp_path, capsys,
                                             monkeypatch, nu):
    # nu (at least C + 2 = 4 here) is used only to refine the priors, after a
    # whole round of sampling
    calls = []
    monkeypatch.setattr(engine, "resolve_backend", lambda: lambda *a: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**MCMC, "nu": nu, "rounds": 2}))
    argv = _deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                            tmp_path / "out", cfg)
    assert main(argv) == 1
    assert calls == []
    assert "nu must be >= C + 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_seed_in_config_is_refused_for_the_option(dataset_path, tmp_path, capsys, command):
    # --seed sets the seed; a config "seed" was taken and then overridden
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    argv = ["simulate"] if command == "simulate" else ["train", "--dataset", str(dataset_path)]
    assert main([*argv, "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"unknown config key 'seed' for {command}; pass it as --seed" in err


def test_scenario_lists_of_numbers_are_taken(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SCENARIO, "dirichlet_alpha": [2, 1.5],
                               "sigma_rho_range": [0, 0.5]}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0


def test_config_numbers_and_nulls_of_the_right_kind_are_taken(sim_dir, selection_path,
                                                              tmp_path):
    # an integer is a number; null is taken where the field may be None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**MCMC, "tau": 0, "rhat_threshold": 2, "shrinkage": 1,
                               "burnin": None, "nu": None}))
    assert main(_deconvolve_args(sim_dir, sim_dir / "meta.json", selection_path,
                                 tmp_path / "out", cfg)) == 0


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
        "eval": ["eval", "--estimate", str(tmp_path / "deconvolve" / "cts.tsv"),
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
    # the input files named on each command line; eval names two tensor bases
    model_inputs = [model_dir / "model.json", dataset_path]
    inputs = {
        "simulate": [],
        "select-genes": [sim_dir / "reference.tsv", sim_dir / "reference_labels.json"],
        "deconvolve": [sim_dir / name for name in ("bulk.tsv", "reference.tsv",
                                                   "reference_labels.json", "meta.json")]
                      + [selection_path],
        "train": [dataset_path],
        "eval": [tmp_path / "deconvolve" / "cts_mean.tsv",
                 tmp_path / "deconvolve" / "cts_variance.tsv",
                 sim_dir / "truth_mean.tsv", sim_dir / "truth_variance.tsv"],
        "attribute": model_inputs, "report": model_inputs, "diverge": model_inputs,
    }
    for command, out in dirs.items():
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                      for p in inputs[command]}, command
        assert manifest["outputs"] == sorted(str(p) for p in out.iterdir()
                                             if p.name != "manifest.json"), command
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


@pytest.mark.parametrize("name", ["bulk.tsv", "reference.tsv"])
@pytest.mark.parametrize("repeat", ["row", "column"])
def test_repeated_row_or_column_exits_one_naming_both_lines(sim_dir, selection_path, tmp_path,
                                                            capsys, name, repeat):
    lines = (sim_dir / name).read_text().splitlines()
    if repeat == "row":  # line 5 takes the gene of line 3
        gene = lines[2].split("\t")[0]
        lines[4] = gene + lines[4][lines[4].index("\t"):]
        message = f"error: line 5: duplicate gene ID {gene!r} (first on line 3)"
    else:  # the fourth column takes the name of the second
        fields = lines[0].split("\t")
        fields[3] = fields[1]
        lines[0] = "\t".join(fields)
        message = f"error: line 1: duplicate column {fields[1]!r} (first on line 1)"
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(_reader_argv(name, path, sim_dir, selection_path, tmp_path / "out")) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(_TSV_READERS))
@pytest.mark.parametrize("order", ["written", "shuffled"])
@pytest.mark.parametrize("token", ["nan", "-inf"])
def test_non_finite_value_exits_one_naming_its_line(sim_dir, selection_path, dataset_path,
                                                    tmp_path, capsys, name, order, token):
    """A tensor file in the grid order its writer gives or shuffled, and each
    matrix and the dataset: a value that is not finite names its line."""
    source = dataset_path if name == "dataset.tsv" else sim_dir / name
    lines = source.read_text().splitlines()
    head = _TSV_READERS[name]
    if order == "shuffled":
        rows = lines[head:]
        lines[head:] = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    i = len(lines) - 3
    fields = lines[i].split("\t")
    fields[-2 if name == "dataset.tsv" else -1] = token  # a value, not a label
    lines[i] = "\t".join(fields)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    if name == "truth_mean.tsv":
        (tmp_path / "truth_variance.tsv").write_bytes(
            (sim_dir / "truth_variance.tsv").read_bytes())
    capsys.readouterr()
    assert main(_reader_argv(name, path, sim_dir, selection_path, tmp_path / "out")) == 1
    assert f"error: line {i + 1}: non-finite value" in capsys.readouterr().err


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
        message = "missing from dataset features: 'pval:gA'"
    else:
        save_dataset(Dataset(values=np.hstack([feats.values, feats.values[:, :1]]),
                             names=feats.names + ("cov:bmi",), tags=feats.tags + ("covariate",),
                             sample_ids=feats.sample_ids), labels, path)
        message = "missing from model features: 'cov:bmi'"
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


def test_eval_rejects_a_negative_variance_naming_its_gene(sim_dir, eval_dirs, tmp_path, capsys):
    (tmp_path / "est_mean.tsv").write_bytes((eval_dirs / "est_mean.tsv").read_bytes())
    header, *rows = (eval_dirs / "est_variance.tsv").read_text().splitlines()
    gene, cell_type, sample, _ = rows[-2].split("\t")
    rows[-2] = "\t".join([gene, cell_type, sample, "-0.25"])
    (tmp_path / "est_variance.tsv").write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--estimate", str(tmp_path / "est.tsv"), "--truth",
                 str(sim_dir / "truth.tsv"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: negative variance for gene ID {gene!r}\n"


@pytest.mark.parametrize("change", ["dropped", "foreign", "extra"])
def test_eval_rejects_estimate_with_other_keys(sim_dir, eval_dirs, tmp_path, capsys, change):
    for part in ("mean", "variance"):
        header, *rows = (eval_dirs / f"est_{part}.tsv").read_text().splitlines()
        # every entry of the first gene goes, is renamed to a gene the truth
        # lacks, or is copied to one
        gene = rows[0].split("\t")[0]
        first = [r for r in rows if r.split("\t")[0] == gene]
        foreign = ["gX" + r[len(gene):] for r in first]
        rows = {"dropped": [r for r in rows if r not in first],
                "foreign": foreign + [r for r in rows if r not in first],
                "extra": rows + foreign}[change]
        (tmp_path / f"est_{part}.tsv").write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--estimate", str(tmp_path / "est.tsv"), "--truth",
                 str(sim_dir / "truth.tsv"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert (f"missing from estimate genes: {gene!r}" if change != "extra"
            else f"missing from truth genes: {'gX'!r}") in err
