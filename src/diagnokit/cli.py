"""Command-line pipeline with run manifests.

Every subcommand records a manifest (command, config hash, seed, SHA-256
digests of inputs, tool version, output paths) to the output directory before
doing work and finalizes it afterwards, so interrupted runs leave evidence.
All outputs are written atomically. Exit codes: 0 success, 1 validation or
usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import (TrainConfig, forward, integrated_gradients, load_dataset,
                         load_model, save_model, top_k_features, train)
from .divergence import (DEFAULT_SUBSET_SIZE, ood_subset, run_divergence,
                         reports_markdown, save_reports, symbolic_conflict_subset)
from .engine import deconvolve
from .errors import DiagnokitError, ValidationError
from .geneselect import load_marker_list, select_pairs, save_selection, load_selection
from .io import (atomic_write_text, load_bulk_matrix, load_cts_tensor, load_json,
                 load_reference, load_sample_meta, save_bulk_matrix, save_cts_tensor,
                 save_json, save_reference, save_sample_meta)
from .report import (FeatureReading, LlmClient, PromptInput, generate_report,
                     load_knowledge, render_markdown, report_to_json)
from .simulate import SyntheticScenario, evaluate_recovery, generate
from .types import RefinementConfig


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seed: int
    inputs: dict[str, str] = field(default_factory=dict)
    tool_version: str = __version__
    timestamp: float = 0.0
    outputs: list[str] = field(default_factory=list)
    status: str = "running"

    def write(self, out_dir: Path) -> None:
        atomic_write_text(out_dir / "manifest.json",
                          json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must be a JSON object")
    return cfg


def _start_manifest(args, inputs: list[str]) -> tuple[RunManifest, Path, dict]:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_config(getattr(args, "config", None))
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    missing = [p for p in inputs if p and not Path(p).is_file()]
    if missing:
        raise ValidationError(f"input file not found: {missing[0]}")
    manifest = RunManifest(command=args.command, config_hash=config_hash,
                           seed=args.seed, timestamp=time.time(),
                           inputs={p: _sha256(p) for p in inputs if p})
    manifest.write(out_dir)
    return manifest, out_dir, config

def _finish_manifest(manifest: RunManifest, out_dir: Path, outputs: list[Path]) -> None:
    manifest.outputs = sorted(str(p) for p in outputs)
    manifest.status = "ok"
    manifest.write(out_dir)


def _pick(config: dict, cls, **overrides):
    """Instantiate a config dataclass from JSON keys it knows about."""
    names = {f for f in cls.__dataclass_fields__}
    kwargs = {k: v for k, v in config.items() if k in names}
    kwargs.update(overrides)
    return cls(**kwargs)


def cmd_simulate(args) -> None:
    manifest, out, config = _start_manifest(args, [])
    scenario = _pick(config, SyntheticScenario, seed=args.seed)
    bundle = generate(scenario)
    outputs = [out / "bulk.tsv", out / "truth_mean.tsv", out / "truth_variance.tsv",
               out / "meta.json", out / "reference.tsv", out / "reference_labels.json"]
    save_bulk_matrix(bundle.bulk, out / "bulk.tsv")
    save_cts_tensor(bundle.true_z, out / "truth.tsv")
    save_sample_meta(bundle.metas, bundle.true_z.cell_types, out / "meta.json")
    save_reference(bundle.ref, out / "reference.tsv", out / "reference_labels.json")
    _finish_manifest(manifest, out, outputs)


def cmd_select_genes(args) -> None:
    manifest, out, config = _start_manifest(
        args, [args.ref, args.labels] + ([args.markers] if args.markers else []))
    ref = load_reference(args.ref, args.labels)
    markers = load_marker_list(args.markers) if args.markers else set()
    kwargs = {k: config[k] for k in
              ("fdr_threshold", "lfc_threshold", "noise_quantile") if k in config}
    selection = select_pairs(ref, markers, **kwargs)
    save_selection(selection, out / "selection.json")
    _finish_manifest(manifest, out, [out / "selection.json"])


def cmd_deconvolve(args) -> None:
    manifest, out, config = _start_manifest(
        args, [args.bulk, args.ref, args.labels, args.meta, args.selection])
    bulk = load_bulk_matrix(args.bulk)
    ref = load_reference(args.ref, args.labels)
    metas = load_sample_meta(args.meta, ref.cell_types)
    selection = load_selection(args.selection)
    rc = _pick(config, RefinementConfig)
    shrinkage = float(config.get("shrinkage", 0.5))
    summary = deconvolve(bulk, ref, selection, metas, rc, seed=args.seed,
                         shrinkage=shrinkage)
    save_cts_tensor(summary.cts, out / "cts.tsv")
    finite = summary.rhat[np.isfinite(summary.rhat)]
    diagnostics = {
        "converged": bool(summary.converged),
        "max_rhat": float(finite.max()) if finite.size else None,
        "rhat_threshold": rc.rhat_threshold,
        "estimated_pairs": int(summary.estimated.sum()),
        "median_noise_var": float(np.median(summary.noise_hat)),
    }
    save_json(diagnostics, out / "diagnostics.json")
    _finish_manifest(manifest, out, [out / "cts_mean.tsv", out / "cts_variance.tsv",
                                     out / "diagnostics.json"])


def cmd_train(args) -> None:
    manifest, out, config = _start_manifest(args, [args.dataset])
    features, labels = load_dataset(args.dataset)
    tc = _pick(config, TrainConfig, seed=args.seed)
    result = train(features, labels, tc)
    save_model(result, out / "model.json")
    save_json({"log": result.log, "dropped_features": list(result.dropped_features)},
              out / "train_log.json")
    _finish_manifest(manifest, out, [out / "model.json", out / "train_log.json"])


def cmd_attribute(args) -> None:
    manifest, out, config = _start_manifest(args, [args.checkpoint, args.dataset])
    model = load_model(args.checkpoint)
    features, _ = load_dataset(args.dataset)
    steps = int(config.get("steps", 200))
    method = config.get("method", "exact")
    from .io import _fmt
    lines = ["sample\t" + "\t".join(model.feature_names)]
    for f in features:
        attr = integrated_gradients(model, f, steps=steps, method=method)
        lines.append(f.sample_id + "\t" + "\t".join(_fmt(v) for v in attr))
    atomic_write_text(out / "attributions.tsv", "\n".join(lines) + "\n")
    _finish_manifest(manifest, out, [out / "attributions.tsv"])


def _population_stats(features, labels) -> dict[str, tuple[float, float, float]]:
    x = np.stack([f.values for f in features])
    y = np.asarray(labels)
    stats = {}
    for j, name in enumerate(features[0].names):
        col = x[:, j]
        mean_ad = float(col[y == 1].mean()) if (y == 1).any() else 0.0
        mean_non = float(col[y == 0].mean()) if (y == 0).any() else 0.0
        stats[name] = (mean_ad, mean_non, float(col.std(ddof=0)) or 1.0)
    return stats


def cmd_report(args) -> None:
    manifest, out, config = _start_manifest(
        args, [args.checkpoint, args.dataset]
        + ([args.knowledge] if args.knowledge else []))
    model = load_model(args.checkpoint)
    features, labels = load_dataset(args.dataset)
    by_id = {f.sample_id: f for f in features}
    if args.sample not in by_id:
        raise ValidationError(f"sample {args.sample!r} not in dataset")
    f = by_id[args.sample]
    prob = forward(model, f)
    attr = integrated_gradients(model, f)
    k = min(int(config.get("top_k", 5)), f.dim)
    top = top_k_features(attr, f.names, f.values, k=k)
    strategy = args.strategy
    knowledge = load_knowledge(args.knowledge) if args.knowledge else {}
    stats = _population_stats(features, labels) if strategy != "direct" else None
    inp = PromptInput(predicted_label="AD" if prob >= 0.5 else "nonAD",
                      probability=prob,
                      top_features=tuple(FeatureReading(name=n, value=v, attribution=a)
                                         for n, v, a in top),
                      audience=args.audience, strategy=strategy,
                      domain_knowledge=knowledge, population_stats=stats)
    client = None
    if not args.offline and os.environ.get("DIAGNO_LLM_URL"):
        client = LlmClient.from_env(model=config.get("model", "gpt-4o-mini"))
    report = generate_report(inp, client)
    save_json(report_to_json(report), out / "report.json")
    atomic_write_text(out / "report.md", render_markdown(report))
    _finish_manifest(manifest, out, [out / "report.json", out / "report.md"])


def cmd_eval(args) -> None:
    from .io import _tensor_paths
    est_paths = [str(p) for p in _tensor_paths(args.estimate)]
    truth_paths = [str(p) for p in _tensor_paths(args.truth)]
    manifest, out, _config = _start_manifest(args, est_paths + truth_paths)
    estimate = load_cts_tensor(args.estimate)
    truth = load_cts_tensor(args.truth)
    report = evaluate_recovery(estimate, truth)
    save_json(report.summary(), out / "recovery.json")
    _finish_manifest(manifest, out, [out / "recovery.json"])


def cmd_diverge(args) -> None:
    manifest, out, config = _start_manifest(args, [args.checkpoint, args.dataset])
    model = load_model(args.checkpoint)
    features, labels = load_dataset(args.dataset)
    size = int(config.get("subset_size", DEFAULT_SUBSET_SIZE))
    threshold = float(config.get("ood_threshold", 1.0))
    mean = np.zeros(model.kept.size)
    sd = np.ones(model.kept.size)
    mean[model.kept] = model.mean
    sd[model.kept] = model.sd
    subsets = {
        "symbolic-conflict": symbolic_conflict_subset(features, labels, size),
        "ood": ood_subset(features, mean, sd, size=size, threshold=threshold),
    }
    client = None
    if not args.offline and os.environ.get("DIAGNO_LLM_URL"):
        client = LlmClient.from_env(model=config.get("model", "gpt-4o-mini"))
    reports = run_divergence(model, features, labels, subsets, client)
    save_reports(reports, out / "divergence.json")
    atomic_write_text(out / "divergence.md", reports_markdown(reports))
    _finish_manifest(manifest, out, [out / "divergence.json", out / "divergence.md"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagnokit",
        description="Cell-type deconvolution and interpretable-diagnosis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="currently has no effect")

    p = sub.add_parser("simulate", help="generate a synthetic ground-truth bundle")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select-genes", help="tripartite gene/cell-type selection")
    common(p)
    p.add_argument("--ref", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--markers")
    p.set_defaults(func=cmd_select_genes)

    p = sub.add_parser("deconvolve", help="recover cell-type-specific expression")
    common(p)
    p.add_argument("--bulk", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--selection", required=True)
    p.set_defaults(func=cmd_deconvolve)

    p = sub.add_parser("train", help="train the MLP classifier")
    common(p)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="Integrated Gradients attributions")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("report", help="render a diagnostic report")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--audience", choices=["clinician", "patient"], required=True)
    p.add_argument("--strategy", choices=["direct", "step", "step-domain"],
                   default="direct")
    p.add_argument("--knowledge")
    p.add_argument("--offline", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="score an estimate against ground truth")
    common(p)
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diverge", help="build divergence subsets and score them")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--offline", action="store_true")
    p.set_defaults(func=cmd_diverge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 1
        return 0 if exc.code in (0, None) else 1
    try:
        args.func(args)
    except DiagnokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
