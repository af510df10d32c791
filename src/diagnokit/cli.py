"""Command-line pipeline with run manifests.

Every subcommand records a manifest (command, config hash, seed, SHA-256
digests of inputs, tool version, output paths) to the output directory before
doing work and finalizes it afterwards, so interrupted runs leave evidence.
The manifest also carries the wall time spent reading inputs, computing and
writing outputs (``timings``).
All outputs are written atomically. Exit codes: 0 success, 1 validation or
usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
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
                 save_json, save_reference, save_sample_meta, write_rows)
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
    error: str | None = None
    timings: dict[str, float] = field(
        default_factory=lambda: {"read_s": 0.0, "compute_s": 0.0, "write_s": 0.0})

    def write(self, out_dir: Path) -> None:
        atomic_write_text(out_dir / "manifest.json",
                          json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


# The --config keys each command reads: the fields of the dataclass it builds
# from the config, plus the keys it reads itself.
CONFIG_KEYS = {
    "simulate": set(SyntheticScenario.__dataclass_fields__),
    "select-genes": {"fdr_threshold", "lfc_threshold", "noise_quantile"},
    "deconvolve": set(RefinementConfig.__dataclass_fields__) | {"shrinkage"},
    "train": set(TrainConfig.__dataclass_fields__),
    "attribute": {"steps", "method"},
    "report": {"top_k", "model"},
    "eval": set(),
    "diverge": {"subset_size", "ood_threshold", "model"},
}


def _load_config(path: str | None, command: str) -> dict:
    if not path:
        return {}
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must be a JSON object")
    known = sorted(CONFIG_KEYS[command])
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        close = difflib.get_close_matches(unknown[0], known, n=1)
        hint = f"did you mean {close[0]!r}?" if close else f"known keys: {known}"
        raise ValidationError(f"unknown config key {unknown[0]!r} for {command}; {hint}")
    return cfg


def _start_manifest(args, inputs: list[str]) -> tuple[RunManifest, Path, dict]:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_config(getattr(args, "config", None), args.command)
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    missing = [p for p in inputs if p and not Path(p).is_file()]
    if missing:
        raise ValidationError(f"input file not found: {missing[0]}")
    manifest = RunManifest(command=args.command, config_hash=config_hash,
                           seed=args.seed, timestamp=time.time(),
                           inputs={p: _sha256(p) for p in inputs if p})
    manifest.write(out_dir)
    args.manifest = manifest  # main marks it failed if the command raises
    return manifest, out_dir, config


@contextmanager
def _stage(manifest: RunManifest, name: str):
    """Add the wall time of the block to ``manifest.timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        manifest.timings[name] += time.perf_counter() - start


def _finish_manifest(manifest: RunManifest, out_dir: Path, outputs: list[Path]) -> None:
    manifest.outputs = sorted(str(p) for p in outputs)
    manifest.status = "ok"
    manifest.write(out_dir)


def _fail_manifest(args, exc: Exception) -> None:
    """Record a failed command in its manifest, if it got as far as one."""
    manifest = getattr(args, "manifest", None)
    if manifest is None:
        return
    manifest.status = "failed"
    manifest.error = f"{type(exc).__name__}: {exc}"
    try:
        manifest.write(Path(args.out))
    except OSError:
        pass  # the command's own error is the one to report


def _pick(config: dict, cls, **overrides):
    """Instantiate a config dataclass from JSON keys it knows about."""
    names = {f for f in cls.__dataclass_fields__}
    kwargs = {k: v for k, v in config.items() if k in names}
    kwargs.update(overrides)
    return cls(**kwargs)


def cmd_simulate(args) -> None:
    manifest, out, config = _start_manifest(args, [])
    scenario = _pick(config, SyntheticScenario, seed=args.seed)
    with _stage(manifest, "compute_s"):
        bundle = generate(scenario)
    outputs = [out / "bulk.tsv", out / "truth_mean.tsv", out / "truth_variance.tsv",
               out / "meta.json", out / "reference.tsv", out / "reference_labels.json"]
    with _stage(manifest, "write_s"):
        save_bulk_matrix(bundle.bulk, out / "bulk.tsv")
        save_cts_tensor(bundle.true_z, out / "truth.tsv")
        save_sample_meta(bundle.metas, bundle.true_z.cell_types, out / "meta.json")
        save_reference(bundle.ref, out / "reference.tsv", out / "reference_labels.json")
    _finish_manifest(manifest, out, outputs)


def cmd_select_genes(args) -> None:
    manifest, out, config = _start_manifest(
        args, [args.ref, args.labels] + ([args.markers] if args.markers else []))
    with _stage(manifest, "read_s"):
        ref = load_reference(args.ref, args.labels)
        markers = load_marker_list(args.markers) if args.markers else set()
    kwargs = {k: config[k] for k in
              ("fdr_threshold", "lfc_threshold", "noise_quantile") if k in config}
    with _stage(manifest, "compute_s"):
        selection = select_pairs(ref, markers, **kwargs)
    with _stage(manifest, "write_s"):
        save_selection(selection, out / "selection.json")
    _finish_manifest(manifest, out, [out / "selection.json"])


def cmd_deconvolve(args) -> None:
    manifest, out, config = _start_manifest(
        args, [args.bulk, args.ref, args.labels, args.meta, args.selection])
    with _stage(manifest, "read_s"):
        bulk = load_bulk_matrix(args.bulk)
        ref = load_reference(args.ref, args.labels)
        metas = load_sample_meta(args.meta, ref.cell_types)
        selection = load_selection(args.selection)
    rc = _pick(config, RefinementConfig)
    shrinkage = float(config.get("shrinkage", 0.5))
    with _stage(manifest, "compute_s"):
        summary = deconvolve(bulk, ref, selection, metas, rc, seed=args.seed,
                             shrinkage=shrinkage)
    finite = summary.rhat[np.isfinite(summary.rhat)]
    diagnostics = {
        "converged": bool(summary.converged),
        "max_rhat": float(finite.max()) if finite.size else None,
        "rhat_threshold": rc.rhat_threshold,
        "estimated_pairs": int(summary.estimated.sum()),
        "median_noise_var": float(np.median(summary.noise_hat)),
        "rescues": summary.rescues,
    }
    with _stage(manifest, "write_s"):
        save_cts_tensor(summary.cts, out / "cts.tsv")
        save_json(diagnostics, out / "diagnostics.json")
    if not summary.converged:
        # the data files are still written and the exit code stays 0
        print(f"warning: MCMC did not converge: max R-hat {diagnostics['max_rhat']}, "
              f"threshold {rc.rhat_threshold}", file=sys.stderr)
    _finish_manifest(manifest, out, [out / "cts_mean.tsv", out / "cts_variance.tsv",
                                     out / "diagnostics.json"])


def cmd_train(args) -> None:
    manifest, out, config = _start_manifest(args, [args.dataset])
    with _stage(manifest, "read_s"):
        dataset, labels = load_dataset(args.dataset)
    tc = _pick(config, TrainConfig, seed=args.seed)
    with _stage(manifest, "compute_s"):
        result = train(dataset, labels, tc)
    with _stage(manifest, "write_s"):
        save_model(result, out / "model.json")
        save_json({"log": result.log, "dropped_features": list(result.dropped_features)},
                  out / "train_log.json")
    _finish_manifest(manifest, out, [out / "model.json", out / "train_log.json"])


def _load_for_model(path, model):
    """The dataset at ``path`` and its labels, its features joined to the
    model's by name and put in the model's order."""
    dataset, labels = load_dataset(path)
    known = set(model.feature_names)
    extra = [n for n in dataset.names if n not in known]
    if extra:
        raise ValidationError(f"dataset feature {extra[0]!r} is not in the model")
    return dataset.take(model.feature_names), labels


def cmd_attribute(args) -> None:
    manifest, out, config = _start_manifest(args, [args.checkpoint, args.dataset])
    with _stage(manifest, "read_s"):
        model = load_model(args.checkpoint)
        dataset, _ = _load_for_model(args.dataset, model)
    steps = int(config.get("steps", 200))
    method = config.get("method", "exact")
    with _stage(manifest, "compute_s"):
        attrs = integrated_gradients(model, dataset.values, steps=steps, method=method)
    with _stage(manifest, "write_s"):
        write_rows(out / "attributions.tsv", [(["sample"], model.feature_names, [])],
                   dataset.sample_ids, attrs)
    _finish_manifest(manifest, out, [out / "attributions.tsv"])


def _population_stats(dataset, labels) -> dict[str, tuple[float, float, float]]:
    x = dataset.values
    y = np.asarray(labels)
    zeros = np.zeros(x.shape[1])
    mean_ad = x[y == 1].mean(axis=0) if (y == 1).any() else zeros
    mean_non = x[y == 0].mean(axis=0) if (y == 0).any() else zeros
    sd = x.std(axis=0, ddof=0)
    # rounding in std can leave a column of equal values with sd ~1e-17
    sd[np.ptp(x, axis=0) == 0] = 1.0
    return {name: (float(a), float(b), float(s))
            for name, a, b, s in zip(dataset.names, mean_ad, mean_non, sd)}


def cmd_report(args) -> None:
    manifest, out, config = _start_manifest(
        args, [args.checkpoint, args.dataset]
        + ([args.knowledge] if args.knowledge else []))
    with _stage(manifest, "read_s"):
        model = load_model(args.checkpoint)
        dataset, labels = _load_for_model(args.dataset, model)
        if args.sample not in dataset.sample_ids:
            raise ValidationError(f"sample {args.sample!r} not in dataset")
        knowledge = load_knowledge(args.knowledge) if args.knowledge else {}
    with _stage(manifest, "compute_s"):
        x = dataset.values[dataset.sample_ids.index(args.sample)]
        prob = forward(model, x)
        attr = integrated_gradients(model, x)
        k = min(int(config.get("top_k", 5)), len(dataset.names))
        top = top_k_features(attr, dataset.names, x, k=k)
        strategy = args.strategy
        stats = _population_stats(dataset, labels) if strategy != "direct" else None
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
    with _stage(manifest, "write_s"):
        save_json(report_to_json(report), out / "report.json")
        atomic_write_text(out / "report.md", render_markdown(report))
    _finish_manifest(manifest, out, [out / "report.json", out / "report.md"])


def cmd_eval(args) -> None:
    from .io import _tensor_paths
    est_paths = [str(p) for p in _tensor_paths(args.estimate)]
    truth_paths = [str(p) for p in _tensor_paths(args.truth)]
    manifest, out, _config = _start_manifest(args, est_paths + truth_paths)
    with _stage(manifest, "read_s"):
        estimate = load_cts_tensor(args.estimate)
        truth = load_cts_tensor(args.truth)
    with _stage(manifest, "compute_s"):
        report = evaluate_recovery(estimate, truth)
    with _stage(manifest, "write_s"):
        save_json(report.summary(), out / "recovery.json")
    _finish_manifest(manifest, out, [out / "recovery.json"])


def cmd_diverge(args) -> None:
    manifest, out, config = _start_manifest(args, [args.checkpoint, args.dataset])
    with _stage(manifest, "read_s"):
        model = load_model(args.checkpoint)
        dataset, labels = _load_for_model(args.dataset, model)
    size = int(config.get("subset_size", DEFAULT_SUBSET_SIZE))
    threshold = float(config.get("ood_threshold", 1.0))
    with _stage(manifest, "compute_s"):
        mean = np.zeros(model.kept.size)
        sd = np.ones(model.kept.size)
        mean[model.kept] = model.mean
        sd[model.kept] = model.sd
        subsets = {
            "symbolic-conflict": symbolic_conflict_subset(dataset, labels, size),
            "ood": ood_subset(dataset, mean, sd, size=size, threshold=threshold),
        }
        client = None
        if not args.offline and os.environ.get("DIAGNO_LLM_URL"):
            client = LlmClient.from_env(model=config.get("model", "gpt-4o-mini"))
        reports = run_divergence(model, dataset, labels, subsets, client)
    with _stage(manifest, "write_s"):
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
        _fail_manifest(args, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        _fail_manifest(args, exc)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
