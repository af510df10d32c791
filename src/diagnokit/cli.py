"""Command-line pipeline with run manifests.

``COMMANDS`` declares each subcommand once (handler, help line, input files),
and the parser is built from it. One function, ``_run``, writes every run's
manifest (command, config hash, seed, SHA-256 digests of exactly those inputs,
tool version, output paths, and the wall time spent reading inputs, computing
and writing outputs as ``timings``): ``running`` before the handler starts,
then ``ok``, or ``failed`` with the error, also when Ctrl-C stops the run.
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
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import (TrainConfig, integrated_gradients, load_dataset, load_model,
                         save_model, train)
from .divergence import (DEFAULT_SUBSET_SIZE, OOD_THRESHOLD, ood_subset, run_divergence,
                         reports_markdown, save_reports, symbolic_conflict_subset)
from .engine import deconvolve
from .errors import DiagnokitError, ValidationError
from .geneselect import (EXACT_ENUMERATION_MAX_N, load_marker_list, load_selection,
                         save_selection, select_pairs)
from .io import (_is_number, _tensor_paths, atomic_write_text, load_bulk_matrix,
                 load_cts_tensor, load_json, load_reference, load_sample_meta, save_bulk_matrix,
                 save_cts_tensor, save_json, save_reference, save_sample_meta, write_rows)
from .reference import DEFAULT_SHRINKAGE
from .report import (AUDIENCES, DEFAULT_MODEL, STRATEGIES, LlmClient, generate_report,
                     load_knowledge, prompt_input, render_markdown, report_to_json)
from .simulate import SyntheticScenario, evaluate_recovery, generate
from .types import RefinementConfig, _first_five, _positions


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
        save_json(asdict(self), out_dir / "manifest.json")


def _kinds(cls) -> dict[str, str]:
    """Each field of a config dataclass and its annotation, except ``seed``,
    which comes from ``--seed``."""
    return {f.name: f.type for f in fields(cls) if f.name != "seed"}


# The --config keys each command reads, each with the kind of value it takes:
# the fields of the dataclass the command builds from the config, annotated,
# plus the keys it reads itself, with the kind its reader converts to.
CONFIG_KEYS = {
    "simulate": _kinds(SyntheticScenario),
    "select-genes": dict.fromkeys(("fdr_threshold", "lfc_threshold", "noise_quantile"),
                                  "float"),
    "deconvolve": {**_kinds(RefinementConfig), "shrinkage": "float"},
    "train": _kinds(TrainConfig),
    "attribute": {},
    "report": {"top_k": "int", "model": "str"},
    "eval": {},
    "diverge": {"subset_size": "int", "ood_threshold": "float", "model": "str"},
}


# The test each kind of config value passes, and its name in an error. A
# number passes ``io._is_number``: bools, JSON's NaN and Infinity and
# integers too large for a float are not numbers. A tuple is a JSON list.
_JSON_KINDS = {
    "int": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                          "a list of finite numbers"),
    "tuple[float, float]": (lambda v: isinstance(v, list) and len(v) == 2
                            and all(map(_is_number, v)), "a list of two finite numbers"),
}


def _check_kind(command: str, key: str, value, kind: str) -> None:
    """Raise a ``ValidationError`` naming ``key`` unless ``value`` is of ``kind``
    (an annotation such as ``int`` or ``float | None``)."""
    first, *rest = kind.split(" | ")
    if value is None and "None" in rest:
        return
    test, name = _JSON_KINDS[first]
    if not test(value):
        raise ValidationError(f"config key {key!r} for {command} must be {name}, "
                              f"got {json.dumps(value)}")


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
        hint = ("pass it as --seed" if unknown[0] == "seed" else
                f"did you mean {close[0]!r}?" if close else f"known keys: {known}")
        raise ValidationError(f"unknown config key {unknown[0]!r} for {command}; {hint}")
    for key, value in cfg.items():
        _check_kind(command, key, value, CONFIG_KEYS[command][key])
    return cfg


@contextmanager
def _stage(manifest: RunManifest, name: str):
    """Add the wall time of the block to ``manifest.timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        manifest.timings[name] += time.perf_counter() - start


def _pick(config: dict, cls, **overrides):
    """Instantiate a config dataclass from JSON keys it knows about."""
    return cls(**{k: v for k, v in config.items() if k in cls.__dataclass_fields__},
               **overrides)


def cmd_simulate(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    scenario = _pick(config, SyntheticScenario, seed=args.seed)
    with _stage(manifest, "compute_s"):
        bundle = generate(scenario)
    with _stage(manifest, "write_s"):
        save_bulk_matrix(bundle.bulk, out / "bulk.tsv")
        save_cts_tensor(bundle.true_z, out / "truth.tsv")
        save_sample_meta(bundle.metas, out / "meta.json")
        save_reference(bundle.ref, out / "reference.tsv", out / "reference_labels.json")
    return [out / "bulk.tsv", *_tensor_paths(out / "truth.tsv"), out / "meta.json",
            out / "reference.tsv", out / "reference_labels.json"]


def cmd_select_genes(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    with _stage(manifest, "read_s"):
        ref = load_reference(args.ref, args.labels)
        markers = load_marker_list(args.markers) if args.markers else set()
    with _stage(manifest, "compute_s"):
        selection = select_pairs(ref, markers, **config)
    with _stage(manifest, "write_s"):
        save_selection(selection, out / "selection.json")
    if unknown := sorted(markers - selection.pairs):  # a marker the reference has survives
        print("warning: dropped the markers that name a gene or cell type the reference "
              f"lacks: {_first_five(unknown)}", file=sys.stderr)
    if not selection.pairs:
        hint = (f"; a reference of at most {EXACT_ENUMERATION_MAX_N} cells gets exact "
                "rank-sum p-values, which after Benjamini-Hochberg can stay above "
                "fdr_threshold (0.01 by default)" if len(ref.cells) <= EXACT_ENUMERATION_MAX_N
                else "")
        print(f"warning: no (gene, cell type) pair was selected{hint}", file=sys.stderr)
    return [out / "selection.json"]


def cmd_deconvolve(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    with _stage(manifest, "read_s"):
        bulk = load_bulk_matrix(args.bulk)
        ref = load_reference(args.ref, args.labels)
        metas = load_sample_meta(args.meta)
        selection = load_selection(args.selection)
    rc = _pick(config, RefinementConfig)
    shrinkage = float(config.get("shrinkage", DEFAULT_SHRINKAGE))
    with _stage(manifest, "compute_s"):
        summary = deconvolve(bulk, ref, selection, metas, rc, seed=args.seed,
                             shrinkage=shrinkage)
    rhat = summary.rhat[summary.estimated]  # the pairs written from the sampler
    finite = rhat[np.isfinite(rhat)]
    diagnostics = {
        "converged": bool((rhat < rc.rhat_threshold).all()),
        "max_rhat": float(finite.max()) if finite.size else None,
        "rhat_threshold": rc.rhat_threshold,
        "estimated_pairs": int(summary.estimated.sum()),
        "median_noise_var": float(np.median(summary.noise_hat)),
        "rescues": summary.rescues,
    }
    with _stage(manifest, "write_s"):
        save_cts_tensor(summary.cts, out / "cts.tsv")
        save_json(diagnostics, out / "diagnostics.json")
    if not diagnostics["converged"]:
        # the data files are still written and the exit code stays 0
        why = (f"max R-hat {diagnostics['max_rhat']}, threshold {rc.rhat_threshold}"
               if finite.size else "R-hat is undefined for every selected pair (split "
               "R-hat needs at least 4 kept draws per chain; this run keeps "
               f"{rc.iters - rc.burnin})")
        print(f"warning: MCMC did not converge: {why}", file=sys.stderr)
    if not diagnostics["estimated_pairs"]:
        print("warning: the selection holds no pair, so nothing was sampled and "
              "cts.tsv holds the reference priors", file=sys.stderr)
    return [*_tensor_paths(out / "cts.tsv"), out / "diagnostics.json"]


def cmd_train(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    with _stage(manifest, "read_s"):
        dataset, labels = load_dataset(args.dataset)
    tc = _pick(config, TrainConfig, seed=args.seed)
    with _stage(manifest, "compute_s"):
        result = train(dataset, labels, tc)
    with _stage(manifest, "write_s"):
        save_model(result, out / "model.json")
        save_json({"log": result.log, "dropped_features": list(result.dropped_features)},
                  out / "train_log.json")
    return [out / "model.json", out / "train_log.json"]


def _load_for_model(path, model):
    """The dataset at ``path`` and its labels, its features joined to the
    model's by name and put in the model's order."""
    dataset, labels = load_dataset(path)
    return dataset.take(model.feature_names, "model features"), labels


def cmd_attribute(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    with _stage(manifest, "read_s"):
        model = load_model(args.checkpoint)
        dataset, _ = _load_for_model(args.dataset, model)
    with _stage(manifest, "compute_s"):
        attrs = integrated_gradients(model, dataset.values)
    with _stage(manifest, "write_s"):
        write_rows(out / "attributions.tsv", [(["sample"], model.feature_names, [])],
                   [dataset.sample_ids], attrs)
    return [out / "attributions.tsv"]


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


def _llm_client(args, config: dict) -> LlmClient | None:
    """The LLM client for ``report`` and ``diverge``, the one reader of the
    environment: None under ``--offline`` or when ``DIAGNO_LLM_URL`` is unset."""
    url = os.environ.get("DIAGNO_LLM_URL")
    if args.offline or not url:
        return None
    return LlmClient(url, os.environ.get("DIAGNO_LLM_KEY", ""),
                     model=config.get("model", DEFAULT_MODEL))


def cmd_report(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    if config.get("top_k", 1) < 1:
        raise ValidationError("config key 'top_k' for report must be at least 1, "
                              f"got {config['top_k']}")
    with _stage(manifest, "read_s"):
        model = load_model(args.checkpoint)
        dataset, labels = _load_for_model(args.dataset, model)
        x = dataset.values[_positions(dataset.sample_ids, [args.sample], "dataset samples")[0]]
        knowledge = load_knowledge(args.knowledge) if args.knowledge else {}
    with _stage(manifest, "compute_s"):
        stats = _population_stats(dataset, labels) if args.strategy != "direct" else None
        top_k = {"k": config["top_k"]} if "top_k" in config else {}
        inp = prompt_input(model, x, dataset.names, args.audience, args.strategy,
                           domain_knowledge=knowledge, population_stats=stats, **top_k)
        report = generate_report(inp, _llm_client(args, config))
    with _stage(manifest, "write_s"):
        save_json(report_to_json(report), out / "report.json")
        atomic_write_text(out / "report.md", render_markdown(report))
    return [out / "report.json", out / "report.md"]


def cmd_eval(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    with _stage(manifest, "read_s"):
        estimate = load_cts_tensor(args.estimate)
        truth = load_cts_tensor(args.truth)
    with _stage(manifest, "compute_s"):
        report = evaluate_recovery(estimate, truth)
    with _stage(manifest, "write_s"):
        save_json(report.summary(), out / "recovery.json")
    return [out / "recovery.json"]


def cmd_diverge(args, out: Path, config: dict, manifest: RunManifest) -> list[Path]:
    with _stage(manifest, "read_s"):
        model = load_model(args.checkpoint)
        dataset, labels = _load_for_model(args.dataset, model)
    size = config.get("subset_size", DEFAULT_SUBSET_SIZE)
    threshold = float(config.get("ood_threshold", OOD_THRESHOLD))
    with _stage(manifest, "compute_s"):
        kept = dataset.take(np.array(model.feature_names)[model.kept].tolist())
        subsets = {  # every candidate; run_divergence keeps the first `size` of each
            "symbolic-conflict": symbolic_conflict_subset(dataset, labels),
            "ood": ood_subset(kept, model.mean, model.sd, threshold=threshold),
        }
        reports = run_divergence(model, dataset, labels, subsets, _llm_client(args, config),
                                 size)
    with _stage(manifest, "write_s"):
        save_reports(reports, out / "divergence.json")
        atomic_write_text(out / "divergence.md", reports_markdown(reports))
    for r, n in zip(reports, [(labels == 1).sum(), len(labels)]):  # AD-labelled, then all
        if r.candidates == n:
            print(f"warning: the {r.subset_name} rule selects all {n} eligible samples; "
                  f"the subset holds the first {r.subset_size}", file=sys.stderr)
    return [out / "divergence.json", out / "divergence.md"]


@dataclass(frozen=True)
class Command:
    """A subcommand: its handler, help line, required and optional input files,
    tensor bases (whose ``_mean`` and ``_variance`` files are the inputs) and
    other options. The manifest hashes exactly these input files."""

    handler: Callable[..., list[Path]]
    help: str
    inputs: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    tensors: tuple[str, ...] = ()
    options: dict[str, dict] = field(default_factory=dict)


_OFFLINE = {"--offline": {"action": "store_true"}}
COMMANDS = {
    "simulate": Command(cmd_simulate, "generate a synthetic ground-truth bundle"),
    "select-genes": Command(cmd_select_genes, "tripartite gene/cell-type selection",
                            ("ref", "labels"), ("markers",)),
    "deconvolve": Command(cmd_deconvolve, "recover cell-type-specific expression",
                          ("bulk", "ref", "labels", "meta", "selection")),
    "train": Command(cmd_train, "train the MLP classifier", ("dataset",)),
    "attribute": Command(cmd_attribute, "Integrated Gradients attributions",
                         ("checkpoint", "dataset")),
    "report": Command(cmd_report, "render a diagnostic report", ("checkpoint", "dataset"),
                      ("knowledge",), options={
                          "--sample": {"required": True},
                          "--audience": {"choices": AUDIENCES, "required": True},
                          "--strategy": {"choices": STRATEGIES, "default": "direct"},
                          **_OFFLINE}),
    "eval": Command(cmd_eval, "score an estimate against ground truth",
                    tensors=("estimate", "truth")),
    "diverge": Command(cmd_diverge, "build divergence subsets and score them",
                       ("checkpoint", "dataset"), options=_OFFLINE),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagnokit",
        description="Cell-type deconvolution and interpretable-diagnosis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="currently has no effect")
        for option in command.inputs + command.tensors + command.optional:
            p.add_argument(f"--{option}", required=option not in command.optional)
        for flag, kwargs in command.options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _run(args) -> None:
    """Run ``args.command`` under its manifest and re-raise whatever stops it.
    A bad config or a missing input raises before any manifest is written."""
    command = COMMANDS[args.command]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = _load_config(args.config, args.command)
    inputs = [p for p in map(vars(args).get, command.inputs + command.optional) if p]
    inputs += [str(p) for name in command.tensors for p in _tensor_paths(vars(args)[name])]
    missing = [p for p in inputs if not Path(p).is_file()]
    if missing:
        raise ValidationError(f"input file not found: {missing[0]}")
    manifest = RunManifest(
        command=args.command, seed=args.seed, timestamp=time.time(),
        config_hash=hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        inputs={p: _sha256(p) for p in inputs})
    manifest.write(out)
    try:
        manifest.outputs = sorted(str(p) for p in command.handler(args, out, config, manifest))
        manifest.status = "ok"
        manifest.write(out)
    except BaseException as exc:
        manifest.status = "failed"
        manifest.error = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        with suppress(OSError):  # the command's own error is the one to report
            manifest.write(out)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 1
        return 0 if exc.code in (0, None) else 1
    try:
        _run(args)
    except DiagnokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
