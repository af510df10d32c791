"""Diagnostic subset construction and MLP-vs-LLM divergence tabulation.

Two subset builders isolate regimes where a feature-reading heuristic and the
trained MLP disagree: symbolic-conflict (AD-labeled samples carrying a
negative eQTL effect size) and out-of-distribution (any feature beyond a
z-score threshold of the training mean). The runner scores the MLP on each
subset and, when a client is available, scores LLM decisions through the
report prompts; offline runs omit the LLM column.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import Dataset, MlpModel, _probability
from .errors import ValidationError
from .io import atomic_write_text
from .report import (DECISION_THRESHOLD, LlmClient, build_prompt, parse_llm_decision,
                     prompt_input)

DEFAULT_SUBSET_SIZE = 100
OOD_THRESHOLD = 1.0  # z-score units


@dataclass(frozen=True)
class DivergenceReport:
    """Per-subset accuracies and the per-sample case table; ``candidates`` is
    how many samples qualified before the size cap."""

    subset_name: str
    subset_size: int
    candidates: int
    mlp_accuracy: float
    llm_accuracy: float | None = None
    case_table: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 < self.subset_size <= self.candidates:
            raise ValidationError("subset_size must be positive and at most candidates")
        for acc in (self.mlp_accuracy, self.llm_accuracy):
            if acc is not None and not 0.0 <= acc <= 1.0:
                raise ValidationError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "case_table", tuple(self.case_table))


def _negative_beta(dataset: Dataset) -> np.ndarray:
    """Per sample: does any eqtl_beta-tagged feature read below zero?"""
    beta = np.array([t == "eqtl_beta" for t in dataset.tags])
    if not beta.any():
        raise ValidationError("dataset has no eqtl_beta-tagged features")
    return (dataset.values[:, beta] < 0).any(axis=1)


def symbolic_conflict_subset(dataset: Dataset, labels, size: int | None = None) -> list[int]:
    """Indices of the AD-labeled samples with any negative BETA, the first
    ``size`` of them when given (all by default).

    Order follows the dataset. Raises when no sample qualifies.
    """
    y = np.asarray(labels)
    if len(dataset.sample_ids) != y.size:
        raise ValidationError("features and labels must have equal length")
    if size is not None and size < 1:
        raise ValidationError("size must be positive")
    out = np.flatnonzero((y == 1) & _negative_beta(dataset))[:size]
    if not out.size:
        raise ValidationError("symbolic-conflict subset is empty")
    return out.tolist()


def ood_subset(dataset: Dataset, train_mean, train_sd,
               size: int | None = None,
               threshold: float = OOD_THRESHOLD) -> list[int]:
    """Indices of samples with any feature beyond ``threshold`` training sds,
    the first ``size`` of them when given (all by default)."""
    mean = np.asarray(train_mean, dtype=np.float64)
    sd = np.asarray(train_sd, dtype=np.float64)
    if not dataset.sample_ids:
        raise ValidationError("empty dataset")
    d = len(dataset.names)
    if mean.shape != (d,) or sd.shape != (d,):
        raise ValidationError("train stats must cover every feature")
    if (sd <= 0).any():
        raise ValidationError("train sds must be positive")
    far = (np.abs(dataset.values - mean) / sd).max(axis=1) > threshold
    out = np.flatnonzero(far)[:size]
    if not out.size:
        raise ValidationError("OOD subset is empty")
    return out.tolist()


def _llm_decision(client: LlmClient, model: MlpModel, x: np.ndarray,
                  names: tuple[str, ...]) -> int | None:
    inp = prompt_input(model, x, names, "clinician")
    try:
        decision = parse_llm_decision(client.complete(build_prompt(inp)))
    except Exception:
        return None
    if decision is None:
        return None
    return 1 if decision == "AD" else 0


def run_divergence(model: MlpModel, dataset: Dataset, labels,
                   subsets: dict[str, list[int]],
                   client: LlmClient | None = None,
                   size: int | None = None) -> list[DivergenceReport]:
    """Score the MLP (and optionally an LLM) on the first ``size`` members
    (all when None) of each named subset of candidates."""
    y = np.asarray(labels)
    if not subsets:
        raise ValidationError("no subsets provided")
    if size is not None and size < 1:
        raise ValidationError("size must be positive")
    mlp_pred = (_probability(model, dataset.values) >= DECISION_THRESHOLD).astype(int)
    reports = []
    for name, candidates in subsets.items():
        idx = candidates[:size]
        if not idx:
            raise ValidationError(f"subset {name!r} is empty")
        rows = []
        llm_hits = 0
        llm_total = 0
        for i in idx:
            x = dataset.values[i]
            row = {"sample": dataset.sample_ids[i] or str(i),
                   "features": {n: float(v) for n, v in zip(dataset.names, x)},
                   "label": int(y[i]), "mlp_pred": int(mlp_pred[i])}
            if client is not None:
                pred = _llm_decision(client, model, x, dataset.names)
                if pred is not None:
                    llm_total += 1
                    llm_hits += int(pred == y[i])
                row["llm_pred"] = pred
            rows.append(row)
        llm_acc = (llm_hits / llm_total) if client is not None and llm_total else None
        reports.append(DivergenceReport(
            subset_name=name, subset_size=len(idx), candidates=len(candidates),
            mlp_accuracy=int((mlp_pred[idx] == y[idx]).sum()) / len(idx),
            llm_accuracy=llm_acc,
            case_table=tuple(rows)))
    return reports


def save_reports(reports: list[DivergenceReport], path: str | Path) -> None:
    # vars, not asdict: asdict would deep-copy every case's feature dict
    payload = [vars(r) for r in reports]
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def reports_markdown(reports: list[DivergenceReport]) -> str:
    """Markdown case table: Case, Features, Label, MLP, LLM, and a Key Insight
    column left empty for the reader."""
    lines = ["| Case | Features | Label | MLP | LLM | Key Insight |",
             "| --- | --- | --- | --- | --- | --- |"]
    for r in reports:
        for row in r.case_table:
            shown = "; ".join(f"{n}={v:.4g}" for n, v in row["features"].items())
            llm = row.get("llm_pred")
            lines.append("| {case} | {feat} | {lab} | {mlp} | {llm} |  |".format(
                case=f"{r.subset_name}:{row['sample']}", feat=shown,
                lab="AD" if row["label"] == 1 else "nonAD",
                mlp="AD" if row["mlp_pred"] == 1 else "nonAD",
                llm="-" if llm is None else ("AD" if llm == 1 else "nonAD")))
    return "\n".join(lines) + "\n"
