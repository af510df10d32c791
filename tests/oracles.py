"""Scalar reference functions the tests check the library against.

No command uses them: each is the plain, one-case form of what a library
function computes in bulk.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from diagnokit.divergence import DivergenceReport
from diagnokit.errors import ValidationError
from diagnokit.report import DiagnosticReport


def pearson(a, b) -> float:
    """Sample Pearson correlation; rejects degenerate inputs.

    ``simulate.evaluate_recovery`` computes it for every row at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise ValidationError("pearson needs two equal-length vectors of size >= 2")
    da = a - a.mean()
    db = b - b.mean()
    na = float(da @ da)
    nb = float(db @ db)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("pearson undefined for zero-variance input")
    return float(np.clip((da @ db) / np.sqrt(na * nb), -1.0, 1.0))


def log2_fold_change(a, b, pseudo: float = 1e-9) -> float:
    """log2 ratio of group means on the linear (base-2 exponentiated) scale.

    ``geneselect.stability_scores`` computes it for every pair at once."""
    if not pseudo > 0:
        raise ValidationError("pseudo must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ma = np.exp2(a).mean()
    mb = np.exp2(b).mean()
    return float(np.log2((ma + pseudo) / (mb + pseudo)))


def report_from_json(payload: dict) -> DiagnosticReport:
    """The inverse of ``report.report_to_json``."""
    return DiagnosticReport(**payload)


def load_reports(path: str | Path) -> list[DivergenceReport]:
    """The inverse of ``divergence.save_reports``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [DivergenceReport(**r) for r in payload]
