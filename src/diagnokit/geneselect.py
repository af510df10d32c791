"""Tripartite gene / cell-type pair selection.

Three filters: curated marker pairs, a one-vs-rest differential-expression
stability test (Wilcoxon rank-sum + Benjamini-Hochberg + log2 fold change),
and noise suppression (weak-score quantile cut plus a dropout ceiling).
Markers always survive; the final set is the union.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .io import atomic_write_text, load_json
from .reference import ReferenceDataset
from .types import PairSelection, pair_key

EXACT_ENUMERATION_MAX_N = 12
DEFAULT_FDR = 0.01
DEFAULT_LFC = 1.0
DEFAULT_NOISE_QUANTILE = 0.10
DROPOUT_CEILING = 0.95


def load_marker_list(path: str | Path) -> set[tuple[str, str]]:
    """Parse a ``{gene: [cell_types]}`` JSON file into a pair set."""
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ParseError("marker file must be a JSON object of gene -> [cell types]")
    pairs = set()
    for gene, cell_types in raw.items():
        if not isinstance(cell_types, list):
            raise ParseError(f"marker entry for {gene!r} must be a list")
        for ct in cell_types:
            pairs.add((gene, ct))
    return pairs


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mid-ranks (1-based) along the last axis, and each row's tie term.

    The tie term is the sum over tie runs of t**3 - t, accumulated as the sum
    over positions of t**2 - 1. One stable sort per row; every run's first and
    last position come from running maxima and minima over the run starts and
    ends. Positions are held as exact float64 integers and the work arrays
    are reused in place, so ranking a whole reference holds the sort order
    and two work arrays of its size besides the result.
    """
    n = values.shape[-1]
    order = np.argsort(values, axis=-1, kind="stable")
    first = np.take_along_axis(values, order, axis=-1)  # the sorted values, for now
    starts = np.ones(values.shape, dtype=bool)
    np.not_equal(first[..., 1:], first[..., :-1], out=starts[..., 1:])
    ends = np.ones(values.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    pos = np.arange(n, dtype=np.float64)
    np.multiply(starts, pos, out=first)
    np.maximum.accumulate(first, axis=-1, out=first)
    last = np.full(values.shape, n - 1.0)
    np.copyto(last, pos, where=ends)
    backward = np.flip(last, axis=-1)
    np.minimum.accumulate(backward, axis=-1, out=backward)
    size = np.subtract(last, first, out=first)
    size += 1.0
    tie_sum = np.einsum("...i,...i->...", size, size) - n
    # mid-rank = (first + last) / 2 + 1 = last - size / 2 + 1.5
    size *= 0.5
    last -= size
    last += 1.5
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, last, axis=-1)
    return ranks, tie_sum


def wilcoxon_rank_sum(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon / Mann-Whitney rank-sum test.

    Returns (U, p). Mid-ranks for ties; exact enumeration of rank
    assignments when n1 + n2 <= 12, otherwise a normal approximation with
    tie-corrected variance and continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        raise ValidationError("wilcoxon_rank_sum requires non-empty inputs")
    n1, n2 = a.size, b.size
    n = n1 + n2
    ranks, tie_sum = _rank_with_ties(np.concatenate([a, b]))
    offset = n1 * (n1 + 1) / 2.0
    u = ranks[:n1].sum() - offset
    mean_u = n1 * n2 / 2.0

    if n <= EXACT_ENUMERATION_MAX_N:
        # the pooled ranks do not depend on the split, so each of the
        # C(n, n1) assignments is a sum of n1 of them (half-integers: exact)
        splits = np.array(list(itertools.combinations(range(n), n1)))
        u_perm = ranks[splits].sum(axis=1) - offset
        return u, float(np.mean(np.abs(u_perm - mean_u) >= abs(u - mean_u) - 1e-12))

    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    if var_u <= 0:
        return u, 1.0  # all values tied
    diff = u - mean_u
    cc = 0.5 if diff != 0 else 0.0
    z = (abs(diff) - cc) / math.sqrt(var_u)
    p = math.erfc(max(z, 0.0) / math.sqrt(2.0))
    return u, min(p, 1.0)


def benjamini_hochberg(pvalues) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        return p.copy()
    if ((p < 0) | (p > 1)).any() or not np.isfinite(p).all():
        raise ValidationError("p-values must lie in [0, 1]")
    n = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * n / np.arange(1, n + 1)
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty(n)
    out[order] = adjusted
    return out


def stability_scores(ref: ReferenceDataset, fdr_threshold: float,
                     lfc_threshold: float) -> dict[tuple[str, str], float]:
    """One-vs-rest stability set before noise suppression.

    Returns pair -> DE score (-log10 adjusted p times |log2 FC|) for pairs
    passing both the BH-adjusted p and fold-change thresholds. The pooled
    sample of every one-vs-rest test of a gene is its whole reference row, so
    each gene is ranked once for all of its tests.
    """
    types = ref.cell_types
    if len(types) < 2:
        return {}  # one-vs-rest needs a rest
    x = ref.values
    n = x.shape[1]
    member = np.array(ref.cell_type_labels)[:, None] == np.array(types)[None, :]
    onehot = member.astype(np.float64)  # cells x types
    n1 = member.sum(axis=0)
    n2 = n - n1

    if n <= EXACT_ENUMERATION_MAX_N:
        p = np.array([[wilcoxon_rank_sum(row[m], row[~m])[1] for m in member.T]
                      for row in x])
    else:
        ranks, tie_sum = _rank_with_ties(x)
        u = ranks @ onehot - n1 * (n1 + 1) / 2.0
        var_u = n1 * n2 / 12.0 * ((n + 1) - tie_sum[:, None] / (n * (n - 1)))
        spread = var_u > 0  # else every value of the gene is tied: p = 1
        diff = u - n1 * n2 / 2.0
        cc = np.where(diff != 0, 0.5, 0.0)
        z = (np.abs(diff) - cc) / np.sqrt(np.where(spread, var_u, 1.0))
        half_z = (np.maximum(z, 0.0) / math.sqrt(2.0)).ravel()
        erfc = np.fromiter(map(math.erfc, half_z), np.float64, half_z.size).reshape(z.shape)
        p = np.where(spread, np.minimum(erfc, 1.0), 1.0)

    lin = np.exp2(x) @ np.hstack([onehot, 1.0 - onehot])  # per-type and rest sums
    lfc = np.log2((lin[:, :len(types)] / n1 + 1e-9) / (lin[:, len(types):] / n2 + 1e-9))
    adjusted = benjamini_hochberg(p.ravel()).reshape(p.shape)
    score = -np.log10(np.maximum(adjusted, 1e-300)) * np.abs(lfc)
    keep = (adjusted < fdr_threshold) & (np.abs(lfc) > lfc_threshold)
    return {(ref.genes[g], types[c]): float(score[g, c]) for g, c in zip(*np.nonzero(keep))}


def select_pairs(ref: ReferenceDataset, markers: set[tuple[str, str]],
                 fdr_threshold: float = DEFAULT_FDR,
                 lfc_threshold: float = DEFAULT_LFC,
                 noise_quantile: float = DEFAULT_NOISE_QUANTILE) -> PairSelection:
    """Tripartite selection over one-vs-rest tests within the reference.

    The stability set keeps pairs with BH-adjusted p below ``fdr_threshold``
    and |log2 FC| above ``lfc_threshold``. Noise suppression then drops pairs
    whose score -log10(p_adj) * |lfc| falls strictly below the
    ``noise_quantile`` quantile (lower interpolation) of stability scores, and
    drops genes whose reference dropout rate exceeds the ceiling. Marker
    pairs always survive.
    """
    if not (fdr_threshold > 0 and lfc_threshold > 0):
        raise ValidationError("thresholds must be positive")
    if not 0 < noise_quantile < 1:
        raise ValidationError("noise_quantile must lie in (0, 1)")

    types = ref.cell_types
    gene_set = set(ref.genes)
    dropout = (ref.values == 0).mean(axis=1)

    stability = stability_scores(ref, fdr_threshold, lfc_threshold)

    if stability:
        cut = float(np.quantile(list(stability.values()), noise_quantile, method="lower"))
        stability = {pair: s for pair, s in stability.items() if s >= cut}
    gene_index = {g: i for i, g in enumerate(ref.genes)}
    stability = {pair: s for pair, s in stability.items()
                 if dropout[gene_index[pair[0]]] <= DROPOUT_CEILING}

    marker_pairs = {(g, c) for g, c in markers if g in gene_set and c in set(types)}
    pairs = marker_pairs | set(stability)
    provenance = {}
    scores = {}
    for pair in pairs:
        key = pair_key(*pair)
        in_marker = pair in marker_pairs
        in_stab = pair in stability
        provenance[key] = "both" if (in_marker and in_stab) else (
            "marker" if in_marker else "stability")
        scores[key] = float(stability.get(pair, 0.0))
    return PairSelection(pairs=frozenset(pairs), provenance=provenance, scores=scores)


def save_selection(selection: PairSelection, path: str | Path) -> None:
    records = [{"gene": g, "cell_type": c,
                "provenance": selection.provenance[pair_key(g, c)],
                "score": selection.scores[pair_key(g, c)]}
               for g, c in sorted(selection.pairs)]
    atomic_write_text(path, json.dumps(records, indent=2) + "\n")


def load_selection(path: str | Path) -> PairSelection:
    records = load_json(path)
    if not isinstance(records, list):
        raise ParseError("selection must be a JSON list of records")
    pairs = set()
    provenance = {}
    scores = {}
    for k, rec in enumerate(records):
        missing = [f for f in ("gene", "cell_type", "provenance", "score")
                   if not isinstance(rec, dict) or f not in rec]
        if missing:
            raise ParseError(f"selection record {k} lacks {', '.join(missing)}")
        pair = (rec["gene"], rec["cell_type"])
        if rec["provenance"] not in PairSelection.VALID_TAGS:
            raise ParseError(f"selection record {k} has provenance {rec['provenance']!r}, "
                             f"not one of {', '.join(PairSelection.VALID_TAGS)}")
        score = rec["score"]
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise ParseError(f"selection record {k} has non-numeric score {score!r}")
        pairs.add(pair)
        provenance[pair_key(*pair)] = rec["provenance"]
        scores[pair_key(*pair)] = float(score)
    return PairSelection(pairs=frozenset(pairs), provenance=provenance, scores=scores)
