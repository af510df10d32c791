"""Tripartite gene / cell-type pair selection.

Three filters: curated marker pairs, a one-vs-rest differential-expression
stability test (Wilcoxon rank-sum + Benjamini-Hochberg + log2 fold change),
and noise suppression (weak-score quantile cut plus a dropout ceiling).
Markers always survive; the final set is the union. One batched call,
``rank_sum_tests``, runs every rank-sum test of a reference (its two-sample
front ``wilcoxon_rank_sum`` is in ``tests/oracles.py``), and selection works
on (gene, cell type) arrays: a score array, a keep mask and a marker mask.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .io import _is_number, atomic_write_text, load_json
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
        if not (isinstance(cell_types, list) and all(isinstance(c, str) for c in cell_types)):
            raise ParseError(f"marker entry for {gene!r} must be a list of cell-type names")
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


def rank_sum_tests(x, member) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Wilcoxon / Mann-Whitney rank-sum tests, one per (row, group).

    ``x`` is an (R, n) float array, ``member`` an (n, K) bool matrix whose
    column k marks test k's first sample in every row. Returns (U, p), both
    (R, K), from one ranking of each row (mid-ranks for ties). p is exact for
    rows of at most ``EXACT_ENUMERATION_MAX_N`` values: every split's U is one
    column of ranks @ splits', and sums of mid-ranks (multiples of 0.5) are
    exact in any order. Longer rows get the normal approximation with
    tie-corrected variance and continuity correction (p = 1 for a row of ties).
    """
    n = x.shape[-1]
    n1 = member.sum(axis=0)
    n2 = n - n1
    ranks, tie_sum = _rank_with_ties(x)
    u = ranks @ member - n1 * (n1 + 1) / 2.0
    diff = u - n1 * n2 / 2.0

    if n <= EXACT_ENUMERATION_MAX_N:
        p = np.empty(u.shape)
        for k in np.unique(n1).tolist():
            combos = np.array(list(itertools.combinations(range(n), k)))
            splits = np.zeros((len(combos), n))
            np.put_along_axis(splits, combos, 1.0, axis=1)
            dev_perm = ranks @ splits.T  # |U - n1 n2 / 2| of every split, in place
            dev_perm -= k * (k + 1) / 2.0 + k * (n - k) / 2.0
            np.abs(dev_perm, out=dev_perm)
            tests = n1 == k
            dev = np.abs(diff[:, tests]) - 1e-12
            p[:, tests] = (dev_perm[:, :, None] >= dev[:, None, :]).mean(axis=1)
        return u, p

    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_sum[:, None] / (n * (n - 1)))
    spread = var_u > 0
    cc = np.where(diff != 0, 0.5, 0.0)
    z = (np.abs(diff) - cc) / np.sqrt(np.where(spread, var_u, 1.0))
    half_z = (np.maximum(z, 0.0) / math.sqrt(2.0)).ravel()
    erfc = np.fromiter(map(math.erfc, half_z), np.float64, half_z.size).reshape(z.shape)
    return u, np.where(spread, np.minimum(erfc, 1.0), 1.0)


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
                     lfc_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest stability set before noise suppression.

    Returns (G, C) arrays (score, keep): the DE score -log10(adjusted p) *
    |log2 FC| of every (gene, cell type), and whether the pair passes both
    the BH-adjusted p and the fold-change thresholds. The pooled sample of
    every one-vs-rest test of a gene is its whole reference row, so one
    ``rank_sum_tests`` call tests every pair.
    """
    types = ref.cell_types
    x = ref.values
    if len(types) < 2:  # one-vs-rest needs a rest
        return np.zeros((len(x), len(types))), np.zeros((len(x), len(types)), dtype=bool)
    member = np.array(ref.cell_type_labels)[:, None] == np.array(types)[None, :]
    onehot = member.astype(np.float64)  # cells x types
    n1 = member.sum(axis=0)
    n2 = x.shape[1] - n1
    _, p = rank_sum_tests(x, member)

    lin = np.exp2(x) @ np.hstack([onehot, 1.0 - onehot])  # per-type and rest sums
    lfc = np.log2((lin[:, :len(types)] / n1 + 1e-9) / (lin[:, len(types):] / n2 + 1e-9))
    adjusted = benjamini_hochberg(p.ravel()).reshape(p.shape)
    score = -np.log10(np.maximum(adjusted, 1e-300)) * np.abs(lfc)
    return score, (adjusted < fdr_threshold) & (np.abs(lfc) > lfc_threshold)


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

    genes, types = ref.genes, ref.cell_types
    score, keep = stability_scores(ref, fdr_threshold, lfc_threshold)
    if keep.any():
        keep &= score >= np.quantile(score[keep], noise_quantile, method="lower")
    keep &= ((ref.values == 0).mean(axis=1) <= DROPOUT_CEILING)[:, None]

    gene_index = {g: i for i, g in enumerate(genes)}
    type_index = {c: j for j, c in enumerate(types)}
    marker = np.zeros(keep.shape, dtype=bool)
    for g, c in markers:
        if g in gene_index and c in type_index:
            marker[gene_index[g], type_index[c]] = True

    rows, cols = np.nonzero(marker | keep)
    pairs = [(genes[g], types[c]) for g, c in zip(rows.tolist(), cols.tolist())]
    keys = [pair_key(*pair) for pair in pairs]
    tags = np.where(keep, np.where(marker, "both", "stability"), "marker")[rows, cols]
    scores = np.where(keep, score, 0.0)[rows, cols]
    return PairSelection(pairs=frozenset(pairs), provenance=dict(zip(keys, tags.tolist())),
                         scores=dict(zip(keys, scores.tolist())))


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
    first = {}  # pair -> the index of the record that lists it
    provenance = {}
    scores = {}
    for k, rec in enumerate(records):
        missing = [f for f in ("gene", "cell_type", "provenance", "score")
                   if not isinstance(rec, dict) or f not in rec]
        if missing:
            raise ParseError(f"selection record {k} lacks {', '.join(missing)}")
        pair = (rec["gene"], rec["cell_type"])
        if not all(isinstance(name, str) for name in pair):
            raise ParseError(f"selection record {k} has a gene or cell_type that is not a string")
        if rec["provenance"] not in PairSelection.VALID_TAGS:
            raise ParseError(f"selection record {k} has provenance {rec['provenance']!r}, "
                             f"not one of {', '.join(PairSelection.VALID_TAGS)}")
        score = rec["score"]
        if not _is_number(score):
            raise ParseError(f"selection record {k} has a score that is not a finite "
                             f"JSON number: {json.dumps(score)}")
        if pair in first:
            raise ParseError(f"selection records {first[pair]} and {k} both list the pair {pair}")
        first[pair] = k
        provenance[pair_key(*pair)] = rec["provenance"]
        scores[pair_key(*pair)] = float(score)
    return PairSelection(pairs=frozenset(first), provenance=provenance, scores=scores)
