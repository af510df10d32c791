"""Array-pass pair selection and prior estimation against the per-pair and
per-gene reference loops they replaced."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from diagnokit import geneselect
from diagnokit.errors import ValidationError
from diagnokit.geneselect import (_rank_with_ties, benjamini_hochberg, select_pairs,
                                  stability_scores)
from diagnokit.reference import (N_PSEUDO_REPLICATES, ReferenceDataset, _NOISE_FLOOR,
                                 _regularize_spd_all, estimate_priors, signature_matrix)
from diagnokit.simulate import SyntheticScenario, generate

from oracles import log2_fold_change, regularize_spd, wilcoxon_rank_sum


# ---------------------------------------------------------------- references

def rank_with_ties_loop(pooled):
    """Reference: mid-ranks (1-based) and tie-group sizes, one run at a time."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    ties = []
    i = 0
    srt = pooled[order]
    while i < len(srt):
        j = i
        while j + 1 < len(srt) and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        ties.append(j - i + 1)
        i = j + 1
    return ranks, np.array(ties, dtype=np.float64)


def _u_statistic(a, b):
    ranks, _ = rank_with_ties_loop(np.concatenate([a, b]))
    return ranks[: len(a)].sum() - len(a) * (len(a) + 1) / 2.0


def wilcoxon_loop(a, b):
    """Reference: the rank-sum test with a fresh ranking per split."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = a.size, b.size
    n = n1 + n2
    u = _u_statistic(a, b)
    mean_u = n1 * n2 / 2.0
    pooled = np.concatenate([a, b])
    if n <= geneselect.EXACT_ENUMERATION_MAX_N:
        dev = abs(u - mean_u)
        count = total = 0
        for idx in itertools.combinations(range(n), n1):
            mask = np.zeros(n, dtype=bool)
            mask[list(idx)] = True
            if abs(_u_statistic(pooled[mask], pooled[~mask]) - mean_u) >= dev - 1e-12:
                count += 1
            total += 1
        return u, count / total
    _, ties = rank_with_ties_loop(pooled)
    tie_term = ((ties ** 3 - ties).sum()) / (n * (n - 1))
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0:
        return u, 1.0
    diff = u - mean_u
    cc = 0.5 if diff != 0 else 0.0
    z = (abs(diff) - cc) / math.sqrt(var_u)
    return u, min(math.erfc(max(z, 0.0) / math.sqrt(2.0)), 1.0)


def stability_scores_loop(ref, fdr_threshold, lfc_threshold):
    """Reference: one rank-sum test and one fold change per (gene, type)."""
    types = ref.cell_types
    type_cols = {c: ref.type_columns(c) for c in types}
    tested, pvals, lfcs = [], [], []
    for gi, gene in enumerate(ref.genes):
        row = ref.values[gi]
        for ct in types:
            mask = np.zeros(row.size, dtype=bool)
            mask[type_cols[ct]] = True
            a, b = row[mask], row[~mask]
            if a.size == 0 or b.size == 0:
                continue
            _, p = wilcoxon_loop(a, b)
            tested.append((gene, ct))
            pvals.append(p)
            lfcs.append(log2_fold_change(a, b))
    adjusted = benjamini_hochberg(pvals)
    return {(gene, ct): float(-np.log10(max(p_adj, 1e-300)) * abs(lfc))
            for (gene, ct), p_adj, lfc in zip(tested, adjusted, lfcs)
            if p_adj < fdr_threshold and abs(lfc) > lfc_threshold}


def estimate_priors_loop(ref, shrinkage=0.5, seed=0):
    """Reference: one pseudo-replicate mean per (gene, replicate, type).

    Returns (mu, sigma, noise_var) stacked over genes.
    """
    rng = np.random.default_rng(seed)
    type_cols = [ref.type_columns(c) for c in ref.cell_types]
    C = len(type_cols)
    n_aligned = min(len(idx) for idx in type_cols)
    half = n_aligned // 2
    subsets = [rng.permutation(n_aligned)[:half] for _ in range(N_PSEUDO_REPLICATES)]
    rescale = 1.0 / (1.0 / half - 1.0 / n_aligned)
    mus = signature_matrix(ref)
    G = len(ref.genes)
    ss = np.zeros(G)
    dof = 0
    for c, idx in enumerate(type_cols):
        ss += ((ref.values[:, idx] - mus[:, [c]]) ** 2).sum(axis=1)
        dof += len(idx) - 1
    noise_vars = np.maximum(ss / max(dof, 1), _NOISE_FLOOR)
    sigmas = []
    for g in range(G):
        reps = np.empty((N_PSEUDO_REPLICATES, C))
        for r, sub in enumerate(subsets):
            for c, idx in enumerate(type_cols):
                reps[r, c] = ref.values[g, idx[sub]].mean()
        S = np.atleast_2d(np.cov(reps.T, ddof=1)) * rescale
        sigma = (1.0 - shrinkage) * S + shrinkage * np.diag(np.diag(S))
        sigmas.append(regularize_spd(sigma, np.trace(S)))
    return mus, np.stack(sigmas), noise_vars


# --------------------------------------------------------------------- cases

def _ref(values, labels):
    values = np.asarray(values, dtype=np.float64)
    return ReferenceDataset(genes=[f"g{i:03d}" for i in range(values.shape[0])],
                            cells=[f"c{i:03d}" for i in range(values.shape[1])],
                            cell_type_labels=list(labels), values=values)


def _blocks(sizes, G, seed, integer=False, shift=1.5):
    """A reference with types of the given sizes; type k shifted on gene k."""
    rng = np.random.default_rng(seed)
    labels = [f"t{k}" for k, n in enumerate(sizes) for _ in range(n)]
    if integer:
        values = rng.integers(0, 4, (G, len(labels))).astype(np.float64)
    else:
        values = rng.normal(4.0, 0.6, (G, len(labels)))
    start = 0
    for k, n in enumerate(sizes):
        values[k % G, start:start + n] += shift * (1 + k % 3)
        start += n
    return values, labels


CASES = {
    "normal": _blocks([20, 20, 20], 30, 0),
    "heavy_ties": _blocks([15, 25, 18, 12], 40, 1, integer=True),
    "unequal_types": _blocks([3, 41, 9, 27, 2], 25, 2),
    "tiny_exact": _blocks([4, 3, 5], 8, 3, shift=3.0),
    "single_type": _blocks([14], 6, 4),
}


def _case(name):
    values, labels = CASES[name]
    values = values.copy()
    if name == "heavy_ties":
        values[5] = 0.0   # all-zero gene: var_u = 0, p = 1
        values[6] = 2.0   # all-equal gene
    return _ref(values, labels)


def _stability(ref, fdr_threshold, lfc_threshold):
    """``stability_scores``'s (score, keep) arrays as pair -> score of the
    kept pairs, the form of ``stability_scores_loop``."""
    score, keep = stability_scores(ref, fdr_threshold, lfc_threshold)
    return {(ref.genes[g], ref.cell_types[c]): float(score[g, c])
            for g, c in zip(*np.nonzero(keep))}


def _assert_same_scores(got, want, keeps_all=False):
    """Same pairs, and scores to 1e-12 relative. With thresholds that keep
    every pair, fold changes near 0 are kept too: the rounding of their two
    means is an absolute error there, so it is bounded by the largest score."""
    assert set(got) == set(want)
    floor = 1e-12 * max(map(abs, want.values()), default=0.0) if keeps_all else 0.0
    for pair, s in want.items():
        assert got[pair] == pytest.approx(s, rel=1e-12, abs=floor), pair


# --------------------------------------------------------------------- ranks

@pytest.mark.parametrize("seed", range(6))
def test_rank_helper_matches_loop_per_row(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 + seed, (7, 23)).astype(np.float64)
    if seed % 2:
        x[:, ::3] = rng.normal(size=(7, 8))
    ranks, tie_sum = _rank_with_ties(x)
    for row, r, t in zip(x, ranks, tie_sum):
        want_r, ties = rank_with_ties_loop(row)
        assert np.array_equal(r, want_r)
        assert t == (ties ** 3 - ties).sum()
    one_r, one_t = _rank_with_ties(x[0])
    assert np.array_equal(one_r, ranks[0]) and one_t == tie_sum[0]


@pytest.mark.parametrize("n1,n2", [(2, 2), (3, 4), (5, 7), (6, 6), (1, 11), (9, 14)])
def test_wilcoxon_matches_loop(n1, n2):
    rng = np.random.default_rng(n1 * 100 + n2)
    for integer in (False, True):
        pooled = (rng.integers(0, 3, n1 + n2).astype(np.float64) if integer
                  else rng.normal(size=n1 + n2))
        a, b = pooled[:n1], pooled[n1:]
        u, p = wilcoxon_rank_sum(a, b)
        u_ref, p_ref = wilcoxon_loop(a, b)
        assert u == u_ref
        assert p == pytest.approx(p_ref, rel=1e-12, abs=0.0)


# ----------------------------------------------------------------- selection

@pytest.mark.parametrize("name", sorted(CASES))
def test_stability_scores_match_loop(name):
    ref = _case(name)
    # the last pair of thresholds keeps every tested pair
    for fdr, lfc in ((0.05, 0.5), (0.5, 0.1), (2.0, -1.0)):
        got = _stability(ref, fdr, lfc)
        _assert_same_scores(got, stability_scores_loop(ref, fdr, lfc), keeps_all=lfc < 0)
    n_types = len(ref.cell_types)
    assert len(got) == (len(ref.genes) * n_types if n_types > 1 else 0)


def test_pvalues_match_loop_and_tied_genes_get_one(monkeypatch):
    ref = _case("heavy_ties")
    seen = []
    monkeypatch.setattr(geneselect, "benjamini_hochberg",
                        lambda p: seen.append(np.array(p)) or benjamini_hochberg(p))
    stability_scores(ref, 0.05, 0.5)
    (p,) = seen
    want = [wilcoxon_loop(row[ref.type_columns(ct)],
                          np.delete(row, ref.type_columns(ct)))[1]
            for row in ref.values for ct in ref.cell_types]
    np.testing.assert_allclose(p, want, rtol=1e-12, atol=0)
    p = p.reshape(len(ref.genes), len(ref.cell_types))
    assert (p[5] == 1.0).all() and (p[6] == 1.0).all()
    assert (p[7:] < 1.0).any()


def test_stability_scores_match_loop_on_simulated_reference():
    ref = generate(SyntheticScenario(G=60, C=4, N=5, ref_cells_per_type=17, seed=9)).ref
    want = stability_scores_loop(ref, 0.01, 1.0)
    _assert_same_scores(_stability(ref, 0.01, 1.0), want)
    assert want
    assert select_pairs(ref, set()).pairs <= frozenset(want)


# -------------------------------------------------------------------- priors

def _assert_priors_match(ref, shrinkage, seed=0):
    priors = estimate_priors(ref, shrinkage=shrinkage, seed=seed)
    mus, sigmas, noise = estimate_priors_loop(ref, shrinkage=shrinkage, seed=seed)
    assert priors.genes == ref.genes
    np.testing.assert_allclose(priors.mu, mus, rtol=1e-12, atol=0)
    np.testing.assert_allclose(priors.noise_var, noise, rtol=1e-12, atol=0)
    got = priors.sigma
    scale = np.abs(sigmas).max(axis=(1, 2), keepdims=True)
    assert (np.abs(got - sigmas) <= 1e-12 * scale).all()


@pytest.mark.parametrize("shrinkage", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", ["normal", "heavy_ties", "unequal_types", "single_type"])
def test_priors_match_loop(name, shrinkage):
    _assert_priors_match(_case(name), shrinkage)


def test_priors_match_loop_on_simulated_reference():
    ref = generate(SyntheticScenario(G=40, C=3, N=5, ref_cells_per_type=23, seed=4)).ref
    for seed in (0, 7):
        _assert_priors_match(ref, 0.5, seed)


def test_priors_gene_that_needs_jitter(monkeypatch):
    """A covariance shrunk toward its diagonal is positive semi-definite, so
    in exact arithmetic the first jitter step always suffices. A stricter
    Cholesky factorization stands in for rounding: it fails the rank-one gene
    (all types move together) until the jitter has doubled twice, and must
    send it, and only it, through the doubling loop with the loop's result."""
    rng = np.random.default_rng(5)
    n = 10
    values = np.vstack([np.tile(rng.normal(size=n), 3),
                        rng.normal(size=3 * n),
                        np.full(3 * n, 2.0)])
    ref = _ref(values, [t for t in ("a", "b", "c") for _ in range(n)])
    real = np.linalg.cholesky

    def strict(a):
        # raises unless a less 2.5e-6 of its mean diagonal has a factor
        scale = np.trace(a, axis1=-2, axis2=-1)[..., None, None] / a.shape[-1]
        real(a - 2.5e-6 * scale * np.eye(a.shape[-1]))
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", strict)
    _assert_priors_match(ref, 0.0)
    rescues = {"spd_jitter": 0}
    estimate_priors(ref, shrinkage=0.0, rescues=rescues)
    assert rescues == {"spd_jitter": 1}
    sigma = estimate_priors(ref, shrinkage=0.0).sigma[0]
    jitter = sigma[0, 0] - sigma[0, 1]
    assert jitter == pytest.approx(4e-6 * np.trace(sigma - jitter * np.eye(3)) / 3,
                                   rel=1e-9)


def test_one_jitter_loop_matches_the_per_gene_loop():
    """Matrices that need no doubling of the first jitter step, one, and
    several go through one batched loop: each comes out as the per-gene loop
    leaves it, bit for bit, and only those that needed a doubling count as
    rescued."""
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    # smallest eigenvalue in units of about the first step, 1e-6 * trace / 3;
    # the doublings each needs are 0, 0, 1, 7, 15 and 0
    lows = np.array([1e5, 0.0, -1.5, -100.0, -3e4, 1e5]) * 1e-6 * 2 / 3
    sigma = np.stack([q @ np.diag([low, 1.0, 1.0]) @ q.T for low in lows])
    sigma[1] += 1e-9 * np.triu(np.ones((3, 3)), 1)  # asymmetric by a hair
    trace = np.trace(sigma, axis1=1, axis2=2)
    rescues = {"spd_jitter": 0}
    got = _regularize_spd_all(sigma, trace, rescues)
    want = np.stack([regularize_spd(s, t) for s, t in zip(sigma, trace)])
    assert np.array_equal(got, want)
    eps = 1e-6 * trace / 3
    sym = 0.5 * (sigma + np.swapaxes(sigma, 1, 2))
    doublings = np.log2((got - sym)[:, 0, 0] / eps)
    np.testing.assert_allclose(doublings, [0, 0, 1, 7, 15, 0], atol=1e-6)
    assert rescues == {"spd_jitter": 3}


def test_jitter_loop_gives_up_after_sixty_steps():
    sigma = np.stack([np.eye(2), np.diag([-1e30, 1.0])])
    rescues = {"spd_jitter": 0}
    with pytest.raises(ValidationError, match="could not regularize"):
        _regularize_spd_all(sigma, np.trace(sigma, axis1=1, axis2=2), rescues)
    with pytest.raises(ValidationError, match="could not regularize"):
        regularize_spd(sigma[1], np.trace(sigma[1]))
