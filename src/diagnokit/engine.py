"""Blocked Gibbs inference of cell-type-specific expression from bulk mixtures.

The model, per gene g and sample i with proportions w_i:

    z_gi ~ N(mu_g, Sigma_g)
    x_gi = w_i' z_gi + gamma_g' c1_i + w_i' B_g c2_i + eps,  eps ~ N(0, s2_g)

All conditionals are conjugate: z from a Gaussian, (gamma, B) from a joint
Bayesian linear regression draw, s2 from an Inverse-Gamma. Multiple chains run
from over-dispersed starts; convergence is checked with split R-hat on the
per-(gene, cell type) sample-averaged draw trace, gated at the configured
threshold. Two-stage prior refinement re-estimates (mu, Sigma) from posterior
moments and redraws them through a Normal / Inverse-Wishart step.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.stats import invwishart

from .errors import ValidationError
from .kernels import resolve_backend
from .reference import DEFAULT_SHRINKAGE, ReferenceDataset, _regularize_spd, estimate_priors
from .types import (AdjustmentParams, BulkMatrix, CtsTensor, GenePrior, PairSelection,
                    RefinementConfig, SampleMeta)


@dataclass(frozen=True)
class HyperParams:
    """Weakly informative hyperpriors for the non-z blocks."""

    coef_prior_var: float = 10.0
    noise_a0: float = 2.0
    noise_b0: float = 1.0
    update_coef: bool = True
    update_noise: bool = True

    def __post_init__(self):
        if not (self.coef_prior_var > 0 and self.noise_a0 > 0 and self.noise_b0 > 0):
            raise ValidationError("hyperparameters must be positive")


@dataclass
class ChainState:
    """Mutable state of one Gibbs chain."""

    z: np.ndarray          # (G, N, C)
    gamma: np.ndarray      # (G, d1)
    b: np.ndarray          # (G, C, d2)
    noise_var: np.ndarray  # (G,)
    iteration: int
    rng: np.random.Generator

    def __post_init__(self):
        if (self.noise_var <= 0).any():
            raise ValidationError("noise_var must stay positive")
        for arr in (self.z, self.gamma, self.b, self.noise_var):
            if not np.isfinite(arr).all():
                raise ValidationError("chain state contains non-finite values")


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior moments, refinement inputs, and convergence diagnostics."""

    cts: CtsTensor
    mu_hat: np.ndarray       # (G, C)
    sigma_hat: np.ndarray    # (G, C, C)
    noise_hat: np.ndarray    # (G,)
    rhat: np.ndarray         # (G, C), nan where undefined
    converged: bool
    estimated: np.ndarray | None = None  # (G, C) bool mask, deconvolve only


def z_conditional(prior: GenePrior, x_gi: float, meta: SampleMeta,
                  adj: AdjustmentParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian full conditional of z for one (gene, sample)."""
    w = meta.proportions
    r = float(x_gi) - float(adj.gamma @ meta.bulk_cov) - float(w @ (adj.b @ meta.cts_cov))
    if not np.isfinite(r):
        raise ValidationError("non-finite residual target")
    sig_inv = np.linalg.inv(prior.sigma)
    prec = sig_inv + np.outer(w, w) / prior.noise_var
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (sig_inv @ prior.mu + w * (r / prior.noise_var))
    return mean, cov


def _align_metas(samples: list[str], metas: list[SampleMeta]) -> list[SampleMeta]:
    """Order ``metas`` like the bulk columns, joining on ``sample_id``."""
    counts = Counter(m.sample_id for m in metas)
    duplicated = [s for s, n in counts.items() if n > 1]
    missing = [s for s in samples if s not in counts]
    known = set(samples)
    extra = [s for s in counts if s not in known]
    if duplicated or missing or extra:
        raise ValidationError(
            "sample metas must match the bulk samples one to one: "
            f"duplicated {duplicated[:5]}, missing {missing[:5]}, extra {extra[:5]}")
    by_id = {m.sample_id: m for m in metas}
    return [by_id[s] for s in samples]


def _stack_inputs(bulk: BulkMatrix, priors: list[GenePrior], metas: list[SampleMeta]):
    G, N = bulk.n_genes, bulk.n_samples
    if len(priors) != G:
        raise ValidationError(f"expected {G} priors, got {len(priors)}")
    metas = _align_metas(bulk.samples, metas)
    by_gene = {p.gene for p in priors}
    if by_gene != set(bulk.genes):
        raise ValidationError("priors do not cover the bulk gene set")
    order = {p.gene: p for p in priors}
    priors = [order[g] for g in bulk.genes]
    C = priors[0].n_cell_types
    for p in priors:
        if p.n_cell_types != C:
            raise ValidationError("inconsistent prior dimension")
    w = np.stack([m.proportions for m in metas])
    if w.shape[1] != C:
        raise ValidationError("meta proportions dimension does not match priors")
    if len({(m.bulk_cov.size, m.cts_cov.size) for m in metas}) > 1:
        raise ValidationError("sample metas disagree on covariate lengths")
    c1 = np.stack([m.bulk_cov for m in metas])
    c2 = np.stack([m.cts_cov for m in metas])
    mu = np.stack([p.mu for p in priors])
    sigma = np.stack([p.sigma for p in priors])
    sig_inv = np.linalg.inv(sigma)
    sig_inv = 0.5 * (sig_inv + np.transpose(sig_inv, (0, 2, 1)))
    sig_inv_mu = np.einsum("gcd,gd->gc", sig_inv, mu)
    noise0 = np.array([p.noise_var for p in priors])
    return priors, w, c1, c2, mu, sigma, sig_inv, sig_inv_mu, noise0


def _run_sweep(state: ChainState, x, w, c1, c2, sig_inv, sig_inv_mu,
               hyper: HyperParams, sweep_fn) -> None:
    G, N = x.shape
    C = w.shape[1]
    p = c1.shape[1] + C * c2.shape[1]
    rng = state.rng
    eps_z = rng.standard_normal((G, N, C))
    eps_coef = rng.standard_normal((G, max(p, 1)))[:, :p]
    gamma_draws = rng.gamma(hyper.noise_a0 + 0.5 * N, 1.0, G)
    sweep_fn(x, w, c1, c2, sig_inv, sig_inv_mu, state.z, state.gamma, state.b,
             state.noise_var, eps_z, eps_coef, gamma_draws,
             1.0 / hyper.coef_prior_var, hyper.noise_b0,
             hyper.update_coef, hyper.update_noise)
    state.iteration += 1


def gibbs_sweep(state: ChainState, bulk: BulkMatrix, priors: list[GenePrior],
                metas: list[SampleMeta], hyper: HyperParams | None = None) -> ChainState:
    """Advance the chain by one full sweep (z, then coefficients, then noise)."""
    hyper = hyper or HyperParams()
    _, w, c1, c2, _, _, sig_inv, sig_inv_mu, _ = _stack_inputs(bulk, priors, metas)
    if state.z.shape != (bulk.n_genes, bulk.n_samples, w.shape[1]):
        raise ValidationError("chain state z shape does not match inputs")
    _run_sweep(state, bulk.values, w, c1, c2, sig_inv, sig_inv_mu, hyper,
               resolve_backend())
    return state


def init_chain(bulk: BulkMatrix, priors: list[GenePrior], metas: list[SampleMeta],
               rng: np.random.Generator, overdispersion: float = 2.0) -> ChainState:
    """Over-dispersed start: prior draws with deviations scaled up."""
    priors, w, c1, c2, mu, sigma, _, _, noise0 = _stack_inputs(bulk, priors, metas)
    G, N = bulk.n_genes, bulk.n_samples
    C = w.shape[1]
    chol = np.linalg.cholesky(sigma)
    eps = rng.standard_normal((G, N, C))
    z0 = mu[:, None, :] + overdispersion * np.einsum("gcd,gnd->gnc", chol, eps)
    return ChainState(z=z0, gamma=np.zeros((G, c1.shape[1])),
                      b=np.zeros((G, C, c2.shape[1])), noise_var=noise0.copy(),
                      iteration=0, rng=rng)


def split_rhat(chains: list[np.ndarray]) -> float:
    """Split Gelman-Rubin statistic over >= 2 scalar chains.

    Each chain is halved; between/within variances are computed over the
    half-chains. A fully degenerate set (zero within-chain variance and
    identical halves) is defined as converged, R-hat = 1.0. Odd-length
    chains are trimmed by one leading element.
    """
    if len(chains) < 2:
        raise ValidationError("split_rhat needs at least 2 chains")
    halves = []
    for c in chains:
        c = np.asarray(c, dtype=np.float64)
        if c.size % 2 == 1:
            c = c[1:]
        if c.size < 4:
            raise ValidationError("each chain needs at least 4 retained draws")
        mid = c.size // 2
        halves.extend([c[:mid], c[mid:]])
    n = min(h.size for h in halves)
    halves = np.stack([h[:n] for h in halves])
    means = halves.mean(axis=1)
    w_var = halves.var(axis=1, ddof=1).mean()
    b_var = n * means.var(ddof=1)
    if w_var == 0.0:
        return 1.0 if b_var == 0.0 else float("inf")
    return float(np.sqrt(((n - 1) / n * w_var + b_var / n) / w_var))


def run_mcmc(bulk: BulkMatrix, priors: list[GenePrior], metas: list[SampleMeta],
             config: RefinementConfig, seed: int,
             hyper: HyperParams | None = None,
             cell_types: list[str] | None = None) -> PosteriorSummary:
    """Multi-chain Gibbs sampling with pooled posterior moments and R-hat."""
    hyper = hyper or HyperParams()
    priors, w, c1, c2, mu, sigma, sig_inv, sig_inv_mu, _ = _stack_inputs(
        bulk, priors, metas)
    G, N = bulk.n_genes, bulk.n_samples
    C = w.shape[1]
    if cell_types is None:
        cell_types = [f"ct{j}" for j in range(C)]
    sweep_fn = resolve_backend()
    x = bulk.values
    kept = config.iters - config.burnin
    master = np.random.SeedSequence(entropy=(seed, 0xD1A6))
    chain_seeds = master.spawn(config.chains)

    sum_z = np.zeros((G, N, C))
    sum_z2 = np.zeros((G, N, C))
    sum_outer = np.zeros((G, C, C))
    sum_noise = np.zeros(G)
    traces = np.empty((config.chains, kept, G, C))

    for ci in range(config.chains):
        rng = np.random.default_rng(chain_seeds[ci])
        state = init_chain(bulk, priors, metas, rng)
        for it in range(config.iters):
            _run_sweep(state, x, w, c1, c2, sig_inv, sig_inv_mu, hyper, sweep_fn)
            if it >= config.burnin:
                k = it - config.burnin
                sum_z += state.z
                sum_z2 += state.z ** 2
                sum_outer += np.einsum("gnc,gnd->gcd", state.z, state.z)
                sum_noise += state.noise_var
                traces[ci, k] = state.z.mean(axis=1)

    total = config.chains * kept
    mean_z = sum_z / total
    var_z = np.maximum(sum_z2 / total - mean_z ** 2, 0.0)
    mu_hat = mean_z.mean(axis=1)
    sigma_hat = sum_outer / (total * N) - np.einsum("gc,gd->gcd", mu_hat, mu_hat)
    sigma_hat = np.stack([_regularize_spd(s, np.trace(s)) for s in sigma_hat])
    noise_hat = sum_noise / total

    rhat = np.full((G, C), np.nan)
    if kept >= 4:
        for g in range(G):
            for c in range(C):
                try:
                    rhat[g, c] = split_rhat([traces[ci, :, g, c]
                                             for ci in range(config.chains)])
                except ValidationError:
                    pass
    finite = rhat[np.isfinite(rhat)]
    converged = bool(finite.size == rhat.size and finite.size > 0
                     and finite.max() < config.rhat_threshold)

    cts = CtsTensor(genes=bulk.genes, cell_types=cell_types, samples=bulk.samples,
                    mean=np.transpose(mean_z, (0, 2, 1)),
                    variance=np.transpose(var_z, (0, 2, 1)))
    return PosteriorSummary(cts=cts, mu_hat=mu_hat, sigma_hat=sigma_hat,
                            noise_hat=noise_hat, rhat=rhat, converged=converged)


def refine_priors(summary: PosteriorSummary, priors: list[GenePrior],
                  config: RefinementConfig, seed: int) -> list[GenePrior]:
    """Redraw each gene's prior around the posterior estimates.

    Mean from N(mu_hat, tau^2 I); covariance from an Inverse-Wishart whose
    scale is chosen so its expectation equals sigma_hat. Draws are retried
    (up to 100 times) until numerically positive definite.
    """
    C = priors[0].n_cell_types
    nu = config.resolved_nu(C)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5EED)))
    refined = []
    for gi, prior in enumerate(priors):
        mu_hat = summary.mu_hat[gi]
        sigma_hat = summary.sigma_hat[gi]
        if config.tau > 0:
            mu_new = rng.normal(mu_hat, config.tau)
        else:
            mu_new = mu_hat.copy()
        scale = sigma_hat * (nu - C - 1)
        sigma_new = None
        for _ in range(100):
            draw = invwishart.rvs(df=nu, scale=scale, random_state=rng)
            draw = np.atleast_2d(draw)
            draw = 0.5 * (draw + draw.T)
            if np.isfinite(draw).all() and np.linalg.eigvalsh(draw).min() > 0:
                sigma_new = draw
                break
        if sigma_new is None:
            raise ValidationError(f"inverse-Wishart retries exhausted for {prior.gene!r}")
        refined.append(GenePrior(gene=prior.gene, mu=mu_new, sigma=sigma_new,
                                 noise_var=float(summary.noise_hat[gi])))
    return refined


def deconvolve(bulk: BulkMatrix, ref: ReferenceDataset, selection: PairSelection,
               metas: list[SampleMeta], config: RefinementConfig, seed: int,
               shrinkage: float = DEFAULT_SHRINKAGE,
               hyper: HyperParams | None = None,
               round_summaries: list | None = None) -> PosteriorSummary:
    """Full pipeline: priors -> restrict to selected genes -> iterated MCMC.

    Runs ``config.rounds`` MCMC passes with a refinement step between passes.
    Output entries for unselected (gene, cell type) pairs carry the reference
    prior mean/variance and are flagged False in ``estimated``.
    """
    cell_types = ref.cell_types
    C = len(cell_types)
    bulk_genes, known_types = set(bulk.genes), set(cell_types)
    for g, c in selection.pairs:
        if g not in bulk_genes or c not in known_types:
            raise ValidationError(f"selected pair ({g!r}, {c!r}) outside bulk/reference axes")
    ref_gene_index = {g: i for i, g in enumerate(ref.genes)}
    missing = [g for g in bulk.genes if g not in ref_gene_index]
    if missing:
        raise ValidationError(f"bulk genes absent from reference: {missing[:5]}")

    priors_all = {p.gene: p for p in estimate_priors(ref, shrinkage, seed=seed)}
    estimated = np.array([[(g, c) in selection.pairs for c in cell_types]
                          for g in bulk.genes])
    rows = np.flatnonzero(estimated.any(axis=1))  # genes the sampler runs on

    mu_hat = np.stack([priors_all[g].mu for g in bulk.genes])
    sigma_hat = np.stack([priors_all[g].sigma for g in bulk.genes])
    noise_hat = np.array([priors_all[g].noise_var for g in bulk.genes])
    N = bulk.n_samples
    mean = np.repeat(mu_hat[:, :, None], N, axis=2)
    var = np.repeat(np.diagonal(sigma_hat, axis1=1, axis2=2)[:, :, None], N, axis=2)
    rhat = np.full((bulk.n_genes, C), np.nan)
    converged = True

    if rows.size:
        sampled_genes = [bulk.genes[gi] for gi in rows]
        sub_bulk = BulkMatrix(genes=sampled_genes, samples=bulk.samples,
                              values=bulk.values[rows])
        priors = [priors_all[g] for g in sampled_genes]
        for rnd in range(config.rounds):
            summary = run_mcmc(sub_bulk, priors, metas, config, seed + rnd,
                               hyper=hyper, cell_types=cell_types)
            if round_summaries is not None:
                round_summaries.append(summary)
            if rnd + 1 < config.rounds:
                priors = refine_priors(summary, priors, config, seed + rnd)
        converged = summary.converged
        picked = estimated[rows]
        mean[rows] = np.where(picked[:, :, None], summary.cts.mean, mean[rows])
        var[rows] = np.where(picked[:, :, None], summary.cts.variance, var[rows])
        rhat[rows] = np.where(picked, summary.rhat, np.nan)
        mu_hat[rows] = summary.mu_hat
        sigma_hat[rows] = summary.sigma_hat
        noise_hat[rows] = summary.noise_hat

    cts = CtsTensor(genes=bulk.genes, cell_types=cell_types, samples=bulk.samples,
                    mean=mean, variance=var)
    return PosteriorSummary(cts=cts, mu_hat=mu_hat, sigma_hat=sigma_hat,
                            noise_hat=noise_hat, rhat=rhat, converged=converged,
                            estimated=estimated)
