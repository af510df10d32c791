"""Blocked Gibbs inference of cell-type-specific expression from bulk mixtures.

The model, per gene g and sample i with proportions w_i:

    z_gi ~ N(mu_g, Sigma_g)
    x_gi = w_i' z_gi + gamma_g' c1_i + w_i' B_g c2_i + eps,  eps ~ N(0, s2_g)

All conditionals are conjugate: z from a Gaussian, drawn pathwise, (gamma, B)
from a joint Bayesian linear regression draw, s2 from an Inverse-Gamma. A run
takes chol(Sigma_g) once (a failure names the gene) and one eigendecomposition
of the design Gram matrix (``kernels.prepare``), with no NaN path in the
sweep. Multiple chains run from over-dispersed starts; convergence is checked with split R-hat on the
per-(gene, cell type) sample-averaged draw trace, gated at the configured
threshold. Two-stage prior refinement re-estimates (mu, Sigma) from posterior
moments and redraws them through a Normal / Inverse-Wishart step: one normal
draw for every mean, and every covariance from the Bartlett decomposition
(Smith & Hocking 1972), Sigma = T'T with T = (chol(scale^-1) A)^-1 for a
lower-triangular A of chi and standard normal draws, all genes in one array
pass. Draws that are not finite and positive definite are redrawn; the
redraws and the covariance jitter rescues are counted, never silent.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import RunFactors, prepare, resolve_backend
from .reference import DEFAULT_SHRINKAGE, ReferenceDataset, _regularize_spd_all, estimate_priors
from .types import (AdjustmentParams, BulkMatrix, CtsTensor, GenePriors, PairSelection,
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
    rescues: dict[str, int] | None = None  # numerical rescue counts, deconvolve only


def z_conditional(mu: np.ndarray, sigma: np.ndarray, noise_var: float, x_gi: float,
                  meta: SampleMeta, adj: AdjustmentParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian full conditional of z for one (gene, sample), given the
    gene's prior mean, covariance and noise variance."""
    w = meta.proportions
    r = float(x_gi) - float(adj.gamma @ meta.bulk_cov) - float(w @ (adj.b @ meta.cts_cov))
    if not np.isfinite(r):
        raise ValidationError("non-finite residual target")
    sig_inv = np.linalg.inv(sigma)
    prec = sig_inv + np.outer(w, w) / noise_var
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (sig_inv @ mu + w * (r / noise_var))
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


def _stack_inputs(bulk: BulkMatrix, priors: GenePriors, metas: list[SampleMeta]):
    if priors.genes != list(bulk.genes):
        raise ValidationError("priors must list the bulk genes in bulk order "
                              "(GenePriors.take reorders them)")
    metas = _align_metas(bulk.samples, metas)
    w = np.stack([m.proportions for m in metas])
    if w.shape[1] != priors.mu.shape[1]:
        raise ValidationError("meta proportions dimension does not match priors")
    if len({(m.bulk_cov.size, m.cts_cov.size) for m in metas}) > 1:
        raise ValidationError("sample metas disagree on covariate lengths")
    c1 = np.stack([m.bulk_cov for m in metas])
    c2 = np.stack([m.cts_cov for m in metas])
    chol = _cholesky(priors.sigma, priors.genes, "prior covariance")
    return c1, c2, prepare(w, c1, c2, chol, priors.mu)


def _run_sweep(state: ChainState, x, factors: RunFactors, hyper: HyperParams,
               sweep_fn) -> None:
    G, N = x.shape
    C = factors.mu.shape[1]
    p = factors.design.shape[1]
    rng = state.rng
    eps_z = rng.standard_normal((G, N, C))
    eps_coef = rng.standard_normal((G, max(p, 1)))[:, :p]
    gamma_draws = rng.gamma(hyper.noise_a0 + 0.5 * N, 1.0, G)
    sweep_fn(x, factors, state.z, state.gamma, state.b, state.noise_var, eps_z, eps_coef,
             gamma_draws, 1.0 / hyper.coef_prior_var, hyper.noise_b0,
             hyper.update_coef, hyper.update_noise)
    state.iteration += 1


def gibbs_sweep(state: ChainState, bulk: BulkMatrix, priors: GenePriors,
                metas: list[SampleMeta], hyper: HyperParams | None = None) -> ChainState:
    """Advance the chain by one full sweep (z, then coefficients, then noise)."""
    hyper = hyper or HyperParams()
    _, _, factors = _stack_inputs(bulk, priors, metas)
    if state.z.shape != (bulk.n_genes, bulk.n_samples, factors.mu.shape[1]):
        raise ValidationError("chain state z shape does not match inputs")
    _run_sweep(state, bulk.values, factors, hyper, resolve_backend())
    return state


def init_chain(bulk: BulkMatrix, priors: GenePriors, metas: list[SampleMeta],
               rng: np.random.Generator, overdispersion: float = 2.0) -> ChainState:
    """Over-dispersed start: prior draws with deviations scaled up."""
    c1, c2, factors = _stack_inputs(bulk, priors, metas)
    return _start_chain(factors.chol, priors, bulk.n_samples, c1, c2, rng, overdispersion)


def _start_chain(chol: np.ndarray, priors: GenePriors, n_samples: int, c1: np.ndarray,
                 c2: np.ndarray, rng: np.random.Generator,
                 overdispersion: float = 2.0) -> ChainState:
    G, C = priors.mu.shape
    eps = rng.standard_normal((G, n_samples, C))
    z0 = priors.mu[:, None, :] + overdispersion * np.einsum("gcd,gnd->gnc", chol, eps)
    return ChainState(z=z0, gamma=np.zeros((G, c1.shape[1])),
                      b=np.zeros((G, C, c2.shape[1])), noise_var=priors.noise_var.copy(),
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


def split_rhat_all(traces: np.ndarray) -> np.ndarray:
    """``split_rhat`` of every scalar trace in one array pass.

    ``traces`` has shape (chains, draws, ...); the result has the trailing
    shape. It is NaN everywhere when fewer than 4 draws are retained, and
    follows ``split_rhat`` otherwise, degenerate sets included.
    """
    m, draws = traces.shape[:2]
    rest = traces.shape[2:]
    if draws < 4:
        return np.full(rest, np.nan)
    n = draws // 2
    halves = traces[:, draws % 2:].reshape((2 * m, n) + rest)
    w_var = halves.var(axis=1, ddof=1).mean(axis=0)
    b_var = n * halves.mean(axis=1).var(axis=0, ddof=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rhat = np.sqrt(((n - 1) / n * w_var + b_var / n) / w_var)
    return np.where(w_var == 0.0, np.where(b_var == 0.0, 1.0, np.inf), rhat)


def run_mcmc(bulk: BulkMatrix, priors: GenePriors, metas: list[SampleMeta],
             config: RefinementConfig, seed: int,
             hyper: HyperParams | None = None,
             cell_types: list[str] | None = None,
             rescues: dict[str, int] | None = None) -> PosteriorSummary:
    """Multi-chain Gibbs sampling with pooled posterior moments and R-hat.

    ``rescues``, when given, counts the genes whose sigma_hat needed more than
    the first jitter step (``_regularize_spd_all``)."""
    hyper = hyper or HyperParams()
    c1, c2, factors = _stack_inputs(bulk, priors, metas)
    G, N = bulk.n_genes, bulk.n_samples
    C = factors.mu.shape[1]
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
    sample_mean = np.full(N, 1.0 / N)

    for ci in range(config.chains):
        rng = np.random.default_rng(chain_seeds[ci])
        state = _start_chain(factors.chol, priors, N, c1, c2, rng)
        for it in range(config.iters):
            _run_sweep(state, x, factors, hyper, sweep_fn)
            if it >= config.burnin:
                k = it - config.burnin
                sum_z += state.z
                sum_z2 += state.z ** 2
                sum_outer += np.swapaxes(state.z, 1, 2) @ state.z
                sum_noise += state.noise_var
                traces[ci, k] = sample_mean @ state.z

    total = config.chains * kept
    mean_z = sum_z / total
    var_z = np.maximum(sum_z2 / total - mean_z ** 2, 0.0)
    mu_hat = mean_z.mean(axis=1)
    sigma_hat = sum_outer / (total * N) - np.einsum("gc,gd->gcd", mu_hat, mu_hat)
    sigma_hat = _regularize_spd_all(sigma_hat, np.trace(sigma_hat, axis1=1, axis2=2),
                                    rescues)
    noise_hat = sum_noise / total

    rhat = split_rhat_all(traces)
    finite = rhat[np.isfinite(rhat)]
    converged = bool(finite.size == rhat.size and finite.size > 0
                     and finite.max() < config.rhat_threshold)

    cts = CtsTensor(genes=bulk.genes, cell_types=cell_types, samples=bulk.samples,
                    mean=np.transpose(mean_z, (0, 2, 1)),
                    variance=np.transpose(var_z, (0, 2, 1)))
    return PosteriorSummary(cts=cts, mu_hat=mu_hat, sigma_hat=sigma_hat,
                            noise_hat=noise_hat, rhat=rhat, converged=converged)


IW_TRIES = 100


def _bartlett_iw(chol_inv: np.ndarray, nu: float, rng: np.random.Generator) -> np.ndarray:
    """One IW(nu, scale) draw per gene, given L = chol(scale^-1) of each.

    Bartlett: with A lower triangular, A_ii = sqrt(chi2(nu - i)) and
    A_ij ~ N(0, 1) below the diagonal, L A A' L' ~ Wishart(nu, scale^-1), so
    its inverse T'T, T = (L A)^-1, is the draw (symmetric by construction).
    """
    G, C, _ = chol_inv.shape
    a = np.tril(rng.standard_normal((G, C, C)), -1)
    diag = np.arange(C)
    a[:, diag, diag] = np.sqrt(rng.chisquare(nu - diag, (G, C)))
    t = np.linalg.inv(chol_inv @ a)
    return np.swapaxes(t, 1, 2) @ t


def _cholesky(stack: np.ndarray, genes: list[str], what: str) -> np.ndarray:
    """chol of every matrix of ``stack``; the ``ValidationError`` names the
    first gene whose matrix has no Cholesky factor."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        for gene, s in zip(genes, stack):
            try:
                np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                raise ValidationError(f"{what} is not positive definite for {gene!r}") from None
        raise


def _spd(stack: np.ndarray) -> np.ndarray:
    """Mask of the finite, numerically positive definite matrices of a stack."""
    ok = np.isfinite(stack).all(axis=(1, 2))
    ok[ok] = np.linalg.eigvalsh(stack[ok])[:, 0] > 0
    return ok


def refine_priors(summary: PosteriorSummary, priors: GenePriors,
                  config: RefinementConfig, seed: int,
                  rescues: dict[str, int] | None = None) -> GenePriors:
    """Redraw each gene's prior around the posterior estimates.

    Mean from N(mu_hat, tau^2 I); covariance from an Inverse-Wishart whose
    scale is chosen so its expectation equals sigma_hat, drawn for all genes
    at once (``_bartlett_iw``). Genes whose draw is not finite and positive
    definite are redrawn, up to ``IW_TRIES`` draws in all; the redraws are
    added to ``rescues["iw_redraws"]`` when ``rescues`` is given.
    """
    C = priors.mu.shape[1]
    nu = config.resolved_nu(C)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5EED)))
    mu_new = (rng.normal(summary.mu_hat, config.tau) if config.tau > 0
              else summary.mu_hat.copy())
    # run_mcmc regularizes sigma_hat to be positive definite, so it has an inverse
    chol_inv = _cholesky(np.linalg.inv(summary.sigma_hat * (nu - C - 1)), priors.genes,
                         "inverse-Wishart scale")
    sigma_new = _bartlett_iw(chol_inv, nu, rng)
    pending = np.flatnonzero(~_spd(sigma_new))
    for _ in range(IW_TRIES - 1):
        if not pending.size:
            break
        if rescues is not None:
            rescues["iw_redraws"] += pending.size
        draw = _bartlett_iw(chol_inv[pending], nu, rng)
        ok = _spd(draw)
        sigma_new[pending[ok]] = draw[ok]
        pending = pending[~ok]
    if pending.size:
        raise ValidationError("inverse-Wishart retries exhausted for "
                              f"{priors.genes[pending[0]]!r}")
    return GenePriors(genes=priors.genes, mu=mu_new, sigma=sigma_new,
                      noise_var=summary.noise_hat.copy())


def deconvolve(bulk: BulkMatrix, ref: ReferenceDataset, selection: PairSelection,
               metas: list[SampleMeta], config: RefinementConfig, seed: int,
               shrinkage: float = DEFAULT_SHRINKAGE,
               hyper: HyperParams | None = None,
               round_summaries: list | None = None) -> PosteriorSummary:
    """Full pipeline: priors -> restrict to selected genes -> iterated MCMC.

    Runs ``config.rounds`` MCMC passes with a refinement step between passes.
    Output entries for unselected (gene, cell type) pairs carry the reference
    prior mean/variance and are flagged False in ``estimated``. ``rescues``
    counts the numerical rescues of the whole run: covariances that needed
    more than the first jitter step (``spd_jitter``) and inverse-Wishart
    redraws (``iw_redraws``), each summed over rounds.
    """
    cell_types = ref.cell_types
    C = len(cell_types)
    bulk_genes, known_types = set(bulk.genes), set(cell_types)
    for g, c in selection.pairs:
        if g not in bulk_genes or c not in known_types:
            raise ValidationError(f"selected pair ({g!r}, {c!r}) outside bulk/reference axes")

    rescues = {"iw_redraws": 0, "spd_jitter": 0}
    bulk_priors = estimate_priors(ref, shrinkage, seed=seed, rescues=rescues).take(bulk.genes)
    estimated = np.array([[(g, c) in selection.pairs for c in cell_types]
                          for g in bulk.genes])
    rows = np.flatnonzero(estimated.any(axis=1))  # genes the sampler runs on

    mu_hat = bulk_priors.mu.copy()
    sigma_hat = bulk_priors.sigma.copy()
    noise_hat = bulk_priors.noise_var.copy()
    N = bulk.n_samples
    mean = np.repeat(mu_hat[:, :, None], N, axis=2)
    var = np.repeat(np.diagonal(sigma_hat, axis1=1, axis2=2)[:, :, None], N, axis=2)
    rhat = np.full((bulk.n_genes, C), np.nan)
    converged = True

    if rows.size:
        sampled_genes = [bulk.genes[gi] for gi in rows]
        sub_bulk = BulkMatrix(genes=sampled_genes, samples=bulk.samples,
                              values=bulk.values[rows])
        priors = bulk_priors.take(sampled_genes)
        for rnd in range(config.rounds):
            summary = run_mcmc(sub_bulk, priors, metas, config, seed + rnd,
                               hyper=hyper, cell_types=cell_types, rescues=rescues)
            if round_summaries is not None:
                round_summaries.append(summary)
            if rnd + 1 < config.rounds:
                priors = refine_priors(summary, priors, config, seed + rnd, rescues)
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
                            estimated=estimated, rescues=rescues)
