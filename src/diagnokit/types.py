"""Core domain types with validation.

All types are immutable after construction (each keeps a read-only copy of
the arrays it is given) and safe to share across threads. The priors of all
genes and the metadata of all samples are each one record of arrays
(``GenePriors``, ``SampleMetas``). Every list of IDs is checked here:
``_check_unique`` finds a repeated ID, of a record or a table's lines, and
every join of inputs by ID, one to one or not, goes through ``_positions``:
a missing ID is one ``ValidationError`` in one wording, naming up to five.
A covariance is positive definite when it has a finite Cholesky factor
(``_factor``); ``GenePriors`` takes each prior's factor once and keeps it.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

PROPORTION_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy: the caller's array stays writable, and later
    writes to it do not reach the record."""
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


def _set(record, **fields) -> None:
    """Set fields of a frozen record: its checked values, or a reordering."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)


def _check_unique(ids, what: str, lines=None) -> None:
    """Raise at the first ID of ``ids`` that repeats an earlier one: a
    ``ValidationError``, or, given each ID's line number in ``lines``, a
    ``ParseError`` at its line that names the first one's."""
    if len(set(ids)) == len(ids):
        return
    first: dict = {}
    i = next(i for i, x in enumerate(ids) if first.setdefault(x, i) != i)
    if lines is None:
        raise ValidationError(f"duplicate {what} {ids[i]!r}")
    raise ParseError(f"duplicate {what} {ids[i]!r} (first on line {lines[first[ids[i]]]})",
                     line=lines[i])


def _positions(axis, keys, what: str, keys_what: str | None = None) -> np.ndarray:
    """The position in ``axis`` of each of ``keys``. A key not in ``axis``
    raises a ``ValidationError`` naming ``what`` (the axis) and up to five
    of the missing keys; given ``keys_what``, so does an entry of ``axis``
    not in ``keys``, naming ``keys_what``: the join is then one to one."""
    index = {k: i for i, k in enumerate(axis)}
    pos = np.fromiter((index.get(k, -1) for k in keys), dtype=np.intp, count=len(keys))
    if (pos < 0).any():
        missing = list(dict.fromkeys(k for k, p in zip(keys, pos) if p < 0))
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise ValidationError(f"missing from {what}: "
                              f"{', '.join(map(repr, missing[:5]))}{more}")
    if keys_what is not None:
        _positions(keys, axis, keys_what)
    return pos


def _factor(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chol of each matrix of a (G, C, C) stack, and where it is finite: the one
    positive-definiteness test. Only when the batched call raises is each
    matrix factored alone, left NaN where it fails; non-finite input gives
    NaN or inf without raising."""
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        chol = np.full(stack.shape, np.nan)
        for i, s in enumerate(stack):
            with suppress(np.linalg.LinAlgError):
                chol[i] = np.linalg.cholesky(s)
    return chol, np.isfinite(chol).all(axis=(1, 2))


def _cholesky(stack: np.ndarray, ids: list[str], message: str) -> np.ndarray:
    """chol of each matrix of ``stack``, or a ``ValidationError``: ``message``
    formatted with the first ID whose matrix has none."""
    chol, ok = _factor(stack)
    _reject_first(ids, ~ok, message)
    return chol


@dataclass(frozen=True)
class BulkMatrix:
    """Observed bulk expression, genes x samples, log-scale normalized."""

    genes: list[str]
    samples: list[str]
    values: np.ndarray

    def __post_init__(self):
        if len(self.genes) < 1 or len(self.samples) < 1:
            raise ValidationError("BulkMatrix requires at least one gene and one sample")
        _check_unique(self.genes, "gene ID")
        _check_unique(self.samples, "sample ID")
        v = _freeze(self.values)
        if v.shape != (len(self.genes), len(self.samples)):
            raise ValidationError(
                f"values shape {v.shape} does not match {len(self.genes)}x{len(self.samples)}"
            )
        if not np.isfinite(v).all():
            raise ValidationError("BulkMatrix contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def n_genes(self) -> int:
        return len(self.genes)

    @property
    def n_samples(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class CtsTensor:
    """Cell-type-specific expression with per-entry posterior mean and variance."""

    genes: list[str]
    cell_types: list[str]
    samples: list[str]
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        _check_unique(self.genes, "gene ID")
        _check_unique(self.cell_types, "cell type")
        _check_unique(self.samples, "sample ID")
        shape = (len(self.genes), len(self.cell_types), len(self.samples))
        m = _freeze(self.mean)
        v = _freeze(self.variance)
        if m.shape != shape or v.shape != shape:
            raise ValidationError(f"tensor shapes {m.shape}/{v.shape} do not match axes {shape}")
        if not (np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValidationError("CtsTensor contains non-finite values")
        if (v < 0).any():
            raise ValidationError("CtsTensor variance must be non-negative")
        _set(self, mean=m, variance=v)


@dataclass(frozen=True)
class GenePriors:
    """Normal priors over the C-vector of cell-type expression, one per gene.

    ``mu`` is (G, C), ``sigma`` (G, C, C) and ``noise_var`` (G,), in the
    order of ``genes``. Each check runs once over all genes and names the
    first gene that fails it, and ``chol`` (no argument) holds chol(sigma).
    """

    genes: list[str]
    mu: np.ndarray
    sigma: np.ndarray
    noise_var: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        genes = list(self.genes)
        _check_unique(genes, "gene ID")
        mu = _freeze(self.mu)
        sigma = _freeze(self.sigma)
        noise_var = _freeze(self.noise_var)
        G, C = len(genes), (mu.shape[1] if mu.ndim == 2 else 0)
        if mu.shape != (G, C) or C < 1 or sigma.shape != (G, C, C) or noise_var.shape != (G,):
            raise ValidationError(f"prior shapes {mu.shape}/{sigma.shape}/{noise_var.shape} "
                                  f"inconsistent for {G} genes")
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(sigma).all(axis=(1, 2))
        _reject_first(genes, ~finite, "non-finite prior for gene {!r}")
        _reject_first(genes, np.abs(sigma - np.swapaxes(sigma, 1, 2)).max(axis=(1, 2)) > 1e-10,
                      "sigma not symmetric for gene {!r}")
        chol = _cholesky(sigma, genes, "sigma not positive definite for gene {!r}")
        _reject_first(genes, ~(noise_var > 0), "noise_var must be positive for gene {!r}")
        _set(self, genes=genes, mu=mu, sigma=sigma, noise_var=noise_var, chol=_freeze(chol))

    def take(self, genes: list[str]) -> GenePriors:
        """The priors of ``genes``, in that order; every gene must have one."""
        _check_unique(genes, "gene ID")
        rows = _positions(self.genes, genes, "gene priors")
        taken = object.__new__(GenePriors)  # only reordered: not checked or factored again
        _set(taken, genes=list(genes), mu=_freeze(self.mu[rows]),
             sigma=_freeze(self.sigma[rows]), noise_var=_freeze(self.noise_var[rows]),
             chol=_freeze(self.chol[rows]))
        return taken


def _reject_first(ids: list[str], bad: np.ndarray, message: str, values=None) -> None:
    """Raise ``message``, formatted with the first flagged ID and its value."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(message.format(ids[i], None if values is None else values[i]))


@dataclass(frozen=True)
class SampleMetas:
    """Proportions (N, C) over ``cell_types``, ``bulk_cov`` (N, d1) and ``cts_cov``
    (N, d2) of ``sample_ids``, checked once over all samples, naming the first
    that fails. Rows within ``PROPORTION_TOL`` of the simplex are renormalized,
    once, here; anything further off is rejected."""

    sample_ids: list[str]
    cell_types: list[str]
    proportions: np.ndarray
    bulk_cov: np.ndarray
    cts_cov: np.ndarray

    def __post_init__(self):
        ids, cell_types = list(self.sample_ids), list(self.cell_types)
        _check_unique(ids, "sample meta ID")
        _check_unique(cell_types, "cell type")
        w, c1, c2 = _freeze(self.proportions), _freeze(self.bulk_cov), _freeze(self.cts_cov)
        N = len(ids)
        if (not cell_types or w.shape != (N, len(cell_types)) or (c1.ndim, c2.ndim) != (2, 2)
                or len(c1) != N or len(c2) != N):
            raise ValidationError(f"sample meta shapes {w.shape}/{c1.shape}/{c2.shape} "
                                  f"inconsistent for {N} samples, {len(cell_types)} cell types")
        _reject_first(ids, ~np.isfinite(np.hstack([w, c1, c2])).all(axis=1) | (w < 0).any(axis=1),
                      "non-finite value or negative proportion (sample {!r})")
        total = w.sum(axis=1)
        _reject_first(ids, np.abs(total - 1.0) > PROPORTION_TOL,
                      "proportions sum to {1:.10g}, outside simplex tolerance (sample {0!r})",
                      total)
        _set(self, sample_ids=ids, cell_types=cell_types, proportions=_freeze(w / total[:, None]),
             bulk_cov=c1, cts_cov=c2)

    def take(self, sample_ids: list[str], cell_types: list[str]) -> SampleMetas:
        """The record joined one to one to the bulk ``sample_ids`` and the reference
        ``cell_types``, in their orders; only reordered, so not renormalized."""
        rows = _positions(self.sample_ids, sample_ids, "sample metas", "bulk samples")
        cols = _positions(self.cell_types, cell_types, "sample meta cell types",
                          "reference cell types")
        taken = object.__new__(SampleMetas)  # no __post_init__, so no second division
        _set(taken, sample_ids=list(sample_ids), cell_types=list(cell_types),
             proportions=_freeze(self.proportions[np.ix_(rows, cols)]),
             bulk_cov=_freeze(self.bulk_cov[rows]), cts_cov=_freeze(self.cts_cov[rows]))
        return taken


@dataclass(frozen=True)
class RefinementConfig:
    """MCMC and prior-refinement settings.

    ``nu`` may be None, in which case C + 2 is used at refinement time.
    """

    tau: float = 0.1
    nu: float | None = None
    rounds: int = 2
    chains: int = 4
    iters: int = 2000
    burnin: int | None = None
    rhat_threshold: float = 1.05

    def __post_init__(self):
        if not self.tau >= 0:
            raise ValidationError("tau must be non-negative")
        if self.rounds < 1:
            raise ValidationError("rounds must be a positive integer")
        if self.chains < 2:
            raise ValidationError("chains must be >= 2")
        if self.iters < 1:
            raise ValidationError("iters must be positive")
        burnin = self.iters // 2 if self.burnin is None else self.burnin
        if not 0 <= burnin < self.iters:
            raise ValidationError("burnin must satisfy 0 <= burnin < iters")
        object.__setattr__(self, "burnin", burnin)
        if not self.rhat_threshold > 1:
            raise ValidationError("rhat_threshold must exceed 1")

    def resolved_nu(self, n_cell_types: int) -> float:
        nu = float(n_cell_types + 2) if self.nu is None else float(self.nu)
        if nu < n_cell_types + 2:
            raise ValidationError(f"nu must be >= C + 2 = {n_cell_types + 2}")
        return nu


@dataclass(frozen=True)
class PairSelection:
    """Selected (gene, cell type) pairs with provenance and DE scores."""

    pairs: frozenset[tuple[str, str]]
    provenance: dict[str, str] = field(default_factory=dict)  # "gene|cell_type" -> tag
    scores: dict[str, float] = field(default_factory=dict)

    VALID_TAGS = ("marker", "stability", "both")

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for pair in self.pairs:
            key = pair_key(*pair)
            tag = self.provenance.get(key)
            if tag not in self.VALID_TAGS:
                raise ValidationError(f"pair {pair} has missing or invalid provenance {tag!r}")

    def genes(self) -> list[str]:
        return sorted({g for g, _ in self.pairs})


def pair_key(gene: str, cell_type: str) -> str:
    return f"{gene}|{cell_type}"
