"""Core domain types with validation.

All types are immutable after construction (each keeps a read-only copy of
the arrays it is given) and safe to share across threads. The priors of all
genes and the metadata of all samples are each one record of arrays
(``GenePriors``, ``SampleMetas``). Every list of IDs is checked here:
``_check_unique`` finds a repeated ID, of a record or a table's lines, and
every join of inputs by ID, one to one or not, goes through ``_positions``:
a missing ID is one ``ValidationError`` in one wording, naming up to five.
Every ID-keyed array of a record goes through ``_array``, the one check of
unique IDs, a shape that matches them and finite values, each error naming
what failed; a record checks only the rules that are its own. Every
``take`` only reorders a checked record, so checks nothing again.
A covariance is positive definite when it has a finite Cholesky factor
(``_factor``); ``GenePriors`` takes each prior's factor once and keeps it.
"""
from __future__ import annotations

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


def _first_five(keys: list) -> str:
    """Up to five of ``keys``, and how many more there are."""
    more = f" and {len(keys) - 5} more" if len(keys) > 5 else ""
    return f"{', '.join(map(repr, keys[:5]))}{more}"


def _positions(axis, keys, what: str, keys_what: str | None = None) -> np.ndarray:
    """The position in ``axis`` of each of ``keys``. A key not in ``axis``
    raises a ``ValidationError`` naming ``what`` (the axis) and up to five
    of the missing keys; given ``keys_what``, so does an entry of ``axis``
    not in ``keys``, naming ``keys_what``: the join is then one to one."""
    index = {k: i for i, k in enumerate(axis)}
    pos = np.fromiter((index.get(k, -1) for k in keys), dtype=np.intp, count=len(keys))
    if (pos < 0).any():
        missing = list(dict.fromkeys(k for k, p in zip(keys, pos) if p < 0))
        raise ValidationError(f"missing from {what}: {_first_five(missing)}")
    if keys_what is not None:
        _positions(keys, axis, keys_what)
    return pos


def _reject_first(ids: list[str], bad: np.ndarray, message: str, values=None) -> None:
    """Raise ``message``, formatted with the first flagged ID and its value."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(message.format(ids[i], None if values is None else values[i]))


def _array(values, *axes: tuple) -> np.ndarray:
    """``values`` frozen, given one ``(ids, what)`` per dimension (``ids`` None:
    any length): the one check of an ID-keyed array. The IDs are unique and as
    many as the dimension is long; a value that is not finite names its row's ID."""
    for ids, what in axes:
        if ids is not None:
            _check_unique(ids, what)
    v = _freeze(values)
    if v.ndim != len(axes) or any(ids is not None and n != len(ids)
                                  for n, (ids, _) in zip(v.shape, axes)):
        raise ValidationError(f"values of shape {v.shape} do not match " + ", ".join(
            f"any number of {w}s" if ids is None else f"{len(ids)} {w}s" for ids, w in axes))
    _reject_first(axes[0][0], ~np.isfinite(v).all(axis=tuple(range(1, v.ndim))),
                  f"non-finite value for {axes[0][1]} {{!r}}")
    return v


def _factor(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chol of each matrix of a (G, C, C) stack, and where it is finite: the one
    positive-definiteness test. Only when the batched call raises is each
    half of the stack factored alone, down to one matrix left NaN where it
    fails, so k failures cost O(k log G) calls; non-finite input gives NaN or
    inf without raising."""
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        half = len(stack) // 2
        chol = (np.concatenate([_factor(stack[:half])[0], _factor(stack[half:])[0]])
                if half else np.full(stack.shape, np.nan))
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
        _set(self, values=_array(self.values, (self.genes, "gene ID"),
                                 (self.samples, "sample ID")))

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
        axes = ((self.genes, "gene ID"), (self.cell_types, "cell type"),
                (self.samples, "sample ID"))
        mean, variance = _array(self.mean, *axes), _array(self.variance, *axes)
        _reject_first(self.genes, (variance < 0).any(axis=(1, 2)),
                      "negative variance for gene ID {!r}")
        _set(self, mean=mean, variance=variance)


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
        axis, cell_types = (genes, "gene ID"), (None, "cell type")
        mu = _array(self.mu, axis, cell_types)
        sigma = _array(self.sigma, axis, cell_types, cell_types)
        noise_var = _array(self.noise_var, axis)
        C = mu.shape[1]
        if C < 1 or sigma.shape[1:] != (C, C):
            raise ValidationError(f"prior shapes {mu.shape}/{sigma.shape} do not match: "
                                  "sigma must be (G, C, C) for mu (G, C), C >= 1")
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
        rows = (ids, "sample meta ID")
        w = _array(self.proportions, rows, (cell_types, "cell type"))
        c1 = _array(self.bulk_cov, rows, (None, "bulk covariate"))
        c2 = _array(self.cts_cov, rows, (None, "cts covariate"))
        _reject_first(ids, (w < 0).any(axis=1), "negative proportion (sample {!r})")
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
    provenance: dict[tuple[str, str], str] = field(default_factory=dict)  # pair_key -> tag
    scores: dict[tuple[str, str], float] = field(default_factory=dict)

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


def pair_key(gene: str, cell_type: str) -> tuple[str, str]:
    """The key of a pair in ``provenance`` and ``scores``: the pair itself, so
    that no two pairs share one, whatever characters their names hold."""
    return gene, cell_type
