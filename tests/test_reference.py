"""Reference dataset handling and empirical prior estimation."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.errors import ValidationError
from diagnokit.io import load_reference, save_reference
from diagnokit.reference import ReferenceDataset, estimate_priors, signature_matrix

from oracles import regularize_spd


def _ref(values, labels, genes=None):
    n = values.shape[1]
    return ReferenceDataset(genes=genes or [f"g{i}" for i in range(values.shape[0])],
                            cells=[f"c{i}" for i in range(n)],
                            cell_type_labels=labels, values=values)


def test_requires_two_cells_per_type():
    with pytest.raises(ValidationError, match="fewer than 2"):
        _ref(np.zeros((1, 3)), ["a", "a", "b"])


def test_cell_types_sorted_and_columns():
    ref = _ref(np.zeros((1, 4)), ["b", "a", "b", "a"])
    assert ref.cell_types == ["a", "b"]
    assert ref.type_columns("a").tolist() == [1, 3]


def test_signature_matrix_hand_oracle():
    values = np.array([[1.0, 3.0, 10.0, 20.0],
                       [2.0, 4.0, 30.0, 50.0]])
    ref = _ref(values, ["a", "a", "b", "b"])
    sig = signature_matrix(ref)
    assert np.allclose(sig, [[2.0, 15.0], [3.0, 40.0]])


def test_estimate_priors_spd_and_mean():
    rng = np.random.default_rng(0)
    ref = _ref(rng.normal(5.0, 1.0, (4, 20)), ["a"] * 10 + ["b"] * 10)
    priors = estimate_priors(ref, shrinkage=0.5, seed=0)
    assert priors.genes == ref.genes
    assert np.allclose(priors.mu, signature_matrix(ref))
    assert np.isfinite(np.linalg.cholesky(priors.sigma)).all()
    assert (priors.noise_var > 0).all()


def test_estimate_priors_full_shrinkage_near_diagonal():
    rng = np.random.default_rng(1)
    ref = _ref(rng.normal(0.0, 1.0, (3, 24)), ["a"] * 12 + ["b"] * 12)
    sigma = estimate_priors(ref, shrinkage=1.0, seed=0).sigma
    off = sigma * (1.0 - np.eye(2))
    assert np.abs(off).max() < 1e-12


def test_estimate_priors_recovers_cross_type_covariance():
    # donor-aligned reference: both types share a per-donor latent draw, so
    # aligned pseudo-replicates should see a strongly positive correlation
    rng = np.random.default_rng(2)
    n_donor = 60
    donor = rng.normal(0.0, 1.0, n_donor)
    a = donor + rng.normal(0.0, 0.1, n_donor)
    b = donor + rng.normal(0.0, 0.1, n_donor)
    ref = _ref(np.concatenate([a, b])[None, :], ["a"] * n_donor + ["b"] * n_donor)
    (sigma,) = estimate_priors(ref, shrinkage=0.0, seed=0).sigma
    corr = sigma[0, 1] / np.sqrt(sigma[0, 0] * sigma[1, 1])
    assert corr > 0.8


def test_estimate_priors_shrinkage_validation():
    ref = _ref(np.zeros((1, 4)), ["a", "a", "b", "b"])
    with pytest.raises(ValidationError):
        estimate_priors(ref, shrinkage=1.5)


def test_regularize_spd_fixes_indefinite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    fixed = regularize_spd(bad, np.trace(bad))
    assert np.isfinite(np.linalg.cholesky(fixed)).all()


def test_reference_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    ref = _ref(rng.normal(size=(3, 6)), ["a", "b", "a", "b", "a", "b"])
    save_reference(ref, tmp_path / "ref.tsv", tmp_path / "labels.json")
    loaded = load_reference(tmp_path / "ref.tsv", tmp_path / "labels.json")
    assert loaded.genes == ref.genes
    assert loaded.cell_type_labels == ref.cell_type_labels
    assert np.array_equal(loaded.values, ref.values)
