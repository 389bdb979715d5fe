import json

import numpy as np
import pytest

from pgospa import (
    BernoulliComponent,
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MetricParams,
    SchemaError,
    append_zero_components,
    mb_from_dict,
    mb_to_dict,
    mbm_from_dict,
    points_from_dict,
    serialize_mb,
)

from conftest import make_mb


def mb_doc(components):
    return {"components": components}


def gauss(r, mean, cov):
    return {"r": r, "density": {"type": "gaussian", "mean": mean, "cov": cov}}


def test_empty_component_list_is_valid():
    mb = mb_from_dict(mb_doc([]))
    assert len(mb) == 0
    assert mb.dim is None


def test_single_component_passes_through():
    mb = mb_from_dict(mb_doc([gauss(0.7, [2.0], [[1.0]])]))
    assert len(mb) == 1
    assert mb.components[0].r == 0.7
    assert mb.dim == 1


def test_existence_probability_out_of_range():
    with pytest.raises(SchemaError, match="existence probability out of range"):
        mb_from_dict(mb_doc([gauss(1.2, [0.0], [[1.0]])]))
    with pytest.raises(SchemaError, match="existence probability out of range"):
        mb_from_dict(mb_doc([gauss(-0.1, [0.0], [[1.0]])]))


def test_integer_entries_beyond_64_bits_are_numbers():
    mb = mb_from_dict(mb_doc([gauss(1, [10**20, 0], [[10**30, 0], [0, 1]])]))
    assert mb.components[0].r == 1.0
    assert mb.components[0].density.mean.tolist() == [1e20, 0.0]
    assert mb.components[0].density.cov[0, 0] == 1e30


def test_zero_existence_needs_relaxation_flag():
    doc = mb_doc([gauss(0.0, [0.0], [[1.0]])])
    with pytest.raises(SchemaError):
        mb_from_dict(doc)
    mb = mb_from_dict(doc, allow_zero_existence=True)
    assert mb.components[0].r == 0.0


def test_dimension_mismatch_across_components():
    doc = mb_doc([gauss(0.5, [0.0], [[1.0]]), gauss(0.5, [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])])
    with pytest.raises(DimensionMismatchError):
        mb_from_dict(doc)


def test_covariance_symmetrized_within_tolerance():
    eps = 5e-10
    mb = mb_from_dict(mb_doc([gauss(0.5, [0.0, 0.0], [[1.0, eps], [0.0, 1.0]])]))
    cov = mb.components[0].density.cov
    assert np.array_equal(cov, cov.T)


def test_covariance_asymmetry_beyond_tolerance_rejected():
    with pytest.raises(SchemaError, match="not symmetric"):
        mb_from_dict(mb_doc([gauss(0.5, [0.0, 0.0], [[1.0, 1e-6], [0.0, 1.0]])]))


def test_covariance_negative_eigenvalue_clamped():
    # eigenvalues 1 and -5e-10: within the clamp band
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cov = (v * np.array([1.0, -5e-10])) @ v.T
    cov = (cov + cov.T) / 2
    mb = mb_from_dict(mb_doc([gauss(0.5, [0.0, 0.0], cov.tolist())]))
    assert np.linalg.eigvalsh(mb.components[0].density.cov).min() >= 0.0


def test_covariance_eigenvalue_below_band_rejected():
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cov = (v * np.array([1.0, -1e-6])) @ v.T
    cov = (cov + cov.T) / 2
    with pytest.raises(SchemaError, match="eigenvalue"):
        mb_from_dict(mb_doc([gauss(0.5, [0.0, 0.0], cov.tolist())]))


def test_loader_round_trip_is_byte_stable(rng):
    for _ in range(50):
        mb = make_mb(rng, 4, int(rng.integers(1, 4)))
        text1 = serialize_mb(mb_from_dict(mb_to_dict(mb)))
        text2 = serialize_mb(mb_from_dict(json.loads(text1)))
        assert text1 == text2


def test_round_trip_with_clamped_covariance():
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cov = (v * np.array([2.0, -9e-10])) @ v.T
    cov = (cov + cov.T) / 2
    doc = mb_doc([gauss(0.9, [1.0, -1.0], cov.tolist())])
    text1 = serialize_mb(mb_from_dict(doc))
    text2 = serialize_mb(mb_from_dict(json.loads(text1)))
    assert text1 == text2


def test_append_zero_components():
    mb = mb_from_dict(mb_doc([gauss(0.7, [2.0], [[1.0]])]))
    assert append_zero_components(mb, 0) is mb
    padded = append_zero_components(mb, 2)
    assert len(padded) == 3
    assert padded.components[1].r == 0.0
    assert padded.components[2].r == 0.0

    empty = MBDensity()
    padded = append_zero_components(empty, 3, dim=2)
    assert len(padded) == 3
    assert all(c.r == 0.0 for c in padded.components)

    with pytest.raises(ValueError):
        append_zero_components(mb, -1)


def test_metric_params_validation():
    MetricParams(c=5.0, p=1.0, alpha=2.0)
    with pytest.raises(ValueError):
        MetricParams(c=0.0)
    with pytest.raises(ValueError):
        MetricParams(p=0.5)
    with pytest.raises(ValueError):
        MetricParams(alpha=2.5)
    with pytest.raises(ValueError):
        MetricParams(alpha=0.0)


def test_bernoulli_component_type_checks():
    with pytest.raises(SchemaError):
        BernoulliComponent(float("nan"), DiracDensity([0.0]))
    with pytest.raises(SchemaError):
        BernoulliComponent(0.5, "not a density")


def test_mixture_renormalizes_and_warns():
    mb = mb_doc([gauss(0.5, [0.0], [[1.0]])])
    with pytest.warns(UserWarning, match="renormalizing"):
        mix = mbm_from_dict({"mixture": [{"weight": 0.5, "mb": mb}, {"weight": 0.6, "mb": mb}]})
    assert abs(sum(w for w, _ in mix.entries) - 1.0) <= 1e-12

    with pytest.raises(SchemaError):
        mbm_from_dict({"mixture": []})
    with pytest.raises(SchemaError):
        mbm_from_dict({"mixture": [{"weight": -0.2, "mb": mb}]})


def test_points_schema():
    pts = points_from_dict({"points": [[0.0, 1.0], [2.0, 3.0]]})
    assert pts.shape == (2, 2)
    assert points_from_dict({"points": []}).shape == (0, 0)
    with pytest.raises(SchemaError):
        points_from_dict({"points": [[0.0], [1.0, 2.0]]})
    with pytest.raises(SchemaError):
        points_from_dict({"points": [[float("inf")]]})
    with pytest.raises(SchemaError):
        points_from_dict({"nope": []})


def test_densities_are_read_only():
    mb = mb_from_dict(mb_doc([gauss(0.7, [2.0], [[1.0]])]))
    with pytest.raises(ValueError):
        mb.components[0].density.mean[0] = 5.0


def clamp_band_cov(rng, dim):
    """Symmetric covariance whose smallest eigenvalue lies in the clamp
    band (-1e-9, 0)."""
    v = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    w = rng.uniform(0.5, 3.0, dim)
    w[0] = -rng.uniform(1e-12, 9e-10)
    cov = (v * w) @ v.T
    return ((cov + cov.T) / 2).tolist()


def test_document_arrays_equal_component_arrays(rng):
    clamped = 0
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        docs, objs = [], []
        for _ in range(int(rng.integers(0, 12))):
            r = float(rng.uniform(0.05, 1.0))
            mean = rng.uniform(-5, 5, dim).tolist()
            u = rng.random()
            if u < 0.3:
                docs.append({"r": r, "density": {"type": "dirac", "location": mean}})
                objs.append(BernoulliComponent(r, DiracDensity(mean)))
                continue
            if u < 0.6:
                cov = clamp_band_cov(rng, dim)
                clamped += 1
            else:
                A = rng.normal(size=(dim, dim))
                cov = (A @ A.T + 0.05 * np.eye(dim)).tolist()
            docs.append(gauss(r, mean, cov))
            objs.append(BernoulliComponent(r, GaussianDensity(mean, cov)))
        mb = mb_from_dict(mb_doc(docs))
        ref = MBDensity(objs)
        for name in ("r", "means", "covs", "dirac"):
            got, want = getattr(mb, name), getattr(ref, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable and not want.flags.writeable
        text = serialize_mb(mb)
        assert serialize_mb(ref) == text
        assert serialize_mb(mb_from_dict(json.loads(text))) == text
    assert clamped > 50


def test_components_are_views_of_the_arrays():
    dirac = {"r": 0.4, "density": {"type": "dirac", "location": [1.0]}}
    mb = mb_from_dict(mb_doc([gauss(0.7, [2.0], [[1.0]]), dirac]))
    assert mb[0].r == 0.7 and mb[0].density.cov.tolist() == [[1.0]]
    assert isinstance(mb[-1].density, DiracDensity)
    assert mb[-1].density.location.tolist() == [1.0]
    assert [c.r for c in mb.components] == mb.r.tolist() == [0.7, 0.4]
    assert mb.dirac.tolist() == [False, True] and mb.covs[1].tolist() == [[0.0]]
    with pytest.raises(IndexError):
        mb[2]
