import json
import sys

import numpy as np
import pytest

from pgospa import (
    BernoulliComponent,
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MBMixture,
    MetricParams,
    SchemaError,
    append_zero_components,
    mb_from_dict,
    mb_to_dict,
    mbm_from_dict,
    points_from_dict,
    serialize_mb,
)
from pgospa import model
from pgospa.cli import main

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
    MetricParams(c=sys.float_info.min, p=1.0, alpha=1.0)  # the smallest normal c**p / alpha
    MetricParams(c=1.5e-154, p=2.0, alpha=1.0)
    with pytest.raises(ValueError):
        MetricParams(c=0.0)
    with pytest.raises(ValueError):
        MetricParams(p=0.5)
    with pytest.raises(ValueError):
        MetricParams(alpha=2.5)
    with pytest.raises(ValueError):
        MetricParams(alpha=0.0)


@pytest.mark.parametrize(
    "c, p, alpha",
    [(1e-200, 2.0, 2.0), (5e-324, 1.0, 2.0), (0.1, 400.0, 2.0), (sys.float_info.min, 1.0, 2.0)],
)
def test_metric_params_reject_an_underflowing_cutoff_power(c, p, alpha):
    # below the normal range distinct densities would score 0.0 or a subnormal
    with pytest.raises(ValueError, match=r"^c\*\*p / alpha underflows \(c="):
        MetricParams(c=c, p=p, alpha=alpha)


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


def test_directly_built_mixture_warns_at_the_building_line():
    # not at the caller's caller: the first frame outside pgospa.model
    mb = mb_from_dict(mb_doc([gauss(0.5, [0.0], [[1.0]])]))
    with pytest.warns(UserWarning, match="sum to 0.9; renormalizing") as caught:
        line = sys._getframe().f_lineno + 1
        MBMixture([(0.5, mb), (0.4, mb)])
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def test_mixture_rejects_bad_entries():
    one = mb_from_dict(mb_doc([gauss(0.5, [0.0], [[1.0]])]))
    two = mb_from_dict(mb_doc([gauss(0.5, [0.0, 1.0], np.eye(2).tolist())]))
    with pytest.raises(SchemaError, match="must wrap MBDensity values"):
        MBMixture([(0.5, one), (0.5, mb_doc([]))])
    with pytest.raises(DimensionMismatchError, match=r"mix state dimensions \[1, 2\]"):
        MBMixture([(0.5, one), (0.5, two)])
    with pytest.raises(SchemaError, match="positive finite sum"):
        MBMixture([(0.0, one), (0.0, one)])


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


def test_loaders_equal_the_readers_of_the_parsed_file(tmp_path):
    dirac = {"r": 0.0, "density": {"type": "dirac", "location": [1.0]}}
    mb = mb_doc([gauss(0.7, [2.0], [[1.0]]), dirac])
    mix = {"mixture": [{"weight": 0.25, "mb": mb}, {"weight": 0.75, "mb": mb_doc([])}]}
    paths = {}
    for name, doc in (("mb", mb), ("mbm", mix), ("points", {"points": [[0.0, 1.0], [2.0, 3.0]]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    assert mb_to_dict(model.load_mb(paths["mb"], True)) == mb_to_dict(mb_from_dict(mb, True))
    loaded = model.load_mbm(paths["mbm"], True)
    assert model.mbm_to_dict(loaded) == model.mbm_to_dict(mbm_from_dict(mix, True))
    for load, path in ((model.load_mb, paths["mb"]), (model.load_mbm, paths["mbm"])):
        with pytest.raises(SchemaError, match="existence probability out of range"):
            load(path)  # r = 0 only when allowed
    points = model.load_points(paths["points"])
    assert points.tobytes() == points_from_dict({"points": [[0.0, 1.0], [2.0, 3.0]]}).tobytes()


def test_dim_of_densities_components_and_mixtures():
    dirac = DiracDensity([1.0, 2.0])
    assert dirac.dim == 2
    assert BernoulliComponent(0.5, dirac).dim == 2
    assert BernoulliComponent(0.5, GaussianDensity([0.0, 0.0, 0.0], np.eye(3))).dim == 3
    empty, one = MBDensity(), MBDensity([BernoulliComponent(0.5, dirac)])
    assert MBMixture([(0.5, empty), (0.5, one)]).dim == 2
    assert MBMixture([(1.0, empty)]).dim is None


def test_mixture_document_requires_a_mixture_list():
    with pytest.raises(SchemaError) as info:
        mbm_from_dict({})
    assert str(info.value) == "MB mixture requires a 'mixture' list"


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


def test_components_constructor_equals_from_arrays(rng):
    flags = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")
    cases = [((), (np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros(0, bool)))]
    for dim in (1, 2, 4):
        for n in (1, 7, 20):
            dirac = rng.random(n) < 0.3
            A = rng.normal(size=(n, dim, dim))
            covs = A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(dim)
            covs[dirac] = 0.0
            arrays = (rng.uniform(0.0, 1.0, n), rng.normal(size=(n, dim)), covs, dirac)
            cases.append((MBDensity.from_arrays(*arrays).components, arrays))
    for components, arrays in cases:
        want, got = MBDensity.from_arrays(*arrays), MBDensity(components)
        for field in ("r", "means", "covs", "dirac"):
            a, b = getattr(want, field), getattr(got, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
            assert [a.flags[f] for f in flags] == [b.flags[f] for f in flags], field
    mixed = [BernoulliComponent(0.5, DiracDensity([0.0, 1.0])),
             BernoulliComponent(0.5, GaussianDensity(np.zeros(3), np.eye(3)))]
    with pytest.raises(DimensionMismatchError, match=r"^components mix state dimensions \[2, 3\]$"):
        MBDensity(mixed)


# ---------------------------------------------------------------------------
# One fault per document: a clean 20-component 4-D document (Diracs at rows 3
# and 15) with one fault at row MID.  The exception type and message of each
# are pinned, and must not depend on which validation path sees the document.

MID = 10


def clean_components(n=20, dim=4, diracs=(3, 15), seed=7):
    rng = np.random.default_rng(seed)
    comps = []
    for k in range(n):
        r = float(rng.uniform(0.05, 1.0))
        mean = rng.uniform(-5.0, 5.0, dim).tolist()
        if k in diracs:
            comps.append({"r": r, "density": {"type": "dirac", "location": mean}})
        else:
            A = rng.normal(size=(dim, dim))
            comps.append(gauss(r, mean, (A @ A.T + 0.1 * np.eye(dim)).tolist()))
    return comps


def below_band_cov(dim=4):
    v = np.linalg.qr(np.random.default_rng(3).normal(size=(dim, dim)))[0]
    cov = (v * np.array([-1e-6] + [1.0] * (dim - 1))) @ v.T
    return ((cov + cov.T) / 2).tolist()


def with_density(item, **fields):
    """``item`` with the given density fields set; a field given as None is
    removed."""
    density = {k: v for k, v in item["density"].items() if fields.get(k, 0) is not None}
    density.update({k: v for k, v in fields.items() if v is not None})
    return {"r": item["r"], "density": density}


def with_mean_entry(item, value):
    mean = list(item["density"]["mean"])
    mean[1] = value
    return with_density(item, mean=mean)


def with_cov_entry(item, value, symmetric=True):
    cov = [list(row) for row in item["density"]["cov"]]
    cov[2][1] = value
    if symmetric:
        cov[1][2] = value
    return with_density(item, cov=cov)


def with_cov_row(item, row):
    cov = [list(r) for r in item["density"]["cov"]]
    cov[2] = row
    return with_density(item, cov=cov)


def identity_with(value, dim=4):
    cov = np.eye(dim).tolist()
    cov[1][1] = value
    return cov


def as_dirac(item, location=None):
    loc = item["density"]["mean"] if location is None else location
    return {"r": item["r"], "density": {"type": "dirac", "location": loc}}


NOT_NUMBER = "component 10: existence probability is not a number"
COMPONENT_FAULTS = {
    "r-bool": (lambda c: {**c, "r": True}, SchemaError, NOT_NUMBER),
    "r-string": (lambda c: {**c, "r": "0.5"}, SchemaError, NOT_NUMBER),
    "r-null": (lambda c: {**c, "r": None}, SchemaError, NOT_NUMBER),
    "r-overflow": (lambda c: {**c, "r": 10**400}, SchemaError, NOT_NUMBER),
    "r-above-1": (
        lambda c: {**c, "r": 1.5}, SchemaError,
        "component 10: existence probability out of range (r=1.5)",
    ),
    "r-negative": (
        lambda c: {**c, "r": -0.25}, SchemaError,
        "component 10: existence probability out of range (r=-0.25)",
    ),
    "r-nan": (
        lambda c: {**c, "r": float("nan")}, SchemaError,
        "component 10: existence probability out of range (r=nan)",
    ),
    "r-zero": (
        lambda c: {**c, "r": 0}, SchemaError,
        "component 10: existence probability out of range (r=0.0)",
    ),
    "r-missing": (
        lambda c: {"density": c["density"]}, SchemaError,
        "component 10 requires 'r' and 'density'",
    ),
    "density-missing": (
        lambda c: {"r": c["r"]}, SchemaError, "component 10 requires 'r' and 'density'",
    ),
    "item-not-object": (
        lambda c: [c["r"], c["density"]], SchemaError,
        "component 10 must be a JSON object, got list",
    ),
    "density-not-object": (
        lambda c: {"r": c["r"], "density": "gaussian"}, SchemaError,
        "density must be a JSON object, got str",
    ),
    "type-unknown": (
        lambda c: with_density(c, type="poisson"), SchemaError,
        "unknown density type 'poisson'",
    ),
    "mean-missing": (
        lambda c: with_density(c, mean=None), SchemaError,
        "gaussian density requires 'mean' and 'cov'",
    ),
    "cov-missing": (
        lambda c: with_density(c, cov=None), SchemaError,
        "gaussian density requires 'mean' and 'cov'",
    ),
    "location-missing": (
        lambda c: {"r": c["r"], "density": {"type": "dirac"}}, SchemaError,
        "dirac density requires 'location'",
    ),
    "mean-ragged": (
        lambda c: with_density(c, mean=[[0.0, 1.0], [2.0]]), SchemaError,
        "gaussian mean is not an array of numbers",
    ),
    "mean-empty": (
        lambda c: with_density(c, mean=[]), SchemaError,
        "gaussian mean must be a non-empty 1-D real vector",
    ),
    "mean-bool": (
        lambda c: with_mean_entry(c, True), SchemaError,
        "gaussian mean is not an array of numbers",
    ),
    "mean-string": (
        lambda c: with_mean_entry(c, "1"), SchemaError,
        "gaussian mean is not an array of numbers",
    ),
    "mean-overflow": (
        lambda c: with_mean_entry(c, 10**400), SchemaError,
        "gaussian mean is not an array of numbers",
    ),
    "mean-object": (
        lambda c: with_density(c, mean=dict(zip("abcd", c["density"]["mean"]))), SchemaError,
        "gaussian mean is not an array of numbers",
    ),
    "mean-text": (
        lambda c: with_density(c, mean="abcd"), SchemaError,
        "gaussian mean is not an array of numbers",
    ),
    "mean-nested": (
        lambda c: with_density(c, mean=[[v] for v in c["density"]["mean"]]), SchemaError,
        "gaussian mean must be a non-empty 1-D real vector",
    ),
    "mean-nan": (
        lambda c: with_mean_entry(c, float("nan")), SchemaError,
        "gaussian mean contains non-finite entries",
    ),
    "mean-inf": (
        lambda c: with_mean_entry(c, float("inf")), SchemaError,
        "gaussian mean contains non-finite entries",
    ),
    "location-bool": (
        lambda c: as_dirac(c, [1.0, True, 0.0, 0.0]), SchemaError,
        "dirac location is not an array of numbers",
    ),
    "location-nan": (
        lambda c: as_dirac(c, [1.0, float("nan"), 0.0, 0.0]), SchemaError,
        "dirac location contains non-finite entries",
    ),
    "cov-bool": (
        lambda c: with_density(c, cov=identity_with(True)), SchemaError,
        "covariance is not an array of numbers",
    ),
    "cov-bool-pair": (
        lambda c: with_cov_entry(c, True), SchemaError,
        "covariance is not an array of numbers",
    ),
    "cov-string": (
        lambda c: with_cov_entry(c, "0.5"), SchemaError,
        "covariance is not an array of numbers",
    ),
    "cov-shape": (
        lambda c: with_density(c, cov=np.eye(3).tolist()), SchemaError,
        "covariance must be 4x4, got (3, 3)",
    ),
    "cov-row-object": (
        lambda c: with_cov_row(c, dict(zip("abcd", c["density"]["cov"][2]))), SchemaError,
        "covariance is not an array of numbers",
    ),
    "cov-row-text": (
        lambda c: with_cov_row(c, "abcd"), SchemaError, "covariance is not an array of numbers",
    ),
    "cov-row-short": (
        lambda c: with_cov_row(c, c["density"]["cov"][2][:3]), SchemaError,
        "covariance is not an array of numbers",
    ),
    "cov-scalar": (
        lambda c: with_density(c, cov=1.0), SchemaError, "covariance must be 4x4, got ()",
    ),
    "cov-nan": (
        lambda c: with_cov_entry(c, float("nan")), SchemaError,
        "covariance contains non-finite entries",
    ),
    "cov-inf": (
        lambda c: with_cov_entry(c, float("inf")), SchemaError,
        "covariance contains non-finite entries",
    ),
    "cov-diagonal-nan": (
        lambda c: with_density(c, cov=identity_with(float("nan"))), SchemaError,
        "covariance contains non-finite entries",
    ),
    "cov-asymmetric": (
        lambda c: with_cov_entry(c, c["density"]["cov"][2][1] + 1e-6, symmetric=False),
        SchemaError,
        "covariance is not symmetric (max asymmetry 1e-06 > 1e-09)",
    ),
    "cov-below-band": (
        lambda c: with_density(c, cov=below_band_cov()), SchemaError,
        "covariance has eigenvalue -1e-06 below -1e-09",
    ),
    "dimension-mismatch": (
        lambda c: gauss(c["r"], [0.0, 1.0, 2.0], np.eye(3).tolist()),
        DimensionMismatchError, "components mix state dimensions [3, 4]",
    ),
    "dirac-dimension-mismatch": (
        lambda c: as_dirac(c, [0.0, 1.0]),
        DimensionMismatchError, "components mix state dimensions [2, 4]",
    ),
}


def faulty_document(fault):
    comps = clean_components()
    comps[MID] = COMPONENT_FAULTS[fault][0](comps[MID])
    return mb_doc(comps)


@pytest.mark.parametrize("as_mixture", [False, True], ids=["mb", "mixture"])
@pytest.mark.parametrize("fault", list(COMPONENT_FAULTS))
def test_single_fault_message(fault, as_mixture):
    doc = faulty_document(fault)
    _, exc_type, message = COMPONENT_FAULTS[fault]
    if as_mixture:
        clean = mb_doc(clean_components())
        doc = {"mixture": [{"weight": 0.5, "mb": clean}, {"weight": 0.5, "mb": doc}]}
    with pytest.raises(exc_type) as info:
        (mbm_from_dict if as_mixture else mb_from_dict)(doc)
    assert type(info.value) is exc_type
    assert str(info.value) == message


# faults that only show when every row has them: the stacks are then regular
DOCUMENT_FAULTS = {
    "mean-empty": (
        [gauss(0.5, [], [])], "gaussian mean must be a non-empty 1-D real vector",
    ),
    "location-empty": (
        [as_dirac(gauss(0.5, [], []))] * 3, "dirac location must be a non-empty 1-D real vector",
    ),
    "cov-shape": (
        [with_density(c, cov=np.eye(3).tolist()) for c in clean_components(diracs=())],
        "covariance must be 4x4, got (3, 3)",
    ),
    "cov-shape-broadcast": (
        [with_density(c, cov=[[1.0]]) for c in clean_components(diracs=())],
        "covariance must be 4x4, got (1, 1)",
    ),
}


@pytest.mark.parametrize("fault", list(DOCUMENT_FAULTS))
def test_fault_in_every_row_message(fault):
    comps, message = DOCUMENT_FAULTS[fault]
    with pytest.raises(SchemaError) as info:
        mb_from_dict(mb_doc(comps))
    assert str(info.value) == message


# Several faults: the walk checks each component in document order, so the
# first faulty component decides the message.
ASYMMETRIC_3 = "covariance is not symmetric (max asymmetry 1e-06 > 1e-09)"


def asymmetric_3_document(fault_7):
    """A clean all-Gaussian 4-D document with an asymmetric covariance in
    component 3 and ``fault_7`` applied to component 7."""
    comps = clean_components(diracs=())
    comps[3] = with_cov_entry(comps[3], comps[3]["density"]["cov"][2][1] + 1e-6,
                              symmetric=False)
    comps[7] = fault_7(comps[7])
    return mb_doc(comps)


def test_walk_reports_the_first_faulty_component():
    with pytest.raises(SchemaError) as info:
        mb_from_dict(asymmetric_3_document(lambda c: {**c, "r": 1.5}))
    assert str(info.value) == ASYMMETRIC_3


def test_covariance_fault_precedes_a_later_dimension_mismatch(tmp_path, capsys):
    doc = asymmetric_3_document(lambda c: gauss(c["r"], [0.0, 1.0, 2.0], np.eye(3).tolist()))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", str(path), str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {ASYMMETRIC_3}"


def assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def fields(mb):
    return mb.r, mb.means, mb.covs, mb.dirac


def fast_and_walk(doc, allow_zero_existence=False):
    """The fields from both validation paths, and the arrays of the MB."""
    raw = doc["components"]
    arrays = fields(mb_from_dict(doc, allow_zero_existence))
    stacked = model._stacked_mbs([raw], allow_zero_existence)
    walked = fields(model._walked_mb(raw, allow_zero_existence))
    assert_same_arrays(arrays, walked)
    if stacked is not None:
        assert_same_arrays(fields(stacked[0]), walked)
    return stacked is not None, arrays


def test_clean_mixed_document_takes_the_stacked_path():
    fast, arrays = fast_and_walk(mb_doc(clean_components()))
    assert fast and arrays[3].tolist().count(True) == 2
    assert fast_and_walk(mb_doc(clean_components(diracs=range(20))))[0]
    assert fast_and_walk(mb_doc(clean_components(diracs=())))[0]
    comps = clean_components()  # containers other than lists read as numpy does
    density = comps[MID]["density"]
    comps[MID] = with_density(
        comps[MID], mean=tuple(density["mean"]), cov=tuple(map(tuple, density["cov"]))
    )
    assert fast_and_walk(mb_doc(comps))[0]


def test_zero_existence_takes_the_stacked_path_when_allowed():
    comps = clean_components()
    comps[MID] = {**comps[MID], "r": 0}
    fast, arrays = fast_and_walk(mb_doc(comps), allow_zero_existence=True)
    assert fast and arrays[0][MID] == 0.0


def test_integer_entries_take_the_stacked_path():
    comps = clean_components(diracs=())
    comps[2] = gauss(1, [1, 2, 3, 4], (2 * np.eye(4, dtype=int)).tolist())
    # integers that doubles round, beside float rows and within one row
    comps[MID] = with_density(comps[MID], mean=[2**62 + 1, -(2**61) - 3, 7, 2**53 + 1])
    comps[12] = with_mean_entry(comps[12], 2**63 + 2049)
    comps[13] = with_density(comps[13], mean=[2**63 + 5, 2**63 + 2049, 2**64 - 1, 0])
    fast, arrays = fast_and_walk(mb_doc(comps))
    assert fast
    assert arrays[1][MID].tolist() == [float(2**62 + 1), float(-(2**61) - 3), 7.0,
                                       float(2**53 + 1)]
    assert arrays[1][12][1] == float(2**63 + 2049)


def test_extra_keys_take_the_walk_with_equal_arrays():
    comps = clean_components()
    plain = fast_and_walk(mb_doc(comps))[1]
    comps[MID] = {**comps[MID], "label": "track 7"}
    comps[3] = {**comps[3], "density": {**comps[3]["density"], "note": None}}
    fast, arrays = fast_and_walk(mb_doc(comps))
    assert not fast
    assert_same_arrays(arrays, plain)


def test_integers_beyond_64_bits_take_the_walk():
    comps = clean_components(diracs=())
    comps[MID] = with_mean_entry(comps[MID], 10**20)
    fast, arrays = fast_and_walk(mb_doc(comps))
    assert not fast and arrays[1][MID][1] == 1e20
    comps = clean_components(diracs=())
    comps[MID] = with_density(comps[MID], cov=identity_with(10**30))
    fast, arrays = fast_and_walk(mb_doc(comps))
    assert not fast and arrays[2][MID][1, 1] == 1e30


def number_stack(values, depth):
    """The reader's reading of one nested field: ``_flat_entries``, then
    ``_number_array``."""
    regular = model._flat_entries(values, depth)
    return None if regular is None else model._number_array(*regular)


def nested_number_stack(values, depth):
    """The reading ``number_stack`` must equal: every entry a plain int or
    float, then numpy's own reading of the nested values."""
    leaves = values
    for _ in range(depth - 1):
        leaves = [x for row in leaves for x in row]
    if not all(type(x) in (int, float) for x in leaves):
        return None
    arr = np.array(values)
    return arr.astype(float) if arr.dtype.kind in "if" else None


# containers a flatten by length could take for rows, levels without
# entries, ragged levels and odd entries
ODD_STACKS = {
    "empty-rows": ([[], []], 2),
    "empty-matrices": ([[], []], 3),
    "empty-matrix-rows": ([[[], []], [[], []]], 3),
    "empty-objects": ([{}, {}], 2),
    "empty-texts": (["", ""], 2),
    "empty-object-rows": ([[{}], [{}]], 3),
    "texts": (["abcd", "efgh"], 2),
    "objects": ([{"a": 1.0, "b": 2.0}, {"c": 1.0, "d": 2.0}], 2),
    "object-rows": ([[{"ab": 1.0, "cd": 2.0}, [1.0, 2.0]]], 3),
    "number-keys": ([{0: "a", 1: "b"}], 2),
    "set": ([{1.0, 2.0}], 2),
    "tuple-and-list": ([(1.0, 2.0), [3.0, 4.0]], 2),
    "range": ([range(2), [3, 4]], 2),
    "ragged": ([[1.0, 2.0], [3.0]], 2),
    "ragged-inner": ([[[1.0, 2.0]], [[3.0]]], 3),
    "too-deep": ([[1.0, [2.0]], [3.0, 4.0]], 2),
    "too-shallow": ([1.0, [2.0]], 2),
    "boolean": ([[1.0, True]], 2),
    "uint64": ([[1, 2**63]], 2),
    "beyond-64-bits": ([[1, 2**64]], 2),
    "beyond-double": ([[1.5, 10**400]], 2),
    "numpy-scalar": ([[np.float64(1.0)]], 2),
    "integers": ([[1, 2], [3, 4]], 2),
    "mixed-numbers": ([[[1.0, 2], [3, 4.5]]], 3),
}


@pytest.mark.parametrize("values, depth", list(ODD_STACKS.values()), ids=list(ODD_STACKS))
def test_number_stack_equals_the_nested_reading(values, depth):
    try:
        want = nested_number_stack(values, depth)
    except (TypeError, ValueError):  # numpy refuses ragged and too-shallow stacks
        want = None
    got = number_stack(values, depth)
    if want is None:
        assert got is None
    else:
        assert_same_arrays([got], [want])


# ---------------------------------------------------------------------------
# MBDensity.from_arrays: the validated array constructor


def clamp_band_components(n=12, dim=3, seed=5):
    rng = np.random.default_rng(seed)
    return [gauss(float(rng.uniform(0.05, 1.0)), rng.uniform(-5.0, 5.0, dim).tolist(),
                  clamp_band_cov(rng, dim)) for _ in range(n)]


def raw_arrays(raw):
    """The four arrays of a clean components list, read as they are: no
    covariance in normal form."""
    dirac = np.array([c["density"]["type"] == "dirac" for c in raw])
    means = np.array([c["density"].get("mean", c["density"].get("location")) for c in raw])
    covs = np.zeros((len(raw),) + means.shape[1:] * 2)
    if not dirac.all():
        covs[~dirac] = [c["density"]["cov"] for c in raw if "cov" in c["density"]]
    return np.array([c["r"] for c in raw]), means, covs, dirac


@pytest.mark.parametrize(
    "raw",
    [clean_components(), clean_components(diracs=range(20)), clean_components(diracs=()),
     clamp_band_components()],
    ids=["mixed", "all-dirac", "all-gaussian", "clamp-band"],
)
def test_from_arrays_equals_the_walk(raw):
    walked = fields(model._walked_mb(raw, False))
    mb = MBDensity.from_arrays(*raw_arrays(raw))
    assert_same_arrays((mb.r, mb.means, mb.covs, mb.dirac), walked)
    again = MBDensity.from_arrays(*walked)
    assert_same_arrays((again.r, again.means, again.covs, again.dirac), walked)


def test_from_arrays_is_read_only_and_does_not_alias():
    arrays = raw_arrays(clean_components())
    mb = MBDensity.from_arrays(*arrays)
    for got, given in zip((mb.r, mb.means, mb.covs, mb.dirac), arrays):
        assert not got.flags.writeable and not np.shares_memory(got, given)
    kept = [a.copy() for a in (mb.r, mb.means, mb.covs, mb.dirac)]
    for given in arrays:
        given[...] = given[0]
    assert_same_arrays((mb.r, mb.means, mb.covs, mb.dirac), kept)
    with pytest.raises(ValueError):
        mb.means[0, 0] = 1.0


def test_from_arrays_empty_and_padded():
    empty = MBDensity.from_arrays(np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)),
                                  np.zeros(0, dtype=bool))
    assert len(empty) == 0 and empty.dim is None
    mb = mb_from_dict(mb_doc(clean_components()))
    padded = append_zero_components(mb, 2)
    assert padded.r.tolist() == mb.r.tolist() + [0.0, 0.0]
    assert padded.dirac[20:].all() and not padded.covs[20:].any()
    assert_same_arrays((padded.means[:20], padded.covs[:20]), (mb.means, mb.covs))


def _bad_arrays(**change):
    r, means, covs, dirac = raw_arrays(clean_components(n=4, diracs=(1,)))
    fields = {"r": r, "means": means, "covs": covs, "dirac": dirac}
    for name, edit in change.items():
        fields[name] = edit(fields[name].copy())
    return fields


def _set(index, value):
    def edit(arr):
        arr[index] = value
        return arr
    return edit


@pytest.mark.parametrize(
    "change, error, match",
    [
        ({"r": _set(2, 1.5)}, SchemaError, "out of range"),
        ({"r": _set(0, -0.1)}, SchemaError, "out of range"),
        ({"r": _set(3, np.nan)}, SchemaError, "out of range"),
        ({"r": _set(3, np.inf)}, SchemaError, "out of range"),
        ({"r": lambda r: r[:3]}, SchemaError, "must be shaped"),
        ({"r": lambda r: r[:, None]}, SchemaError, "must be shaped"),
        ({"dirac": lambda d: d.astype(int)}, SchemaError, "boolean"),
        ({"means": lambda m: m[:, 0]}, SchemaError, "must be shaped"),
        ({"means": lambda m: m[:, :0]}, SchemaError, "must be shaped"),
        ({"means": lambda m: m[:3]}, SchemaError, "must be shaped"),
        ({"means": _set((2, 1), np.inf)}, SchemaError, "non-finite"),
        ({"covs": lambda c: c[:3]}, SchemaError, "must be shaped"),
        ({"covs": lambda c: c[:, :, :3]}, DimensionMismatchError, "covariances of shape"),
        ({"covs": lambda c: c[:, :3, :3]}, DimensionMismatchError, "covariances of shape"),
        ({"covs": _set((0, 1, 1), np.nan)}, SchemaError, "non-finite"),
        ({"covs": _set((1, 0, 0), 1.0)}, SchemaError, "dirac"),
        ({"covs": _set((2, 0, 1), 0.5)}, SchemaError, "not symmetric"),
        ({"covs": _set(2, below_band_cov())}, SchemaError, "eigenvalue"),
    ],
)
def test_from_arrays_rejects(change, error, match):
    fields = _bad_arrays(**change)
    with pytest.raises(error, match=match):
        MBDensity.from_arrays(**fields)


def test_from_arrays_rejects_non_numbers():
    r, means, covs, dirac = raw_arrays(clean_components(n=2, diracs=()))
    with pytest.raises(SchemaError, match="arrays of numbers"):
        MBDensity.from_arrays(r, [[0.0, "x", 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], covs, dirac)


@pytest.mark.parametrize("kind", ["mixed", "clamp-band"])
def test_views_equal_checked_components(monkeypatch, kind):
    rng = np.random.default_rng(8)
    docs = []
    for k in range(16):
        mean = rng.uniform(-5, 5, 3).tolist()
        if kind == "mixed" and k % 3 == 0:
            docs.append({"r": 0.5, "density": {"type": "dirac", "location": mean}})
        elif kind == "mixed":
            A = rng.normal(size=(3, 3))
            docs.append(gauss(float(rng.uniform(0.05, 1.0)), mean, (A @ A.T).tolist()))
        else:
            docs.append(gauss(float(rng.uniform(0.05, 1.0)), mean, clamp_band_cov(rng, 3)))
    mb = mb_from_dict(mb_doc(docs))
    checked = []
    for k in range(len(mb)):
        if mb.dirac[k]:
            density = DiracDensity(mb.means[k])
        else:
            density = GaussianDensity(mb.means[k], mb.covs[k])
        checked.append(BernoulliComponent(mb.r[k], density))
    # the views re-run no check: the normal form is not called again
    monkeypatch.setattr(model, "_psd_normal_form", None)
    for got, want in zip(mb.components, checked):
        assert type(got.r) is float and got.r == want.r
        assert type(got.density) is type(want.density)
        for name in vars(want.density):
            a, b = getattr(got.density, name), getattr(want.density, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
