"""Probabilistic GOSPA: a metric between multi-Bernoulli set densities.

The metric couples an optimal one-to-one matching of Bernoulli components
with existence-probability bookkeeping, and for alpha = 2 decomposes into
expected localization, existence mismatch, missed-detection, and
false-detection errors.  Plain point-set GOSPA is the unit-existence,
point-mass special case.
"""

from .assignment import Assignment, enumerate_assignment, solve_assignment
from .distances import (
    BaseDistanceKind,
    base_distance,
    cutoff,
    euclidean_dirac,
    gaussian_hellinger,
    gaussian_w2,
    pairwise_base_distance,
)
from .metric import PGospaResult, bernoulli_pgospa, gospa, mbm_pgospa, pgospa
from .model import (
    BernoulliComponent,
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MBMixture,
    MetricParams,
    SchemaError,
    append_zero_components,
    load_mb,
    load_mbm,
    load_points,
    mb_from_dict,
    mb_to_dict,
    mbm_from_dict,
    points_from_dict,
    serialize_mb,
)

__version__ = "0.1.0"

# The oracles need scipy.optimize and scipy.sparse, which take a cold
# process about 0.45 s to import; they load on the first use of one of
# these names (PEP 562).
_ORACLE_NAMES = frozenset(
    {
        "GridDensity",
        "GridOTResult",
        "TransportPlan",
        "bernoulli_ot_dirac",
        "bernoulli_ot_grid",
        "brute_force_assignment_sets",
        "brute_force_pgospa",
        "qospa_base",
    }
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)

__all__ = [
    "Assignment",
    "BaseDistanceKind",
    "BernoulliComponent",
    "DimensionMismatchError",
    "DiracDensity",
    "GaussianDensity",
    "GridDensity",
    "GridOTResult",
    "MBDensity",
    "MBMixture",
    "MetricParams",
    "PGospaResult",
    "SchemaError",
    "TransportPlan",
    "append_zero_components",
    "base_distance",
    "bernoulli_ot_dirac",
    "bernoulli_ot_grid",
    "bernoulli_pgospa",
    "brute_force_assignment_sets",
    "brute_force_pgospa",
    "cutoff",
    "enumerate_assignment",
    "euclidean_dirac",
    "gaussian_hellinger",
    "gaussian_w2",
    "gospa",
    "load_mb",
    "load_mbm",
    "load_points",
    "mb_from_dict",
    "mb_to_dict",
    "mbm_from_dict",
    "mbm_pgospa",
    "pairwise_base_distance",
    "pgospa",
    "points_from_dict",
    "qospa_base",
    "serialize_mb",
    "solve_assignment",
]
