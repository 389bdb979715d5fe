import numpy as np
import pytest

from pgospa.selfcheck import (
    random_gaussian as make_gaussian,
    random_mb as make_mb,
    random_params as make_params,
)

__all__ = ["make_gaussian", "make_mb", "make_params"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
