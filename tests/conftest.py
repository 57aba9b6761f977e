import numpy as np
import pytest
from hypothesis import settings

from emsolve import (
    EmsConfig,
    GaussianMixture,
    PointGaussian,
    Schedule,
    build_integral_table,
    estimate_table,
)

T_END = 1e-3  # sampling start time epsilon on the vp schedules

# Property tests replay the same examples on every run, and model-heavy
# examples are not held to hypothesis's per-example deadline.
settings.register_profile("emsolve", derandomize=True, deadline=None)
settings.load_profile("emsolve")


@pytest.fixture(scope="session")
def vp():
    return Schedule("vp-linear")


@pytest.fixture(scope="session")
def edm():
    return Schedule("edm")


@pytest.fixture(scope="session")
def pg4():
    return PointGaussian(x0=np.array([0.3, -0.2, 0.1, 0.5]))


@pytest.fixture(scope="session")
def mix4():
    return GaussianMixture(
        weights=[0.4, 0.6],
        means=[[0.6, -0.3, 0.25, -0.5], [-0.55, 0.4, -0.3, 0.45]],
        stds=[0.8, 1.1],
    )


@pytest.fixture(scope="session")
def mix4b():
    """A second 4-D mixture, with three components, for guided pairs."""
    return GaussianMixture(
        weights=[0.3, 0.5, 0.2],
        means=[[0.2, 0.5, -0.4, 0.1], [-0.6, -0.1, 0.3, 0.2], [0.1, 0.3, 0.6, -0.7]],
        stds=[0.5, 0.9, 0.3],
    )


@pytest.fixture(scope="session")
def vp_lam_range(vp):
    return float(vp.lambda_of_t(1.0)), float(vp.lambda_of_t(T_END))


@pytest.fixture(scope="session")
def mix_table(mix4, vp, vp_lam_range):
    """Well-resolved statistics for the mixture testbed (shared, ~5 s to build)."""
    cfg = EmsConfig(
        num_timesteps=960, num_datapoints=4096, lam_range=vp_lam_range, seed=7
    )
    return estimate_table(mix4, vp, cfg)


@pytest.fixture(scope="session")
def mix_tab(mix_table):
    return build_integral_table(mix_table)
