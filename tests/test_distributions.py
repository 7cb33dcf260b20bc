import numpy as np
import pytest
from scipy import stats

from pba.distributions import DistributionSpec, moment_match
from pba.errors import InfeasibleMoments, InvalidDistributionSpec
from pba.minimal_data import MinimalData


def test_gamma_moment_match():
    params = moment_match("gamma", MinimalData(0, 10, mean=1.0, std=0.5))
    assert params["shape"] == pytest.approx(4.0)
    assert params["rate"] == pytest.approx(4.0)


def test_beta_moment_match():
    params = moment_match("beta", MinimalData(0, 1, mean=0.5, std=0.05**0.5))
    assert params["alpha"] == pytest.approx(2.0)
    assert params["beta"] == pytest.approx(2.0)


def test_beta_infeasible():
    with pytest.raises(InfeasibleMoments):
        moment_match("beta", MinimalData(0, 1, mean=0.5, std=0.5))


def test_gamma_infeasible():
    with pytest.raises(InfeasibleMoments):
        moment_match("gamma", MinimalData(-1, 1, mean=-0.5, std=0.1))


def test_uniform_passthrough():
    params = moment_match("uniform", MinimalData(2, 6))
    assert params == {"low": 2, "high": 6}


def test_moment_matched_specs_reproduce_moments():
    for family, mean, std in (("gamma", 1.0, 0.33), ("beta", 0.3, 0.1)):
        spec = DistributionSpec.from_moments(family, MinimalData(0, 1, mean=mean, std=std))
        u = np.linspace(0, 1, 200001)[1:-1]
        samples = spec.ppf(u)
        assert np.mean(samples) == pytest.approx(mean, rel=1e-3)
        assert np.std(samples) == pytest.approx(std, rel=2e-2)


def test_uniform_ppf():
    spec = DistributionSpec.uniform(2, 6)
    assert spec.ppf(0.0) == 2
    assert spec.ppf(1.0) == 6
    assert spec.ppf(0.5) == 4


def test_tabulated_ppf():
    spec = DistributionSpec.tabulated([0.0, 1.0, 3.0], [0.0, 0.25, 1.0])
    assert spec.ppf(0.0) == 0.0
    assert spec.ppf(0.25) == 1.0
    assert spec.ppf(1.0) == 3.0
    assert spec.ppf(0.625) == pytest.approx(2.0)


def test_tabulated_validation():
    with pytest.raises(InvalidDistributionSpec):
        DistributionSpec.tabulated([0, 1], [0.2, 1.0])
    with pytest.raises(InvalidDistributionSpec):
        DistributionSpec.tabulated([1, 0], [0.0, 1.0])


def test_bad_native_params():
    with pytest.raises(InvalidDistributionSpec):
        DistributionSpec.gamma(-1, 2)
    with pytest.raises(InvalidDistributionSpec):
        DistributionSpec.uniform(3, 3)


EDGE_U = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("shape", [1e-3, 0.05, 0.5, 1.0, 2.0, 22.9568, 9182.0, 1e5])
def test_gamma_ppf_matches_scipy_stats(shape):
    rng = np.random.default_rng(int(shape * 1000))
    u = np.concatenate([EDGE_U, rng.random(500)])
    for rate in (1e-3, 0.7, 1.0, 18.36, 1e4):
        got = DistributionSpec.gamma(shape, rate).ppf(u)
        assert _same_bits(got, stats.gamma.ppf(u, a=shape, scale=1.0 / rate))
        assert got[0] == 0.0 and got[3] == np.inf
        for x in u[:8]:
            scalar = DistributionSpec.gamma(shape, rate).ppf(x)
            assert _same_bits(scalar, stats.gamma.ppf(x, a=shape, scale=1.0 / rate))


@pytest.mark.parametrize("alpha", [0.02, 0.5, 1.0, 3.7, 250.0])
@pytest.mark.parametrize("beta", [0.05, 1.0, 2.0, 41.5, 3000.0])
def test_beta_ppf_matches_scipy_stats(alpha, beta):
    rng = np.random.default_rng(int(alpha * 100 + beta))
    u = np.concatenate([EDGE_U, rng.random(500)])
    got = DistributionSpec.beta(alpha, beta).ppf(u)
    assert _same_bits(got, stats.beta.ppf(u, alpha, beta))
    assert got[0] == 0.0 and got[3] == 1.0
    for x in u[:8]:
        scalar = DistributionSpec.beta(alpha, beta).ppf(x)
        assert _same_bits(scalar, stats.beta.ppf(x, alpha, beta))


@pytest.mark.parametrize("spec", [DistributionSpec.gamma(2.5, 3.0), DistributionSpec.beta(2.0, 5.0)])
def test_ppf_outside_unit_interval_is_nan(spec):
    assert np.all(np.isnan(spec.ppf(np.array([-0.5, -2.0**-53, 1.0 + 2.0**-52, 3.0, np.nan]))))
    assert np.isnan(spec.ppf(-0.1))
