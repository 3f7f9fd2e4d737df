import numpy as np
import pytest

from lipshift import densities
from lipshift.errors import (
    InvalidParameterError,
    NonDoublingError,
    NoViolationError,
    SizeCapError,
)
from lipshift.prooflab import (
    build_lower_bound_family,
    build_perturbation,
    kl_divergence,
    lipschitz_cover,
    perturbation_faults,
    run_check,
    transfer_exponent_check,
)
from lipshift.spread import SpreadFunction

GRID = np.linspace(0.0, 1.0, 2001)


def _tent(center, height, slope=1.0):
    def f(x):
        return np.maximum(height - slope * np.abs(np.asarray(x, float) - center), 0.0)
    return f


def _zero(x):
    return np.zeros_like(np.asarray(x, float))


# --- perturbation -------------------------------------------------------

def _random_instance(rng):
    delta = float(rng.uniform(0.1, 0.5))
    c = float(rng.uniform(0.2, 0.8))
    height = float(rng.uniform(0.15, 0.4))
    psi = _tent(c, height)
    slope = (1.0 - delta) * float(rng.uniform(0.2, 0.9))
    f = _tent(float(rng.uniform(0.2, 0.8)), height * 0.3, slope)
    return psi, f, delta


def test_perturbation_properties_randomized():
    rng = np.random.default_rng(8)
    s = SpreadFunction(densities.uniform(), 10_000)
    built = 0
    for _ in range(50):
        psi, f, delta = _random_instance(rng)
        try:
            pert = build_perturbation(psi, f, delta, s, K=1.0, grid=GRID)
        except NoViolationError:
            continue
        built += 1
        assert perturbation_faults(pert, GRID) == []
    assert built >= 25


def test_perturbation_requires_violation():
    s = SpreadFunction(densities.uniform(), 100)
    # gap everywhere below K t_n: t_n ~ 0.28 while psi <= 0.05
    with pytest.raises(NoViolationError):
        build_perturbation(_tent(0.5, 0.05), _zero, 0.2, s, K=1.0, grid=GRID)


def test_perturbation_rejects_non_lipschitz_inputs():
    s = SpreadFunction(densities.uniform(), 10_000)
    steep = _tent(0.5, 0.5, slope=2.0)
    with pytest.raises(InvalidParameterError):
        build_perturbation(steep, _zero, 0.2, s, K=1.0, grid=GRID)
    with pytest.raises(InvalidParameterError):
        # f must fit inside Lip(1 - delta)
        build_perturbation(_tent(0.5, 0.4), _tent(0.3, 0.3, 0.95), 0.2, s,
                           K=1.0, grid=GRID)
    with pytest.raises(InvalidParameterError):
        build_perturbation(_tent(0.5, 0.4), _zero, 1.5, s, K=1.0, grid=GRID)


@pytest.mark.parametrize("K", [0.0, -1.0, np.nan])
def test_perturbation_rejects_nonpositive_K(K):
    # s_n = 2 K t_n must be > 0; K = 0 gave an inverted support
    s = SpreadFunction(densities.uniform(), 10_000)
    with pytest.raises(InvalidParameterError, match="K must be > 0"):
        build_perturbation(_tent(0.5, 0.4), _zero, 0.2, s, K=K, grid=GRID)


def test_perturbation_anchors_at_largest_violation():
    s = SpreadFunction(densities.uniform(), 10_000)
    psi = _tent(0.3, 0.4)
    pert = build_perturbation(psi, _zero, 0.2, s, K=1.0, grid=GRID)
    assert pert.x_star == pytest.approx(0.3, abs=1e-3)
    assert pert.x_tilde == pytest.approx(0.3, abs=1e-3)
    assert pert.s_n == pytest.approx(2.0 * s.at(0.3), abs=1e-6)


# --- covering -----------------------------------------------------------

def test_cover_size_and_shape():
    cov = lipschitz_cover(0.0, 1.0, 0.5)
    # two cells, first pinned to zero, three slopes on the second
    assert len(cov) == 3
    assert np.allclose(cov.values[:, 0], 0.0)
    assert np.allclose(cov.values[:, 1], 0.0)


def test_cover_members_are_lipschitz_and_vanish_on_first_cell():
    cov = lipschitz_cover(0.2, 0.9, 0.1)
    xs = np.linspace(0.2, 0.9, 701)
    for i in range(len(cov)):
        v = cov.evaluate(i, xs)
        assert np.max(np.abs(np.diff(v)) / np.diff(xs)) <= 1.0 + 1e-9
        assert np.allclose(cov.evaluate(i, np.linspace(0.2, 0.3, 11)), 0.0)
        assert cov.evaluate(i, 0.1) == 0.0 and cov.evaluate(i, 0.95) == 0.0


@pytest.mark.parametrize("r", [0.1, 0.2])
def test_cover_hits_every_random_function(r):
    # each of 200 random Lip(1) functions lies within r of its center, a member
    passed, measured = run_check("cover", {"r": r})
    assert passed and measured["within_r"] == measured["members"] == 200


def test_cover_size_cap():
    with pytest.raises(SizeCapError):
        lipschitz_cover(0.0, 1.0, 0.05)


def test_cover_bad_interval():
    with pytest.raises(InvalidParameterError):
        lipschitz_cover(0.5, 0.5, 0.1)
    with pytest.raises(InvalidParameterError):
        lipschitz_cover(0.0, 1.0, 0.0)


# --- KL divergence ------------------------------------------------------

def test_kl_bump_value():
    # (100/2) int_0^1 bump^2 = 50 * 2 * (0.1)^3 / 3 = 1/30, the check's bound
    passed, measured = run_check("kl", {})
    assert passed and measured["kl"] == pytest.approx(1.0 / 30.0, abs=1e-9)
    assert measured["kl_bound"] == pytest.approx(1.0 / 30.0, rel=1e-12)


def test_kl_additive_in_samples():
    u, p = densities.uniform(), densities.power(1.0)
    bump = _tent(0.4, 0.2)
    both = kl_divergence(bump, _zero, u, p, n=30, m=70)
    only_n = kl_divergence(bump, _zero, u, p, n=30, m=0)
    only_m = kl_divergence(bump, _zero, u, p, n=0, m=70)
    assert both == pytest.approx(only_n + only_m, rel=1e-12)


def test_kl_symmetric_in_arguments():
    u = densities.uniform()
    f, g = _tent(0.3, 0.2), _tent(0.6, 0.1)
    assert kl_divergence(f, g, u, u, 10, 5) == pytest.approx(
        kl_divergence(g, f, u, u, 10, 5), rel=1e-12)


def test_kl_input_checks():
    u = densities.uniform()
    with pytest.raises(InvalidParameterError):
        kl_divergence(_zero, _zero, u, u, -1, 10)


# --- lower-bound family -------------------------------------------------

def test_family_bumps_disjoint_and_separated():
    u = densities.uniform()
    n = m = 5000
    fam = build_lower_bound_family(u, u, n, m)
    assert fam.count >= 1
    # centers 2 psi apart, heights t_{n,m}/6
    assert np.all(np.diff(fam.centers) >= 2.0 * fam.psi_n - 1e-12)
    t = np.minimum(SpreadFunction(u, n).at(fam.centers),
                   SpreadFunction(u, m).at(fam.centers))
    assert np.allclose(fam.heights, t / 6.0)
    # pairwise sup-distance equals the larger height (disjoint supports)
    xs = np.linspace(0, 1, 4001)
    f1, f2 = fam.f(1, xs), fam.f(2, xs)
    assert np.max(np.abs(f1 - f2)) == pytest.approx(max(fam.heights[:2]), abs=1e-3)
    assert np.max(f1) == pytest.approx(fam.heights[0], abs=1e-3)


def test_family_count_scales_like_cells():
    u = densities.uniform()
    N = 10_000
    fam = build_lower_bound_family(u, u, N // 2, N // 2)
    floor = (N / np.log(N)) ** (1.0 / 3.0) / 3.0  # C_inf = 1 for uniform
    assert fam.count >= floor


def test_family_kl_budget():
    passed, measured = run_check("lowerbound", {"n": 5000, "m": 5000})
    assert passed and measured["mean_kl"] <= np.log(10_000) / 36.0


def test_family_degenerate_inputs():
    u = densities.uniform()
    with pytest.raises(InvalidParameterError):
        build_lower_bound_family(u, u, 1, 100)
    with pytest.raises(InvalidParameterError):
        # N too small: psi_N > 1/4
        build_lower_bound_family(u, u, 5, 5)


def test_family_drops_empty_cells():
    # design concentrated near 1: left cells carry almost no mass
    p = densities.power(6.0)
    fam = build_lower_bound_family(p, p, 5000, 5000)
    full = int(np.ceil(1.0 / (2.0 * fam.psi_n)))
    assert fam.count < full
    assert np.all(fam.centers > 0.2)


# --- transfer exponent --------------------------------------------------

def test_transfer_exponent_gamma_one_bounded():
    # (Power(1), Uniform) at eta = 2^-3 ... 2^-10: the value at the smallest
    # eta is within 3 times the one at the largest
    passed, measured = run_check("transfer-exponent", {"gamma": 1.0, "x_nodes": 8193})
    assert passed and measured["max_eta_gamma_rho"] <= 4.0


def test_transfer_exponent_gamma_half_diverges():
    passed, measured = run_check("transfer-exponent", {"gamma": 0.5, "x_nodes": 8193,
                                                       "eta_grid": [2.0**-3, 2.0**-6, 2.0**-10]})
    vals = measured["values"]
    assert not passed and vals[0] < vals[1] < vals[2] and vals[2] > 10.0 * vals[0]


def test_transfer_exponent_uniform_pair_stable():
    passed, measured = run_check("transfer-exponent", {"P": {"kind": "uniform"}, "x_nodes": 1001,
                                                       "eta_grid": [0.1, 0.01, 0.001]})
    assert passed and max(measured["values"]) <= 2.0 * min(measured["values"]) + 1.0


def test_transfer_exponent_input_checks():
    u = densities.uniform()
    with pytest.raises(InvalidParameterError):
        transfer_exponent_check(u, u, 1.0, [], [0.5])
    zero_left = densities.tabulated([0, 0.5, 0.500001, 1], [0, 0, 2, 2])
    with pytest.raises(NonDoublingError):
        transfer_exponent_check(zero_left, u, 1.0, [0.01], np.linspace(0, 1, 101))


@pytest.mark.parametrize("eta", [0.0, -0.1, np.inf, np.nan])
def test_transfer_exponent_rejects_bad_radius(eta):
    # a negative radius gave interval endpoints out of order, a zero one an
    # empty interval
    u = densities.uniform()
    with pytest.raises(InvalidParameterError, match="eta_grid"):
        transfer_exponent_check(u, u, 1.0, [0.1, eta], np.linspace(0, 1, 101))
