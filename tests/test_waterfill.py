import numpy as np
import pytest

from fdwiretap.channel import SystemParams, draw_channels
from fdwiretap.errors import WrongDimension
from fdwiretap.system_model import TransmitDesign
from fdwiretap.waterfill import (Allocation, SubcarrierGains,
                                 closed_form_power, full_budget_slope_bound,
                                 gains_from_system, secrecy_per_subcarrier,
                                 slope, waterfill, zero_power_slope_bound)


def random_gains(rng, n, x_max=1.0):
    alpha = rng.uniform(0.5, 5.0, n)
    beta = alpha * rng.uniform(0.05, 0.8, n)
    return SubcarrierGains(alpha=alpha, beta=beta, X_max=x_max)


def grid_best(gains):
    """Exhaustive N=2 simplex search at step X_max/2000."""
    xs = np.linspace(0.0, gains.X_max, 2001)
    a0, b0 = gains.alpha[0], gains.beta[0]
    a1, b1 = gains.alpha[1], gains.beta[1]
    f0 = np.log1p(a0 * xs) - np.log1p(b0 * xs)
    best = -np.inf
    for i, x0 in enumerate(xs):
        rem = gains.X_max - x0
        x1s = xs[xs <= rem + 1e-12]
        f1 = np.log1p(a1 * x1s) - np.log1p(b1 * x1s)
        cand = f0[i] + np.max(f1)
        if cand > best:
            best = cand
    return best


def test_secrecy_per_subcarrier_values():
    assert secrecy_per_subcarrier(0.0, 2.0, 0.5) == 0.0
    assert secrecy_per_subcarrier(3.7, 1.3, 1.3) == pytest.approx(0.0, abs=1e-14)
    assert secrecy_per_subcarrier(1.0, 2.0, 0.5) == pytest.approx(np.log(2.0),
                                                                  abs=1e-12)


def test_closed_form_zero_for_dominated_subcarrier():
    assert closed_form_power(0.3, 1.0, 1.0) == 0.0
    assert closed_form_power(0.3, 1.0, 2.0) == 0.0


def test_closed_form_classic_waterfilling_limit():
    # beta = 0 reduces to {1/lambda - 1/alpha}^+
    assert closed_form_power(0.5, 2.0, 0.0) == pytest.approx(1.5, abs=1e-12)
    assert closed_form_power(0.5, 2.0, 1e-9) == pytest.approx(1.5, abs=1e-6)
    assert closed_form_power(3.0, 2.0, 0.0) == 0.0


def test_closed_forms_on_arrays_match_scalar_calls():
    """Elementwise power and secrecy equal one scalar call per subcarrier
    bit for bit, dominated and zero-gain subcarriers included."""
    rng = np.random.default_rng(9)
    alpha = np.r_[rng.exponential(size=40), 0.0, 1.0, 2.0, 0.5]
    beta = np.r_[rng.exponential(size=40), 0.0, 1.0, 0.0, 3.0]
    for lam in (1e-3, 0.2, 1.0, 5.0):
        x = closed_form_power(lam, alpha, beta)
        np.testing.assert_array_equal(
            x, [closed_form_power(lam, a, b) for a, b in zip(alpha, beta)])
        np.testing.assert_array_equal(
            secrecy_per_subcarrier(x, alpha, beta),
            [secrecy_per_subcarrier(*v) for v in zip(x, alpha, beta)])


def test_closed_form_satisfies_first_order_condition():
    x = closed_form_power(0.2, 3.0, 1.0)
    assert x > 0
    assert slope(x, 3.0, 1.0) == pytest.approx(0.2, abs=1e-8)


def test_single_subcarrier_saturates():
    """alpha=2, beta=1, X_max=1: the slope at full power is 1/6, the whole
    budget goes to the only subcarrier."""
    g = SubcarrierGains(alpha=np.array([2.0]), beta=np.array([1.0]), X_max=1.0)
    assert full_budget_slope_bound(g) == pytest.approx(1.0 / 6.0, abs=1e-15)
    alloc = waterfill(g)
    assert alloc.X[0] == pytest.approx(1.0, abs=1e-8)
    assert alloc.water_level == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_all_dominated_returns_zero():
    g = SubcarrierGains(alpha=np.array([1.0, 0.5]), beta=np.array([2.0, 0.5]),
                        X_max=1.0)
    alloc = waterfill(g)
    assert np.all(alloc.X == 0.0)
    assert alloc.objective == 0.0
    assert alloc.no_positive_subcarrier


def test_mixed_instance_skips_dominated():
    g = SubcarrierGains(alpha=np.array([3.0, 1.0]), beta=np.array([0.5, 2.0]),
                        X_max=2.0)
    alloc = waterfill(g)
    assert alloc.X[1] == 0.0
    assert alloc.X[0] == pytest.approx(2.0, abs=1e-7)


def test_matches_grid_search_n2():
    rng = np.random.default_rng(0)
    for _ in range(30):
        g = random_gains(rng, 2)
        alloc = waterfill(g)
        assert alloc.objective >= grid_best(g) - 1e-4


def test_slope_equality_at_optimum():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = random_gains(rng, 4)
        alloc = waterfill(g)
        for x, a, b in zip(alloc.X, g.alpha, g.beta):
            if x > 1e-8:
                assert abs(slope(x, a, b) - alloc.water_level) < 1e-6


def test_budget_residual_in_tolerance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_gains(rng, 5)
        eps0 = 1e-8 * g.X_max
        alloc = waterfill(g, eps0=eps0)
        resid = g.X_max - float(alloc.X.sum())
        assert 0.0 <= resid < eps0 or not alloc.budget_active


def test_dominates_equal_power():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_gains(rng, 6)
        equal = np.full_like(g.alpha, g.X_max / g.alpha.size)
        equal_objective = sum(secrecy_per_subcarrier(x, a, b)
                              for x, a, b in zip(equal, g.alpha, g.beta))
        assert waterfill(g).objective >= equal_objective - 1e-12


def test_concavity_on_segments():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = float(rng.uniform(0.5, 4.0))
        b = a * float(rng.uniform(0.0, 0.9))
        x1, x2 = sorted(rng.uniform(0.0, 5.0, 2))
        mid = secrecy_per_subcarrier(0.5 * (x1 + x2), a, b)
        avg = 0.5 * (secrecy_per_subcarrier(x1, a, b)
                     + secrecy_per_subcarrier(x2, a, b))
        assert mid >= avg - 1e-12


def test_water_level_bounds_ordering():
    """The shared slope at the optimum sits between the full-budget slope
    and the zero-power slope."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_gains(rng, 3)
        alloc = waterfill(g)
        assert alloc.water_level >= full_budget_slope_bound(g) - 1e-12
        assert alloc.water_level <= zero_power_slope_bound(g) + 1e-12


# --- gains from the full system model --------------------------------------


def test_gains_require_single_antenna():
    p = SystemParams.from_db(M_a=2, M_bt=2, M_br=2, M_e=2, N=2)
    ch = draw_channels(p, 0)
    with pytest.raises(WrongDimension):
        gains_from_system(p, ch, np.zeros((2, 2, 2), complex))


def test_gains_no_jamming_perfect_cancellation():
    p = SystemParams.from_db(M_a=1, M_bt=2, M_br=2, M_e=2, N=3)
    ch = draw_channels(p, 1)
    g = gains_from_system(p, ch, np.zeros((3, 2, 2), complex))
    for n in range(3):
        h = ch.H["ab"][n][:, 0]
        expected = float(np.real(h.conj() @ h)) / p.noise["b"][n]
        assert g.alpha[n] == pytest.approx(expected, rel=1e-12)


def test_gains_jamming_lowers_eve_gain():
    p = SystemParams.from_db(M_a=1, M_bt=2, M_br=2, M_e=2, N=2)
    ch = draw_channels(p, 2)
    w = np.stack([0.25 * np.eye(2, dtype=complex)] * 2)
    quiet = gains_from_system(p, ch, np.zeros_like(w))
    jammed = gains_from_system(p, ch, w)
    assert np.all(jammed.beta < quiet.beta)


def test_gains_direct_quadratic_form():
    from fdwiretap import linalg, system_model
    p = SystemParams.from_db(M_a=1, M_bt=2, M_br=2, M_e=2, N=2,
                             kappa_db=-20.0, beta_db=-20.0)
    ch = draw_channels(p, 3)
    rng = np.random.default_rng(4)
    w = np.zeros((2, 2, 2), complex)
    for n in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w[n] = 0.2 * g @ g.conj().T
    gains = gains_from_system(p, ch, w)
    d = TransmitDesign.zeros(p)
    d.W[:] = w
    for n in range(2):
        h = ch.H["ab"][n][:, 0]
        sb = system_model.sigma_node_bidirectional(p, ch, d, "b")[n]
        direct = float(np.real(h.conj() @ np.linalg.solve(sb, h)))
        assert gains.alpha[n] == pytest.approx(direct, abs=1e-12)
        he = ch.H["ae"][n][:, 0]
        se = system_model.sigma_eve(p, ch, d)[n]
        direct_e = float(np.real(he.conj() @ np.linalg.solve(se, he)))
        assert gains.beta[n] == pytest.approx(direct_e, abs=1e-12)


def test_invalid_gains_rejected():
    with pytest.raises(ValueError):
        SubcarrierGains(alpha=np.array([-1.0]), beta=np.array([0.0]), X_max=1.0)
    with pytest.raises(ValueError):
        SubcarrierGains(alpha=np.array([np.inf]), beta=np.array([0.0]), X_max=1.0)
    with pytest.raises(ValueError):
        SubcarrierGains(alpha=np.array([1.0]), beta=np.array([0.0]), X_max=0.0)
