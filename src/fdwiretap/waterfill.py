"""Optimal power allocation for a single-antenna transmitter.

With a fixed jamming design the per-subcarrier secrecy contribution is
f_n(x) = log((1 + alpha_n x) / (1 + beta_n x)), concave and increasing for
alpha_n > beta_n and nonpositive otherwise.  The KKT conditions give a
closed-form power for each water level lambda, and a bisection on lambda
inside its analytic bounds meets the total power budget.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg, system_model
from .channel import ChannelRealization, SystemParams
from .errors import WrongDimension
from .system_model import TransmitDesign


@dataclass(frozen=True, eq=False)
class SubcarrierGains:
    """Effective per-subcarrier gains seen by the single-antenna transmitter.

    ``alpha`` measures the desired link through Bob's interference floor
    (which includes residual SI from jamming); ``beta`` measures the leakage
    to Eve through Eve's jamming-raised floor.
    """

    alpha: np.ndarray
    beta: np.ndarray
    X_max: float

    def __post_init__(self):
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise ValueError("gains must be nonnegative")
        if not np.all(np.isfinite(self.alpha)) or not np.all(np.isfinite(self.beta)):
            raise ValueError("gains must be finite")
        if self.X_max <= 0:
            raise ValueError("X_max must be positive")


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-subcarrier powers, the water level and the achieved objective."""

    X: np.ndarray
    water_level: float
    objective: float
    budget_active: bool = True
    no_positive_subcarrier: bool = False


def gains_from_system(params: SystemParams, ch: ChannelRealization,
                      jamming: np.ndarray) -> SubcarrierGains:
    """Compute alpha/beta from the covariances under a fixed jamming design.

    Requires a single-antenna transmitter (M_a = 1).
    """
    if params.M_a != 1:
        raise WrongDimension("power allocation requires M_a = 1")
    design = TransmitDesign.zeros(params)
    design.W[:] = jamming
    alpha = np.zeros(params.N)
    beta = np.zeros(params.N)
    for n in range(params.N):
        h_ab = ch.link("ab", n)[:, 0]
        h_ae = ch.link("ae", n)[:, 0]
        sb_inv = linalg.psd_inverse(
            system_model.sigma_node_bidirectional(params, ch, design, "b", n))
        se_inv = linalg.psd_inverse(system_model.sigma_eve(params, ch, design, n))
        alpha[n] = float(np.real(h_ab.conj() @ sb_inv @ h_ab))
        beta[n] = float(np.real(h_ae.conj() @ se_inv @ h_ae))
    return SubcarrierGains(alpha=alpha, beta=beta, X_max=params.X_max)


def secrecy_per_subcarrier(x: float, alpha: float, beta: float) -> float:
    """log((1 + alpha*x) / (1 + beta*x)) in nats."""
    return float(np.log1p(alpha * x) - np.log1p(beta * x))


def slope(x: float, alpha: float, beta: float) -> float:
    """Derivative of the per-subcarrier secrecy with respect to power."""
    return alpha / (1.0 + alpha * x) - beta / (1.0 + beta * x)


def closed_form_power(water_level: float, alpha: float, beta: float) -> float:
    """Power at which the secrecy slope equals the water level.

    Solves alpha/(1+alpha x) - beta/(1+beta x) = lambda for x >= 0 and
    clamps at zero; subcarriers with alpha <= beta carry no power.  The
    quadratic is evaluated in a cancellation-free form that degrades
    gracefully to the classic water-filling {1/lambda - 1/alpha}^+ as
    beta -> 0.
    """
    if water_level <= 0:
        raise ValueError("water level must be positive")
    if alpha <= beta or alpha <= 0:
        return 0.0
    # Roots of alpha*beta x^2 + (alpha+beta) x + 1 - (alpha-beta)/lambda = 0.
    a2 = alpha * beta
    b2 = alpha + beta
    c2 = 1.0 - (alpha - beta) / water_level
    if c2 >= 0.0:
        return 0.0
    disc = b2 * b2 - 4.0 * a2 * c2
    return float(-2.0 * c2 / (b2 + np.sqrt(disc)))


def full_budget_slope_bound(gains: SubcarrierGains) -> float:
    """Largest slope any subcarrier retains at full-budget power.

    This is a valid *lower* bound on the optimal water level: every active
    subcarrier holds at most the full budget, and slopes decrease in power,
    so the shared slope at the optimum can only be larger.  It coincides
    with the optimal level exactly when one subcarrier absorbs everything.
    """
    vals = (gains.alpha - gains.beta) / (
        (1.0 + gains.alpha * gains.X_max) * (1.0 + gains.beta * gains.X_max))
    return float(np.max(vals))


def zero_power_slope_bound(gains: SubcarrierGains) -> float:
    """Largest slope at zero power; an upper bound on the water level."""
    return float(np.max(gains.alpha - gains.beta))


def _allocation_at(gains: SubcarrierGains, water_level: float) -> np.ndarray:
    return np.array([closed_form_power(water_level, a, b)
                     for a, b in zip(gains.alpha, gains.beta)])


def _objective(gains: SubcarrierGains, x: np.ndarray) -> float:
    return float(sum(secrecy_per_subcarrier(xi, a, b)
                     for xi, a, b in zip(x, gains.alpha, gains.beta)))


def waterfill(gains: SubcarrierGains, eps0: float | None = None,
              max_iter: int = 500) -> Allocation:
    """Bisection on the water level until the budget residual is in [0, eps0).

    If no subcarrier has alpha > beta the zero allocation is optimal and is
    returned with the ``no_positive_subcarrier`` flag set.
    """
    if eps0 is None:
        eps0 = 1e-8 * gains.X_max
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    lam_full = full_budget_slope_bound(gains)
    lam_zero = zero_power_slope_bound(gains)
    if lam_zero <= 0:
        x = np.zeros_like(gains.alpha)
        return Allocation(X=x, water_level=lam_full, objective=0.0,
                          budget_active=False, no_positive_subcarrier=True)
    # Bisect between the full-budget slope (lower bound on the level) and
    # the zero-power slope (upper bound); guard the closed form's 1/lambda
    # against a nonpositive lower endpoint.
    lo = max(lam_full, 1e-12 * lam_zero)
    x_lo = _allocation_at(gains, lo)
    residual_lo = gains.X_max - x_lo.sum()
    if residual_lo >= 0.0:
        # The lower endpoint already fits the budget, which happens exactly
        # when a single subcarrier absorbs the whole budget.
        return Allocation(X=x_lo, water_level=lo,
                          objective=_objective(gains, x_lo),
                          budget_active=residual_lo < eps0)
    hi = lam_zero
    lam = hi
    x = _allocation_at(gains, lam)
    for _ in range(max_iter):
        lam = 0.5 * (hi + lo)
        x = _allocation_at(gains, lam)
        residual = gains.X_max - x.sum()
        if 0.0 <= residual < eps0:
            break
        if residual < 0.0:
            lo = lam
        else:
            hi = lam
    else:
        lam = hi
        x = _allocation_at(gains, lam)
    return Allocation(X=x, water_level=lam, objective=_objective(gains, x))


def equal_power_objective(gains: SubcarrierGains) -> float:
    """Objective of the uniform allocation; a feasible comparison point."""
    x = np.full_like(gains.alpha, gains.X_max / gains.alpha.size)
    return _objective(gains, x)
