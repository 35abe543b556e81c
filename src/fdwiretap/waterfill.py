"""Optimal power allocation for a single-antenna transmitter.

With a fixed jamming design the per-subcarrier secrecy contribution is
f_n(x) = log((1 + alpha_n x) / (1 + beta_n x)), concave and increasing for
alpha_n > beta_n and nonpositive otherwise.  The KKT conditions give a
closed-form power for each water level lambda, and a bisection on lambda
inside its analytic bounds meets the total power budget; the closed form's
level-free parts are built once per bisection.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg, system_model
from .channel import ChannelRealization, SystemParams, require
from .errors import ConfigError, WrongDimension
from .system_model import TransmitDesign


@dataclass(frozen=True, eq=False)
class SubcarrierGains:
    """Effective per-subcarrier gains seen by the single-antenna transmitter.

    ``alpha`` measures the desired link through Bob's interference floor
    (which includes residual SI from jamming); ``beta`` measures the leakage
    to Eve through Eve's jamming-raised floor.  Both are 1-D arrays, one
    entry >= 0 per subcarrier, and the budget ``X_max`` is > 0; all finite.
    """

    alpha: np.ndarray
    beta: np.ndarray
    X_max: float

    def __post_init__(self):
        if np.ndim(self.alpha) != 1 or np.ndim(self.beta) != 1:
            raise ConfigError("gains must be 1-D arrays (alpha, beta)")
        if len(self.alpha) != len(self.beta):
            raise ConfigError("alpha and beta must have the same length")
        require("alpha", self.alpha, strict=False)
        require("beta", self.beta, strict=False)
        require("X_max", self.X_max)


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-subcarrier powers, the water level and the achieved objective.
    ``budget_active``: the powers spend the budget, X_max - sum(X) is in
    [0, 1e-8 * X_max)."""

    X: np.ndarray
    water_level: float
    objective: float
    budget_active: bool
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
    sb_inv = linalg.psd_inverse(
        system_model.sigma_node_bidirectional(params, ch, design, "b"))
    se_inv = linalg.psd_inverse(system_model.sigma_eve(params, ch, design))
    alpha, beta = (np.real(h.conj().swapaxes(-1, -2) @ inv @ h)[:, 0, 0]
                   for h, inv in ((ch.H["ab"], sb_inv), (ch.H["ae"], se_inv)))
    return SubcarrierGains(alpha=alpha, beta=beta, X_max=params.X_max)


def secrecy_per_subcarrier(x, alpha, beta):
    """log((1 + alpha*x) / (1 + beta*x)) in nats, elementwise."""
    return np.log1p(alpha * x) - np.log1p(beta * x)


def slope(x, alpha, beta):
    """Derivative of the per-subcarrier secrecy in power, elementwise."""
    return alpha / (1.0 + alpha * x) - beta / (1.0 + beta * x)


def closed_form_power(water_level: float, alpha, beta):
    """Power at which the secrecy slope equals the water level, elementwise
    over the gains.

    Solves alpha/(1+alpha x) - beta/(1+beta x) = lambda for x >= 0 and
    clamps at zero; subcarriers with alpha <= beta carry no power.  The
    quadratic is evaluated in a cancellation-free form that degrades
    gracefully to the classic water-filling {1/lambda - 1/alpha}^+ as
    beta -> 0.
    """
    if water_level <= 0:
        raise ValueError("water level must be positive")
    return _power(water_level, _quadratic(alpha, beta))


def _quadratic(alpha, beta) -> tuple:
    """The level-free parts of alpha*beta x^2 + (alpha+beta) x + 1 -
    (alpha-beta)/lambda = 0, whose root is the closed-form power: alpha +
    beta, its square, 4 alpha beta, alpha - beta, and the mask of the
    subcarriers that can carry power (alpha > beta and alpha > 0)."""
    b2 = alpha + beta
    return b2, b2 * b2, 4.0 * (alpha * beta), alpha - beta, (
        (alpha > beta) & (alpha > 0))


def _power(water_level: float, quadratic: tuple):
    """:func:`closed_form_power` at a positive level, from the parts
    :func:`_quadratic` built once for the gains."""
    b2, b2_sq, a2_4, gap, positive = quadratic
    c2 = 1.0 - gap / water_level
    # Lanes outside ``positive & (c2 < 0)`` may take the root of a negative
    # discriminant or divide by zero; they are masked out.
    with np.errstate(invalid="ignore", divide="ignore"):
        x = -2.0 * c2 / (b2 + np.sqrt(b2_sq - a2_4 * c2))
    return np.where(positive & (c2 < 0.0), x, 0.0)[()]


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


def _objective(gains: SubcarrierGains, x: np.ndarray) -> float:
    # Summed in subcarrier order: np.sum's pairwise order would change the
    # bits of the objective from eight subcarriers on.
    return float(sum(secrecy_per_subcarrier(x, gains.alpha, gains.beta)))


def waterfill(gains: SubcarrierGains) -> Allocation:
    """Bisection on the water level, at most 500 steps, until the budget
    residual is in [0, 1e-8 * X_max).

    If no subcarrier has alpha > beta the zero allocation is optimal and is
    returned with the ``no_positive_subcarrier`` flag set.
    """
    eps0 = 1e-8 * gains.X_max
    lam_full = full_budget_slope_bound(gains)
    lam_zero = zero_power_slope_bound(gains)
    # (hi, x_hi) fits the budget: no power at the zero-power slope.
    hi, x_hi = lam_zero, np.zeros_like(gains.alpha)
    if lam_zero <= 0:
        hi = lam_full
    else:
        # Bisect between the full-budget slope (lower bound on the level)
        # and the zero-power slope (upper bound); guard the closed form's
        # 1/lambda against a nonpositive lower endpoint.
        lam = lo = max(lam_full, 1e-12 * lam_zero)
        quadratic = _quadratic(gains.alpha, gains.beta)
        for _ in range(1 + 500):
            x = _power(lam, quadratic)
            residual = gains.X_max - x.sum()
            if residual < 0.0:
                lo = lam
            else:
                hi, x_hi = lam, x
                # The lower endpoint fits the budget exactly when a single
                # subcarrier absorbs the whole budget.
                if residual < eps0 or lam == lo:
                    break
            lam = 0.5 * (hi + lo)
    return Allocation(X=x_hi, water_level=hi, objective=_objective(gains, x_hi),
                      budget_active=bool(gains.X_max - x_hi.sum() < eps0),
                      no_positive_subcarrier=lam_zero <= 0)
