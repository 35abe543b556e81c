"""Generic concave log-det-plus-linear maximization over PSD variables.

Solves problems of the form

    maximize   sum_t w_t * log|C_t + sum_v A_tv(V_v)|  -  sum_v tr(C_v V_v)
    subject to V_v >= 0,   sum_{v in g} tr(V_v) <= budget_g,

where every A_tv is a Hermitian-preserving linear map.  A variable's value
may carry leading axes: an (N, M, M) stack is one variable, its trace is
summed over the stack, and a term whose constant is a stack contributes the
sum of its per-matrix log-determinants.  The method is a
monotone scaled spectral projected gradient ascent (Birgin, Martinez &
Raydan, SIAM J. Optim. 2000; Bonettini, Zanella & Zanni, Inverse Problems
2009).  Each variable takes its own Barzilai-Borwein step, since the
curvatures of an information and a jamming block can differ by orders of
magnitude, and the trial point is projected in the matching scaled metric
sum_v ||V_v - P_v||^2 / step_v.  That projection is exact: a
per-variable eigendecomposition plus a joint weighted water-level clip of
the eigenvalues against each trace budget.  An Armijo backtracking line
search guarantees the objective never decreases across iterates.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .errors import InfeasibleStart, NonPositiveDefinite

# ---------------------------------------------------------------------------
# Linear maps on Hermitian matrices, with adjoints for gradient assembly.


class LinearMap:
    """A Hermitian-preserving linear map with an explicit adjoint."""

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ChannelMap(LinearMap):
    """A map built on a channel matrix or stack H; H^H is formed once."""

    def __post_init__(self):
        object.__setattr__(self, "H_h", self.H.conj().swapaxes(-1, -2))


@dataclass(frozen=True, eq=False)
class Congruence(ChannelMap):
    """V -> H V H^H, matrix by matrix on stacks."""

    H: np.ndarray

    def apply(self, v):
        return self.H @ v @ self.H_h

    def adjoint(self, g):
        return self.H_h @ g @ self.H


# ---------------------------------------------------------------------------
# Problem container.


@dataclass(eq=False)
class LogDetTerm:
    """Contributes weight * log|const + sum_v map_v(V_v)| to the objective;
    a stack ``const`` contributes the sum over its matrices."""

    const: np.ndarray
    maps: list  # list of (var_name, LinearMap)
    weight: float = 1.0


@dataclass(eq=False)
class MaxDetProblem:
    """Problem data; see the module docstring for the optimization form.

    ``variables`` gives each variable's matrix size; its value is a matrix or
    a stack of them.  ``linear_terms`` maps variable names to coefficients C
    of the value's shape, Hermitian up to rounding, contributing -tr(C V).
    ``constraints`` is a list of (variable-name tuple, budget) in which
    every variable appears in exactly one group; a budget of ``np.inf``
    leaves its group unbudgeted.
    """

    variables: list  # list of (name, dim)
    logdet_terms: list = field(default_factory=list)
    linear_terms: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        names = [name for name, _ in self.variables]
        grouped = [name for group, _ in self.constraints for name in group]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if len(set(grouped)) != len(grouped):
            raise ValueError("a variable in two constraint groups")
        if not set(names) <= set(grouped):
            raise ValueError("a variable in no constraint group")
        if any(budget <= 0 for _, budget in self.constraints):
            raise ValueError("budgets must be strictly positive")


class SolverStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    NUMERICAL_TROUBLE = "NumericalTrouble"


@dataclass(eq=False)
class SolverReport:
    """``residual`` is the stationarity residual at the returned point,
    ``first_residual`` the one at the projected start, and ``threshold``
    the stopping level the residual was tested against."""

    objective: float
    iterations: int
    residual: float
    status: SolverStatus
    first_residual: float
    threshold: float
    objective_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Objective evaluation.


def _term_matrix(term: LogDetTerm, point: dict, const=None) -> np.ndarray:
    """``const`` (by default the term's own) plus the term's maps applied to
    ``point``; with a zero ``const`` and a direction for ``point`` it is the
    change of the term matrix along that direction."""
    y = term.const if const is None else const
    for name, lmap in term.maps:
        y = y + lmap.apply(point[name])
    return y


def _eval_state(prob: MaxDetProblem, point: dict) -> tuple:
    """Objective, gradient and the inverse Cholesky factors W = L^-1 of the
    term matrices Y = L L^H at a point: each Y is factored once, for its
    log-det 2 sum log diag L and, through :func:`_gradient`, its inverse."""
    total = 0.0
    for name, coeff in prob.linear_terms.items():
        total -= linalg.inner(coeff, point[name])
    factors = []
    for term in prob.logdet_terms:
        chol = linalg.cholesky(_term_matrix(term, point))
        total += term.weight * 2.0 * np.log(
            chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1).sum()
        factors.append(np.linalg.inv(chol))
    return total, _gradient(prob, point, factors), factors


def _gradient(prob: MaxDetProblem, point: dict, factors: list) -> dict:
    """Gradient at a point from whitening factors W of its term matrices,
    W Y W^H = I, through Y^-1 = W^H W."""
    grads = {name: -prob.linear_terms[name] if name in prob.linear_terms
             else np.zeros_like(point[name])
             for name, _ in prob.variables}
    for term, w in zip(prob.logdet_terms, factors):
        y_inv = w.conj().swapaxes(-1, -2) @ w
        # A map object listed for several variables has one adjoint.
        adjoints = {}
        for name, lmap in term.maps:
            adj = adjoints.get(id(lmap))
            if adj is None:
                adj = adjoints[id(lmap)] = term.weight * lmap.adjoint(y_inv)
            grads[name] = grads[name] + adj
    return grads


def _logdet_increment(mu: np.ndarray, step: float) -> float:
    """log|Y0 + t Yd| - log|Y0| = sum log1p(t mu) at step t, with mu the
    eigenvalues of W Yd W^H for a whitening factor W, W Y0 W^H = I; -inf
    where some t mu <= -1, that is where Y0 + t Yd is not positive definite."""
    t_mu = step * mu
    return np.log1p(t_mu).sum() if t_mu.min() > -1.0 else -np.inf


# ---------------------------------------------------------------------------
# Exact projection onto { V >= 0, per-group trace budgets }.


def _clip_to_budget(vals: np.ndarray, budget: float,
                    weights: np.ndarray) -> np.ndarray:
    """Project eigenvalues onto {p >= 0, sum p <= budget} in the metric
    sum_i (vals_i - p_i)^2 / weights_i, for positive weights.

    The result is the weighted water level p_i = max(vals_i - theta *
    weights_i, 0), with theta >= 0 the smallest level that meets the
    budget; unit weights give the Euclidean projection.
    """
    clipped = np.maximum(vals, 0.0)
    if clipped.sum() <= budget:
        return clipped
    # Each eigenvalue leaves the active set at theta = vals / weights.  With
    # the k largest of these ratios active, sum (vals - theta weights) =
    # budget gives theta[k]; the level is that of the largest k whose
    # theta[k] is below the k-th largest ratio.
    ratios = vals / weights
    order = np.argsort(ratios)[::-1]
    theta = (vals[order].cumsum() - budget) / weights[order].cumsum()
    k_star = np.flatnonzero(theta < ratios[order])[-1]
    return np.maximum(vals - theta[k_star] * weights, 0.0)


def project_feasible(prob: MaxDetProblem, point: dict,
                     steps: dict | None = None) -> dict:
    """Projection onto the feasible set in the metric
    sum_v ||V_v - P_v||^2 / steps[v]; Euclidean without ``steps``.

    Unitary invariance of both the PSD cone and the trace budgets reduces
    the projection to an eigenvalue problem per variable plus a joint
    water-level clip per constraint group, whose eigenvalues are weighted
    by their variable's step over the group's largest step.  A variable
    alone in its group, budgeted or not, projects the same for any step.
    """
    if steps is None:
        steps = {name: 1.0 for name, _ in prob.variables}
    out = {}
    for group, budget in prob.constraints:
        eig = [np.linalg.eigh(point[name]) for name in group]
        top = max(steps[name] for name in group)
        clipped = _clip_to_budget(
            np.concatenate([vals.ravel() for vals, _ in eig]), budget,
            np.concatenate([np.full(vals.size, steps[name] / top)
                            for name, (vals, _) in zip(group, eig)]))
        pos = 0
        for name, (vals, vecs) in zip(group, eig):
            new_vals = clipped[pos:pos + vals.size].reshape(vals.shape)
            out[name] = linalg.from_eigh(new_vals, vecs)
            pos += vals.size
    return out


def _check_feasible(prob: MaxDetProblem, point: dict) -> None:
    for name, dim in prob.variables:
        v = point.get(name)
        if v is None or v.shape[-2:] != (dim, dim):
            raise InfeasibleStart(f"variable {name} missing or misshaped")
        if linalg.min_eigenvalue(v) < -1e-8:
            raise InfeasibleStart(f"variable {name} is not PSD")
    for group, budget in prob.constraints:
        total = sum(linalg.real_trace(point[name]) for name in group)
        if total > budget + 1e-8:
            raise InfeasibleStart("trace budget violated at the initial point")


def _stationarity_residual(prob: MaxDetProblem, point: dict, grads: dict) -> float:
    """Norm of the unit-step projected-gradient mapping."""
    shifted = {name: point[name] + grads[name] for name, _ in prob.variables}
    projected = project_feasible(prob, shifted)
    sq = 0.0
    for name, _ in prob.variables:
        diff = point[name] - projected[name]
        sq += linalg.inner(diff, diff)
    return float(np.sqrt(sq))


def solve(prob: MaxDetProblem, initial: dict, max_iter: int = 200,
          tol: float = 1e-6, rel_tol: float = 0.0) -> tuple[dict, SolverReport]:
    """Monotone scaled spectral projected gradient ascent.

    Each variable takes its own Barzilai-Borwein step, from its own
    displacement and gradient change, and the trial point is projected in
    the matching scaled metric (see :func:`project_feasible`), which keeps
    the projected direction an ascent direction for the Armijo search.

    Stops once the Euclidean projected-gradient norm falls to
    ``max(tol, rel_tol * first_residual)``, where ``first_residual`` is that
    norm at the projected start; the default ``rel_tol=0`` solves to the
    absolute ``tol``.  A relative stop suits callers that need only an
    improving step, such as the block updates of :mod:`fdwiretap.bcd`.
    Returns the last accepted iterate and a report carrying its objective,
    both residuals and the threshold used.  That iterate is feasible
    without a final projection: it lies on the segment between two
    feasible points, the previous iterate and a projected trial point.
    Every accepted step increases the objective (an Armijo test on exact
    log-det increments), so the returned objective is never below the
    objective at ``initial``.  Each term matrix is factored once, at the
    projected start; an accepted step updates its whitening factor, and
    the objective by the increment tested, in closed form.
    """
    _check_feasible(prob, initial)
    point = {name: linalg.hermitize(np.asarray(initial[name], complex))
             for name, _ in prob.variables}
    point = project_feasible(prob, point)
    try:
        f_cur, grads, w_cur = _eval_state(prob, point)
    except NonPositiveDefinite as exc:
        raise InfeasibleStart("objective undefined at the initial point") from exc
    trace = [f_cur]
    steps = {name: 1.0 for name, _ in prob.variables}
    residual = first_residual = _stationarity_residual(prob, point, grads)
    threshold = max(tol, rel_tol * first_residual)
    status = SolverStatus.CONVERGED
    iters = 0
    while residual > threshold:
        if iters == max_iter:
            status = SolverStatus.MAX_ITER
            break
        iters += 1
        trial = {name: point[name] + steps[name] * grads[name]
                 for name, _ in prob.variables}
        proj = project_feasible(prob, trial, steps)
        direction = {name: proj[name] - point[name] for name, _ in prob.variables}
        slope = sum(linalg.inner(grads[name], direction[name])
                    for name, _ in prob.variables)
        if slope <= 0:
            # The projected direction is not an ascent direction; the point
            # is numerically stationary at this step scale.
            steps = {name: max(alpha * 0.1, 1e-10)
                     for name, alpha in steps.items()}
            if max(steps.values()) <= 1e-10:
                status = SolverStatus.NUMERICAL_TROUBLE
                break
            continue
        # Each term matrix is affine along the segment: with W Y W^H = I and
        # W Yd W^H = U diag(mu) U^H, every halving's increment is exact, and
        # halvings are tested lazily, largest first, with no factorization.
        # Increments, not levels: a constant cannot change the step taken.
        y_dir = [_term_matrix(term, direction, np.zeros_like(term.const))
                 for term in prob.logdet_terms]
        eigs = [np.linalg.eigh(w @ yd @ w.conj().swapaxes(-1, -2))
                for w, yd in zip(w_cur, y_dir)]
        lin_delta = -sum(linalg.inner(coeff, direction[name])
                         for name, coeff in prob.linear_terms.items())
        for step in 0.5 ** np.arange(40):
            gain = step * lin_delta + sum(
                term.weight * _logdet_increment(mu, step)
                for term, (mu, _) in zip(prob.logdet_terms, eigs))
            if gain >= 1e-4 * step * slope:
                break
        else:
            status = SolverStatus.NUMERICAL_TROUBLE
            break
        new_point = {name: point[name] + step * direction[name]
                     for name, _ in prob.variables}
        # (1 + t mu)^-1/2 U^H W whitens Y + t Yd.
        w_cur = [(vecs.conj().swapaxes(-1, -2) @ w)
                 / np.sqrt(1.0 + step * mu)[..., None]
                 for w, (mu, vecs) in zip(w_cur, eigs)]
        new_grads = _gradient(prob, new_point, w_cur)
        # Each variable's Barzilai-Borwein step for the next trial point.
        for name, _ in prob.variables:
            s = new_point[name] - point[name]
            y = grads[name] - new_grads[name]
            ss = linalg.inner(s, s)
            sy = linalg.inner(s, y)
            steps[name] = min(max(ss / sy, 1e-8), 1e8) if sy > 1e-16 else 1.0
        point, grads, f_cur = new_point, new_grads, f_cur + gain
        trace.append(f_cur)
        residual = _stationarity_residual(prob, point, grads)
    report = SolverReport(objective=f_cur, iterations=iters,
                          residual=residual, status=status,
                          first_residual=first_residual, threshold=threshold,
                          objective_trace=trace)
    return point, report
