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
from .errors import FdWiretapError, InfeasibleStart, NonPositiveDefinite

#: The line search's steps, largest first.
_HALVINGS = tuple(0.5 ** k for k in range(40))

# ---------------------------------------------------------------------------
# Linear maps on Hermitian matrices, with adjoints for gradient assembly: a
# map is any object with Hermitian-preserving apply(V) and its adjoint(G).


class ChannelMap:
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
    maps: list  # list of (var_name, map)
    weight: float = 1.0


@dataclass(eq=False)
class MaxDetProblem:
    """Problem data; see the module docstring for the optimization form.

    ``variables`` gives each variable's matrix size; its value is a matrix or
    a stack of them.  ``linear_terms`` maps variable names to coefficients C
    of the value's shape, Hermitian up to rounding, contributing -tr(C V).
    ``constraints`` is a list of (variable-name tuple, budget) that names
    only declared variables, in which every variable appears in exactly one
    group and every budget is positive and finite.
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
        for name in grouped:
            if name not in names:
                raise ValueError(f"a constraint group names an undeclared "
                                 f"variable {name!r}")
        if not all(0 < budget < np.inf for _, budget in self.constraints):
            raise ValueError("budgets must be strictly positive and finite")


class SolverStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    NUMERICAL_TROUBLE = "NumericalTrouble"


@dataclass(eq=False)
class SolverReport:
    """``gap`` bounds the optimum less ``objective`` at the returned point
    (:func:`_duality_gap`), and ``first_gap`` is the gap at the projected
    start."""

    objective: float
    iterations: int
    status: SolverStatus
    gap: float
    first_gap: float
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
        factors.append(linalg.inv(chol))
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
                adj = lmap.adjoint(y_inv)
                if term.weight != 1.0:
                    adj = term.weight * adj
                adjoints[id(lmap)] = adj
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
                    weights: np.ndarray | None = None) -> np.ndarray:
    """Project eigenvalues onto {p >= 0, sum p <= budget} in the metric
    sum_i (vals_i - p_i)^2 / weights_i, for positive weights.

    The result is the weighted water level p_i = max(vals_i - theta *
    weights_i, 0), with theta >= 0 the smallest level that meets the
    budget.  Without ``weights`` it is the Euclidean projection, levelled
    over the plainly sorted eigenvalues with no ratios; unit weights give
    the same bits.
    """
    clipped = np.maximum(vals, 0.0)
    if clipped.sum() <= budget:
        return clipped
    if weights is None:
        # Over Python floats, which costs less than numpy calls on a few
        # eigenvalues.  The running sum of the sorted values is sequential,
        # as in ``cumsum``, so the level is the numpy formula's, bit for bit.
        xs = vals.tolist()
        total, level = 0.0, None
        for k, x in enumerate(sorted(xs, reverse=True), 1):
            total += x
            theta = (total - budget) / k
            if theta < x:
                level = theta
        if level is None:
            raise _no_level(budget)
        return np.array([0.0 if x - level < 0.0 else x - level for x in xs])
    # Each eigenvalue leaves the active set at theta = vals / weights.  With
    # the k largest of these ratios active, sum (vals - theta weights) =
    # budget gives theta[k]; the level is that of the largest k whose
    # theta[k] is below the k-th largest ratio.
    ratios = vals / weights
    order = np.argsort(ratios)[::-1]
    theta = (vals[order].cumsum() - budget) / weights[order].cumsum()
    passing = np.nonzero(theta < ratios[order])[0]
    if not passing.size:
        raise _no_level(budget)
    return np.maximum(vals - theta[passing[-1]] * weights, 0.0)


def _no_level(budget: float) -> FdWiretapError:
    """The error when no water level passes: the largest eigenvalue exceeds
    ``budget`` by more than float rounding resolves."""
    return FdWiretapError(f"no water level meets the trace budget "
                          f"{budget!r}: the largest eigenvalue exceeds it "
                          f"beyond float resolution")


def project_feasible(prob: MaxDetProblem, point: dict,
                     steps: dict | None = None) -> dict:
    """Projection onto the feasible set in the metric
    sum_v ||V_v - P_v||^2 / steps[v]; Euclidean without ``steps``.

    Unitary invariance of both the PSD cone and the trace budgets reduces
    the projection to an eigenvalue problem per variable plus a joint
    water-level clip per constraint group, whose eigenvalues are weighted
    by their variable's step over the group's largest step.  A variable
    alone in its group projects the same for any step: its weights are all
    1.0, so its level is taken unweighted, with no weight vector and no
    sort by ratio.
    """
    if steps is None:
        steps = {name: 1.0 for name, _ in prob.variables}
    out = {}
    for group, budget in prob.constraints:
        if len(group) == 1:
            (name,) = group
            vals, vecs = linalg.eigh(point[name])
            clipped = _clip_to_budget(vals.ravel(), budget)
            out[name] = linalg.from_eigh(clipped.reshape(vals.shape), vecs)
            continue
        eig = [linalg.eigh(point[name]) for name in group]
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
        if not linalg.min_eigenvalue(v) >= -1e-8:  # NaN is not PSD either
            raise InfeasibleStart(f"variable {name} is not PSD")
    for group, budget in prob.constraints:
        total = sum(linalg.real_trace(point[name]) for name in group)
        if not total <= budget + 1e-8:  # a NaN trace violates it too
            raise InfeasibleStart("trace budget violated at the initial point")


def _duality_gap(prob: MaxDetProblem, point: dict, grads: dict) -> float:
    """Frank-Wolfe duality gap at a feasible point with gradients G_v,
    sum_g budget_g * max(0, max_{v in g} lambda_max(G_v)) - sum_v <G_v, V_v>:
    by concavity it bounds the optimum less the objective at ``point``, and
    it is zero at a maximizer."""
    gap = 0.0
    for group, budget in prob.constraints:
        top = max(float(linalg.eigvalsh(grads[name]).max())
                  for name in group)
        gap += budget * max(top, 0.0) - sum(
            linalg.inner(grads[name], point[name]) for name in group)
    return float(gap)


@linalg.guarded()
def solve(prob: MaxDetProblem, initial: dict, max_iter: int = 200,
          tol: float = 1e-6,
          rel_tol: float = 0.0) -> tuple[dict, SolverReport]:
    """Monotone scaled spectral projected gradient ascent.

    Each variable takes its own Barzilai-Borwein step, from its own
    displacement and gradient change, and the trial point is projected in
    the matching scaled metric (see :func:`project_feasible`), which keeps
    the projected direction an ascent direction for the Armijo search.

    Stops, converged, once the duality gap falls to ``max(tol, rel_tol *
    first_gap)``, where ``first_gap`` is the gap at the projected start:
    MAXDET's stop (Vandenberghe, Boyd & Wu 1998).  The gap bounds the
    optimum less the objective, so ``tol`` is in the objective's units, and
    the default ``rel_tol=0`` solves to it.  A relative stop suits callers
    that need only an improving step, such as the block updates of
    :mod:`fdwiretap.bcd`.  Returns the last accepted iterate and a report
    carrying its objective and gap and the first gap.  That iterate is
    feasible without a final projection: it lies on the segment between two
    feasible points, the previous iterate and a projected trial point.
    Every accepted step increases the objective (an Armijo test on exact
    log-det increments), so the returned objective is never below the
    objective at ``initial``.  Each term matrix is factored once, at the
    projected start; an accepted step updates its whitening factor, and the
    objective by the increment tested, in closed form.
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
    gap = first_gap = _duality_gap(prob, point, grads)
    threshold = max(tol, rel_tol * first_gap)
    status = SolverStatus.CONVERGED
    iters = 0
    while gap > threshold:
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
            # In exact arithmetic the projected direction ascends, so this
            # is rounding.  It does not shrink with the steps while the
            # slope does, so retry at unit steps, where every solve starts;
            # a point that does not ascend there is stationary to rounding.
            if all(alpha == 1.0 for alpha in steps.values()):
                status = SolverStatus.NUMERICAL_TROUBLE
                break
            steps = dict.fromkeys(steps, 1.0)
            continue
        # Each term matrix is affine along the segment: with W Y W^H = I and
        # W Yd W^H = U diag(mu) U^H, every halving's increment is exact, and
        # halvings are tested lazily, largest first, with no factorization.
        # Increments, not levels: a constant cannot change the step taken.
        y_dir = [_term_matrix(term, direction, np.zeros_like(term.const))
                 for term in prob.logdet_terms]
        eigs = [linalg.eigh(w @ yd @ w.conj().swapaxes(-1, -2))
                for w, yd in zip(w_cur, y_dir)]
        lin_delta = -sum(linalg.inner(coeff, direction[name])
                         for name, coeff in prob.linear_terms.items())
        for step in _HALVINGS:
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
        gap = _duality_gap(prob, point, grads)
    report = SolverReport(objective=float(f_cur), iterations=iters,
                          status=status, gap=gap, first_gap=first_gap,
                          objective_trace=trace)
    return point, report
