import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdwiretap import bcd, linalg, maxdet
from fdwiretap.channel import SystemParams, draw_channels
from fdwiretap.errors import (FdWiretapError, InfeasibleStart,
                              NonPositiveDefinite)
from fdwiretap.maxdet import (Congruence, LogDetTerm, MaxDetProblem,
                              SolverStatus, _clip_to_budget, _eval_state,
                              _logdet_increment, _term_matrix,
                              project_feasible, solve)
from fdwiretap.system_model import (BidirectionalDesign, ReceiveDistortion,
                                    TraceCorrelation, TransmitDesign,
                                    TransmitDistortion)


def scalar_problem(a, q, budget=50.0):
    """max log(1 + a x) - q x over 0 <= x <= budget."""
    return MaxDetProblem(
        variables=[("x", 1)],
        logdet_terms=[LogDetTerm(const=np.eye(1, dtype=complex),
                                 maps=[("x", Congruence(np.array([[np.sqrt(a)]],
                                                                 dtype=complex)))])],
        linear_terms={"x": q * np.eye(1, dtype=complex)},
        constraints=[(("x",), budget)],
    )


def test_scalar_analytic_optimum():
    prob = scalar_problem(2.0, 0.5)
    point, rep = solve(prob, {"x": 0.1 * np.eye(1, dtype=complex)})
    assert rep.status == SolverStatus.CONVERGED
    assert point["x"][0, 0].real == pytest.approx(1.5, abs=1e-6)


def test_scalar_grid_of_instances():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = float(rng.uniform(0.2, 5.0))
        q = float(rng.uniform(0.05, 3.0))
        target = max(1.0 / q - 1.0 / a, 0.0)
        prob = scalar_problem(a, q)
        # curvature at the optimum is about q^2, so hitting the argument
        # within 1e-6 needs a residual well below 1e-6 * q^2
        point, rep = solve(prob, {"x": 0.01 * np.eye(1, dtype=complex)},
                           tol=1e-12, max_iter=2000)
        assert point["x"][0, 0].real == pytest.approx(target, abs=1e-6), (a, q)


def test_tight_scalar_solves_all_converge():
    """criterion_05's scalar grid at tol=1e-12: every solve converges to
    the analytic optimum.  A line search that differences two factored
    log-dets stalls at the rounding floor here (78 Converged, 12 MaxIter,
    10 NumericalTrouble)."""
    for a in np.linspace(0.2, 5.0, 10):
        for q in np.linspace(0.05, 3.0, 10):
            target = max(1.0 / q - 1.0 / a, 0.0)
            point, rep = solve(scalar_problem(float(a), float(q)),
                               {"x": 0.1 * np.eye(1, dtype=complex)},
                               tol=1e-12, max_iter=2000)
            assert rep.status == SolverStatus.CONVERGED, (a, q)
            assert abs(point["x"][0, 0].real - target) <= 1e-9, (a, q)


def test_linear_only_returns_zero():
    # constant logdet terms: the PSD linear cost is minimized at V = 0
    c = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
    prob = MaxDetProblem(
        variables=[("v", 2)],
        logdet_terms=[LogDetTerm(const=np.eye(2, dtype=complex), maps=[])],
        linear_terms={"v": c},
        constraints=[(("v",), 5.0)],
    )
    point, rep = solve(prob, {"v": 0.5 * np.eye(2, dtype=complex)})
    assert np.linalg.norm(point["v"]) < 1e-6
    assert rep.objective == pytest.approx(0.0, abs=1e-6)


def _cholesky_grid_best(h, c, budget, center=None, width=None, steps=13):
    """Grid search over V = L L^H with L lower triangular.

    Returns the best objective of log|I + H V H^H| - tr(C V) found.
    """
    if center is None:
        lim = np.sqrt(budget)
        grids = [np.linspace(0, lim, steps), np.linspace(-lim, lim, steps),
                 np.linspace(-lim, lim, steps), np.linspace(0, lim, steps)]
    else:
        grids = [np.linspace(cc - width, cc + width, steps) for cc in center]
        grids[0] = np.clip(grids[0], 0, None)
        grids[3] = np.clip(grids[3], 0, None)
    best = -np.inf
    best_p = None
    l11, l21r, l21i, l22 = np.meshgrid(*grids, indexing="ij")
    tr = l11 ** 2 + l21r ** 2 + l21i ** 2 + l22 ** 2
    mask = tr <= budget
    v11 = l11 ** 2
    v21 = (l21r + 1j * l21i) * l11
    v22 = l21r ** 2 + l21i ** 2 + l22 ** 2
    # M = I + H V H^H entrywise for 2x2 everything
    hh = h
    m11 = (1 + hh[0, 0] * v11 * np.conj(hh[0, 0])
           + hh[0, 0] * np.conj(v21) * np.conj(hh[0, 1])
           + hh[0, 1] * v21 * np.conj(hh[0, 0])
           + hh[0, 1] * v22 * np.conj(hh[0, 1]))
    m12 = (hh[0, 0] * v11 * np.conj(hh[1, 0])
           + hh[0, 0] * np.conj(v21) * np.conj(hh[1, 1])
           + hh[0, 1] * v21 * np.conj(hh[1, 0])
           + hh[0, 1] * v22 * np.conj(hh[1, 1]))
    m22 = (1 + hh[1, 0] * v11 * np.conj(hh[1, 0])
           + hh[1, 0] * np.conj(v21) * np.conj(hh[1, 1])
           + hh[1, 1] * v21 * np.conj(hh[1, 0])
           + hh[1, 1] * v22 * np.conj(hh[1, 1]))
    det = np.real(m11 * m22 - m12 * np.conj(m12))
    trace_cost = np.real(c[0, 0]) * v11 + np.real(c[1, 1]) * v22 \
        + 2 * np.real(c[1, 0] * np.conj(v21))
    obj = np.where(mask & (det > 0), np.log(np.maximum(det, 1e-300)) - trace_cost,
                   -np.inf)
    idx = np.unravel_index(np.argmax(obj), obj.shape)
    best = float(obj[idx])
    best_p = np.array([l11[idx], l21r[idx], l21i[idx], l22[idx]])
    return best, best_p


def two_by_two_problem(rng, budget=2.0):
    """max log|I + H V H^H| - tr(C V) over one 2x2 variable; returns the
    problem, H and C."""
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = linalg.hermitize(0.2 * (g @ g.conj().T) + 0.3 * np.eye(2))
    prob = MaxDetProblem(
        variables=[("v", 2)],
        logdet_terms=[LogDetTerm(const=np.eye(2, dtype=complex),
                                 maps=[("v", Congruence(h))])],
        linear_terms={"v": c},
        constraints=[(("v",), budget)],
    )
    return prob, h, c


def test_2x2_matches_cholesky_grid():
    rng = np.random.default_rng(1)
    for trial in range(3):
        budget = 2.0
        prob, h, c = two_by_two_problem(rng, budget)
        point, rep = solve(prob, {"v": 0.1 * np.eye(2, dtype=complex)},
                           tol=1e-8)
        coarse, center = _cholesky_grid_best(h, c, budget, steps=15)
        fine = coarse
        width = 2 * np.sqrt(budget) / 14
        for _ in range(4):
            fine, center = _cholesky_grid_best(h, c, budget, center=center,
                                               width=width, steps=11)
            width /= 4.0
        assert rep.objective == pytest.approx(fine, abs=1e-3)
        assert rep.objective >= fine - 1e-9  # solver at least as good


def random_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def eye_stack(scale, n=3, dim=2):
    return scale * np.tile(np.eye(dim, dtype=complex), (n, 1, 1))


def random_two_term_problem(seed):
    """Two log-det terms over two (3, 2, 2) stack variables, coupled
    through every operator kind, with a different distortion coefficient on
    each subcarrier."""
    n = 3
    rng = np.random.default_rng(seed)
    h1 = random_stack(rng, n, 2, 2)
    h2 = random_stack(rng, n, 3, 2)
    d = random_stack(rng, 2, 2)
    d = linalg.hermitize(0.1 * d @ d.conj().T)
    kappa = rng.uniform(0.05, 0.3, n)
    beta = rng.uniform(0.05, 0.3, n)
    shared = TransmitDistortion(h2, kappa)
    t1 = LogDetTerm(const=eye_stack(1.0, n),
                    maps=[("v", Congruence(h1)),
                          ("w", TraceCorrelation(d, dim_in=2))])
    t2 = LogDetTerm(const=eye_stack(0.5, n, 3),
                    maps=[("w", Congruence(h2)), ("v", shared),
                          ("w", shared), ("v", ReceiveDistortion(h2, beta))])
    return MaxDetProblem(
        variables=[("v", 2), ("w", 2)],
        logdet_terms=[t1, t2],
        linear_terms={"v": eye_stack(0.4, n)},
        constraints=[(("v",), 1.5), (("w",), 2.0)],
    )


def shared_budget(prob, budget=2.5):
    """The same problem with one budget shared by every variable."""
    return MaxDetProblem(
        variables=prob.variables, logdet_terms=prob.logdet_terms,
        linear_terms=prob.linear_terms,
        constraints=[(tuple(name for name, _ in prob.variables), budget)])


def stack_start():
    return {"v": eye_stack(0.2 / 3), "w": eye_stack(0.2 / 3)}


def test_monotone_objective_trace():
    for seed in range(5):
        for prob in (random_two_term_problem(seed),
                     shared_budget(random_two_term_problem(seed))):
            _, rep = solve(prob, stack_start())
            trace = np.array(rep.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9)
            assert rep.objective >= trace[0] - 1e-10


def assert_hermitian_to_rounding(v):
    assert np.abs(v - v.conj().swapaxes(-1, -2)).max() <= 1e-14 * np.abs(v).max()


def test_output_feasibility():
    """Feasible and, with no final symmetrization, Hermitian to rounding."""
    prob = random_two_term_problem(11)
    point, _ = solve(prob, stack_start())
    for name in ("v", "w"):
        assert linalg.min_eigenvalue(point[name]) >= -1e-9
        assert_hermitian_to_rounding(point[name])
    assert linalg.real_trace(point["v"]) <= 1.5 + 1e-8
    assert linalg.real_trace(point["w"]) <= 2.0 + 1e-8
    point, rep = solve(shared_budget(prob), stack_start())
    assert rep.status == SolverStatus.CONVERGED
    for name in ("v", "w"):
        assert linalg.min_eigenvalue(point[name]) >= -1e-9
        assert_hermitian_to_rounding(point[name])
    assert (linalg.real_trace(point["v"])
            + linalg.real_trace(point["w"])) <= 2.5 + 1e-8


def test_returned_point_is_the_last_accepted_iterate():
    """The report's objective is the last trace entry and the objective at
    the returned point, which is feasible with no final projection."""
    for seed in range(3):
        base = random_two_term_problem(seed)
        for prob in (base, shared_budget(base)):
            point, rep = solve(prob, stack_start())
            assert rep.objective == rep.objective_trace[-1]
            assert _eval_state(prob, point)[0] == pytest.approx(
                rep.objective, rel=0, abs=1e-12)
            for name, _ in prob.variables:
                assert linalg.min_eigenvalue(point[name]) >= -1e-12
            for group, budget in prob.constraints:
                assert sum(linalg.real_trace(point[name])
                           for name in group) <= budget + 1e-12


def test_exhausted_line_search_returns_the_projected_start(monkeypatch):
    """When no halving passes the Armijo test the solve stops on its first
    iteration with NumericalTrouble, at the projected start and its
    objective."""
    monkeypatch.setattr(maxdet, "_logdet_increment",
                        lambda mu, step: -np.inf)
    prob = random_two_term_problem(0)
    start = stack_start()
    point, rep = solve(prob, start)
    projected = project_feasible(prob, {name: linalg.hermitize(m)
                                        for name, m in start.items()})
    assert rep.status == SolverStatus.NUMERICAL_TROUBLE
    assert rep.iterations == 1
    for name, _ in prob.variables:
        np.testing.assert_array_equal(point[name], projected[name])
    assert rep.objective_trace == [rep.objective]
    assert rep.objective == _eval_state(prob, projected)[0]


def test_convergence_on_the_last_allowed_iteration_is_converged():
    for seed in range(3):
        prob = random_two_term_problem(seed)
        _, free = solve(prob, stack_start())
        assert free.status == SolverStatus.CONVERGED
        _, capped = solve(prob, stack_start(), max_iter=free.iterations)
        assert capped.status == SolverStatus.CONVERGED
        assert capped.iterations == free.iterations


def test_armijo_decision_does_not_depend_on_the_objective_level():
    """A constant log-det term of large weight shifts the objective by a
    constant; the line search compares increments, so the solve takes the
    same steps to the same point."""
    const = LogDetTerm(const=eye_stack(np.e), maps=[], weight=1e6)
    shift = const.weight * linalg.logdet(const.const).sum()
    for seed in range(3):
        base = random_two_term_problem(seed)
        for prob in (base, shared_budget(base)):
            lifted = MaxDetProblem(
                variables=prob.variables,
                logdet_terms=prob.logdet_terms + [const],
                linear_terms=prob.linear_terms, constraints=prob.constraints)
            p0, r0 = solve(prob, stack_start())
            p1, r1 = solve(lifted, stack_start())
            for name, _ in prob.variables:
                np.testing.assert_array_equal(p1[name], p0[name])
            assert (r1.iterations, r1.status) == (r0.iterations, r0.status)
            assert r1.objective - shift == pytest.approx(r0.objective,
                                                         rel=0, abs=1e-8)


def first_direction(prob):
    """At the projected start: each term's matrix, its inverse Cholesky
    factor and its change along the first projected direction."""
    point = project_feasible(prob, stack_start())
    _, grads, w0 = _eval_state(prob, point)
    y0 = [_term_matrix(term, point) for term in prob.logdet_terms]
    proj = project_feasible(prob, {name: point[name] + grads[name]
                                   for name in point})
    direction = {name: proj[name] - point[name] for name in point}
    y_dir = [_term_matrix(term, direction, np.zeros_like(term.const))
             for term in prob.logdet_terms]
    return y0, w0, y_dir


def whitened_eigvals(w, y_dir):
    """The eigenvalues the solver takes for a term: those of W Yd W^H."""
    return np.linalg.eigvalsh(w @ y_dir @ w.conj().swapaxes(-1, -2))


def test_line_search_increments_are_exact_log_det_differences():
    for seed in range(4):
        for y0, w0, yd in zip(*first_direction(random_two_term_problem(seed))):
            mu = whitened_eigvals(w0, yd)
            for t in (1.0, 0.5, 2.0 ** -10):
                want = (linalg.logdet(y0 + t * yd).sum()
                        - linalg.logdet(y0).sum())
                assert _logdet_increment(mu, t) == pytest.approx(
                    want, rel=1e-12, abs=0)


def test_line_search_feasibility_agrees_with_cholesky():
    """A step has a finite increment (every t mu > -1) exactly when
    Y0 + t Yd factors, on both sides of each boundary of the line through
    Y0 along Yd."""
    for seed in range(4):
        for y0, w0, yd in zip(*first_direction(random_two_term_problem(seed))):
            mu = np.linalg.eigvals(np.linalg.solve(y0, yd)).real
            w_mu = whitened_eigvals(w0, yd)
            edges = ([-1.0 / mu.min()] if mu.min() < 0 else []) + (
                [-1.0 / mu.max()] if mu.max() > 0 else [])
            steps = np.array([e * f for e in edges
                              for f in (1 - 1e-6, 1 + 1e-6)])
            inside = [_logdet_increment(w_mu, t) > -np.inf for t in steps]
            assert inside == [True, False] * len(edges)
            for t, ok in zip(steps, inside):
                try:
                    linalg.cholesky(y0 + t * yd)
                except NonPositiveDefinite:
                    assert not ok, (seed, t)
                else:
                    assert ok, (seed, t)


def test_a_solve_factors_each_term_once(monkeypatch):
    """The term matrices are factored at the projected start only; every
    accepted step updates their factors in closed form."""
    calls = []
    factor = linalg.cholesky
    monkeypatch.setattr(linalg, "cholesky",
                        lambda m: calls.append(m) or factor(m))
    for seed in range(3):
        base = random_two_term_problem(seed)
        for prob in (base, shared_budget(base)):
            calls.clear()
            _, rep = solve(prob, stack_start(), tol=1e-10)
            assert rep.iterations > 10
            assert len(calls) == len(prob.logdet_terms)


def test_carried_factor_gives_the_fresh_gradient():
    """The factor carried to the returned point still whitens its term
    matrices: the reported gap and objective are those of a fresh
    factorization there."""
    for seed in range(3):
        base = random_two_term_problem(seed)
        for prob in (base, shared_budget(base)):
            point, rep = solve(prob, stack_start(), tol=1e-10)
            f, grads, _ = _eval_state(prob, point)
            assert rep.gap == pytest.approx(
                maxdet._duality_gap(prob, point, grads), rel=1e-6)
            assert rep.objective == pytest.approx(f, rel=0, abs=1e-12)


def test_logdet_term_permutation_invariance():
    prob = random_two_term_problem(3)
    flipped = MaxDetProblem(variables=prob.variables,
                            logdet_terms=list(reversed(prob.logdet_terms)),
                            linear_terms=prob.linear_terms,
                            constraints=prob.constraints)
    init = stack_start()
    _, r1 = solve(prob, init, tol=1e-9)
    _, r2 = solve(flipped, init, tol=1e-9)
    assert abs(r1.objective - r2.objective) < 1e-8


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(8)
    band = random_two_term_problem(7)
    band_point = {"v": eye_stack(0.1), "w": eye_stack(0.08)}
    plain, _, _ = two_by_two_problem(rng)
    plain_point = {"v": 0.3 * np.eye(2, dtype=complex)}
    for prob, point in ((band, band_point), (plain, plain_point)):
        _, grads, _ = _eval_state(prob, point)
        for name, _ in prob.variables:
            d = linalg.hermitize(random_stack(rng, *point[name].shape))
            eps = 1e-6
            up = dict(point)
            dn = dict(point)
            up[name] = point[name] + eps * d
            dn[name] = point[name] - eps * d
            fd = (_eval_state(prob, up)[0]
                  - _eval_state(prob, dn)[0]) / (2 * eps)
            an = linalg.inner(grads[name], d)
            assert fd == pytest.approx(an, rel=1e-4)


def test_shared_map_object_gives_the_same_gradient():
    """A map object listed for several variables has its adjoint formed
    once; the gradient is bitwise that of distinct map objects."""
    rng = np.random.default_rng(9)
    h = random_stack(rng, 3, 2, 2)
    kappa = np.array([0.3, 0.1, 0.2])

    def problem(maps):
        return MaxDetProblem(
            variables=[("v", 2), ("w", 2)],
            logdet_terms=[LogDetTerm(const=eye_stack(0.4), maps=maps,
                                     weight=1.5)],
            constraints=[(("v", "w"), 2.0)])

    shared = TransmitDistortion(h, kappa)
    point = {"v": eye_stack(0.1),
             "w": np.tile(np.diag([0.1, 0.2]).astype(complex), (3, 1, 1))}
    f1, g1, _ = _eval_state(problem([("v", shared), ("w", shared)]), point)
    f2, g2, _ = _eval_state(problem([("v", TransmitDistortion(h, kappa)),
                                     ("w", TransmitDistortion(h, kappa))]),
                            point)
    assert f1 == f2
    for name in ("v", "w"):
        np.testing.assert_array_equal(g1[name], g2[name])


def test_infeasible_start_rejected():
    prob = scalar_problem(1.0, 0.5, budget=1.0)
    for start, message in (
            ({"x": 5.0 * np.eye(1, dtype=complex)}, "trace budget violated"),
            ({"x": -0.5 * np.eye(1, dtype=complex)}, "variable x is not PSD"),
            ({"x": np.full((1, 1), np.nan, complex)}, "variable x is not PSD"),
            ({"x": np.eye(2, dtype=complex)}, "x missing or misshaped"),
            ({}, "x missing or misshaped")):
        with pytest.raises(InfeasibleStart, match=message):
            solve(prob, start)


def test_a_nan_the_eigensolver_misses_is_an_infeasible_start():
    """One NaN on a diagonal can give finite eigenvalues >= 0, so the PSD
    test passes; the NaN trace fails the budget test."""
    start = np.array([[np.nan, 0.0], [0.0, 0.1]], complex)
    assert linalg.min_eigenvalue(start) >= 0.0
    prob = MaxDetProblem(
        variables=[("v", 2)],
        logdet_terms=[LogDetTerm(const=np.eye(2, dtype=complex),
                                 maps=[("v", Congruence(np.eye(2)))])],
        constraints=[(("v",), 1.0)])
    with pytest.raises(InfeasibleStart, match="trace budget violated"):
        solve(prob, {"v": start})


def test_a_singular_term_at_the_start_is_rejected():
    """A start at which a log-det term is singular has no objective."""
    prob = MaxDetProblem(
        variables=[("x", 1)],
        logdet_terms=[LogDetTerm(const=np.zeros((1, 1), complex),
                                 maps=[("x", Congruence(np.eye(1)))])],
        constraints=[(("x",), 1.0)])
    with pytest.raises(InfeasibleStart, match="objective undefined"):
        solve(prob, {"x": np.zeros((1, 1), complex)})


@pytest.mark.parametrize("variables, constraints, message", [
    ([("v", 2), ("v", 2)], [(("v",), 1.0)], "duplicate variable"),
    ([("v", 2), ("w", 2)], [(("v", "w"), 1.0), (("w",), 1.0)], "two"),
    ([("v", 2), ("w", 2)], [(("v",), 1.0)], "no constraint group"),
    ([("v", 2)], [(("v",), 0.0)], "strictly positive"),
    ([("v", 2)], [(("v", "w"), 1.0)], "undeclared variable 'w'"),
])
def test_malformed_groups_are_rejected(variables, constraints, message):
    """Every variable is in exactly one group, every group names only
    declared variables, and every budget is positive."""
    with pytest.raises(ValueError, match=message):
        MaxDetProblem(variables=variables, constraints=constraints)


def test_projection_properties():
    prob = random_two_term_problem(9)
    rng = np.random.default_rng(10)
    for _ in range(10):
        raw = {"v": linalg.hermitize(random_stack(rng, 3, 2, 2)),
               "w": linalg.hermitize(random_stack(rng, 3, 2, 2))}
        proj = project_feasible(prob, raw)
        assert linalg.min_eigenvalue(proj["v"]) >= -1e-10
        assert linalg.min_eigenvalue(proj["w"]) >= -1e-10
        assert linalg.real_trace(proj["v"]) <= 1.5 + 1e-8
        assert linalg.real_trace(proj["w"]) <= 2.0 + 1e-8
        # projecting a feasible point is the identity
        again = project_feasible(prob, proj)
        for name in ("v", "w"):
            np.testing.assert_allclose(again[name], proj[name], atol=1e-10)


def test_projection_is_closest_point():
    """Compare against a fine 1-D check: for diagonal input the projection
    should match the simplex water-level formula."""
    prob = MaxDetProblem(variables=[("v", 2)],
                         logdet_terms=[],
                         constraints=[(("v",), 1.0)])
    raw = {"v": np.diag([2.0, 0.5]).astype(complex)}
    proj = project_feasible(prob, raw)
    # shift theta = 0.75 puts (1.25, -0.25) -> clip -> (1.25, 0) over budget;
    # correct water level solves max(2-t,0)+max(0.5-t,0)=1 -> t=0.75, giving
    # (1.25, 0)... still 1.25 > 1, so the active set drops the second
    # eigenvalue: 2 - t = 1 -> t = 1 -> (1, 0).
    np.testing.assert_allclose(np.diag(proj["v"]).real, [1.0, 0.0], atol=1e-10)


# --- projection in the scaled metric ------------------------------------------


def euclidean_clip(vals, budget):
    """The Euclidean water level as the solver computed it before the
    projection took weights."""
    clipped = np.maximum(vals, 0.0)
    if clipped.sum() <= budget:
        return clipped
    srt = np.sort(vals)[::-1]
    theta = (srt.cumsum() - budget) / np.arange(1, srt.size + 1)
    k_star = np.flatnonzero(theta < srt)[-1]
    return np.maximum(vals - theta[k_star], 0.0)


def test_unit_weights_give_the_euclidean_clip_bit_for_bit():
    rng = np.random.default_rng(14)
    cases = [(np.array([1.0, 1.0, 1.0, 0.5]), 1.2),  # a three-way tie
             (np.array([2.0, 2.0, -1.0]), 3.0),
             (np.array([0.3, 0.3, 0.3]), 0.9),  # the budget just binds
             (np.array([0.1, -0.2, 0.05]), 1.0),  # the budget does not bind
             (np.array([-1.0, -2.0]), 0.5)]
    for _ in range(200):
        vals = rng.standard_normal(int(rng.integers(1, 13)))
        if rng.random() < 0.3:
            vals[rng.integers(vals.size, size=3)] = vals[0]  # ties
        cases.append((vals, float(rng.uniform(0.01, 3.0))))
    for vals, budget in cases:
        want = euclidean_clip(vals, budget)
        np.testing.assert_array_equal(
            _clip_to_budget(vals, budget, np.ones(vals.size)), want)
        np.testing.assert_array_equal(_clip_to_budget(vals, budget), want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-10.0, 10.0),
                          st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0])),
                min_size=1, max_size=256),
       st.sampled_from(["binding", "exact", "slack", "infinite"]),
       st.floats(0.01, 0.99))
def test_scalar_level_is_the_numpy_formula_bit_for_bit(xs, kind, frac):
    """The unweighted level, taken over Python floats, is the numpy formula
    of euclidean_clip bit for bit: sizes 1 to 256, ties, negative
    eigenvalues, and budgets that bind, equal the clipped sum exactly, do
    not bind or are infinite."""
    vals = np.array(xs)
    total = float(np.maximum(vals, 0.0).sum())
    budget = {"binding": frac * total, "exact": total, "slack": total + frac,
              "infinite": np.inf}[kind] or frac
    got = _clip_to_budget(vals, budget)
    want = euclidean_clip(vals, budget)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("vals, budget, weights", [
    ([1e17, 2.0], 1.0, None),
    ([1e20, 1e20], 1.0, [1.0, 0.5])])
def test_a_budget_below_float_resolution_raises_with_its_cause(
        vals, budget, weights):
    """When the largest eigenvalue exceeds the budget by more than float
    rounding resolves, x1 - budget rounds to x1 and no level passes: the
    clip raises an error that names the cause, in both branches, rather
    than guessing a level."""
    weights = None if weights is None else np.array(weights)
    with pytest.raises(FdWiretapError, match="no water level meets"):
        _clip_to_budget(np.array(vals), budget, weights)


def test_one_variable_groups_take_the_unit_weight_level_bit_for_bit():
    """A variable alone in its group is levelled without weights; the
    result is the weighted clip at unit weights, bit for bit, for stacks
    and single matrices, M=1, negative eigenvalues, and budgets that bind
    or do not bind."""
    rng = np.random.default_rng(17)
    shapes = [(3, 2, 2), (2, 2), (4, 1, 1), (1, 1), (2, 4, 4)]
    for k in range(120):
        shape = shapes[k % len(shapes)]
        m = linalg.hermitize(random_stack(rng, *shape))
        if k % 3 == 0:
            m = m - 2.0 * np.eye(shape[-1])  # mostly negative eigenvalues
        vals, vecs = np.linalg.eigh(m)
        total = np.maximum(vals, 0.0).sum()
        budget = [0.3 * total + 0.01, total + 1.0][k % 2]
        prob = MaxDetProblem(variables=[("v", shape[-1])],
                             constraints=[(("v",), budget)])
        want = linalg.from_eigh(_clip_to_budget(
            vals.ravel(), budget, np.ones(vals.size)).reshape(vals.shape),
            vecs)
        np.testing.assert_array_equal(project_feasible(prob, {"v": m})["v"],
                                      want)
        steps = {"v": float(np.exp(rng.uniform(-9.0, 9.0)))}
        np.testing.assert_array_equal(
            project_feasible(prob, {"v": m}, steps)["v"], want)


def test_a_solve_projects_once_per_iteration(monkeypatch):
    """The stop test takes no projection: a solve projects its start and
    then one trial point per iteration."""
    calls = []
    project = maxdet.project_feasible
    monkeypatch.setattr(maxdet, "project_feasible",
                        lambda *a: calls.append(a) or project(*a))
    for seed in range(3):
        base = random_two_term_problem(seed)
        for prob in (base, shared_budget(base)):
            calls.clear()
            _, rep = solve(prob, stack_start())
            assert rep.iterations > 10
            assert len(calls) == 1 + rep.iterations


def bisect_level(vals, budget, weights):
    """The water level by bisection on theta."""
    lo, hi = 0.0, float(np.max(vals / weights))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(vals - mid * weights, 0.0).sum() > budget:
            lo = mid
        else:
            hi = mid
    return np.maximum(vals - hi * weights, 0.0)


def test_weighted_clip_is_the_kkt_water_level():
    rng = np.random.default_rng(15)
    for _ in range(200):
        size = int(rng.integers(1, 13))
        vals = 2.0 * rng.standard_normal(size)
        weights = np.exp(rng.uniform(-6.0, 0.0, size))
        budget = float(rng.uniform(0.01, 3.0))
        p = _clip_to_budget(vals, budget, weights)
        assert np.all(p >= 0.0)
        if np.maximum(vals, 0.0).sum() <= budget:
            np.testing.assert_array_equal(p, np.maximum(vals, 0.0))
            continue
        assert p.sum() == pytest.approx(budget, rel=1e-12)
        active = p > 0
        theta = (vals[active] - p[active]) / weights[active]
        assert theta.min() >= 0.0
        assert theta.max() - theta.min() <= 1e-12 * max(1.0, theta.max())
        np.testing.assert_allclose(
            p, np.maximum(vals - theta.mean() * weights, 0.0),
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(p, bisect_level(vals, budget, weights),
                                   rtol=0, atol=1e-10)


def test_single_variable_groups_project_alike_for_any_step():
    prob = random_two_term_problem(16)
    rng = np.random.default_rng(16)
    for _ in range(10):
        raw = {"v": linalg.hermitize(random_stack(rng, 3, 2, 2)),
               "w": linalg.hermitize(random_stack(rng, 3, 2, 2))}
        steps = dict(zip(("v", "w"), np.exp(rng.uniform(-9.0, 9.0, 2))))
        plain = project_feasible(prob, raw)
        scaled = project_feasible(prob, raw, steps)
        for name in ("v", "w"):
            np.testing.assert_array_equal(scaled[name], plain[name])


def test_scaled_projection_gives_an_ascent_direction():
    """<G, d> >= sum_v ||d_v||^2 / step_v for d = P_D(V + D G) - V, the
    bound that makes the Armijo search sound in the scaled metric."""
    rng = np.random.default_rng(17)
    for seed in range(5):
        base = random_two_term_problem(seed)
        for prob in (base, shared_budget(base)):
            point = project_feasible(prob, stack_start())
            _, grads, _ = _eval_state(prob, point)
            for _ in range(5):
                steps = dict(zip(("v", "w"),
                                 np.exp(rng.uniform(-7.0, 7.0, 2))))
                trial = {name: point[name] + steps[name] * grads[name]
                         for name in ("v", "w")}
                proj = project_feasible(prob, trial, steps)
                d = {name: proj[name] - point[name] for name in ("v", "w")}
                slope = sum(linalg.inner(grads[n], d[n]) for n in d)
                bound = sum(linalg.inner(d[n], d[n]) / steps[n] for n in d)
                assert slope >= bound - 1e-9 * max(1.0, abs(slope))


def test_adjoint_consistency():
    """<A(V), G> == <V, A*(G)> for every map type, on a matrix and on
    (N, M, M) stacks with a different coefficient on each subcarrier."""
    rng = np.random.default_rng(12)
    n = 4
    hs = random_stack(rng, n, 3, 2)
    d = linalg.hermitize(random_stack(rng, 3, 3))
    cases = [(Congruence(random_stack(rng, 3, 2)), (2, 2)),
             (Congruence(hs), (n, 2, 2)),
             (TraceCorrelation(d, dim_in=2), (n, 2, 2)),
             (TransmitDistortion(hs, rng.uniform(0.1, 1.0, n)), (n, 2, 2)),
             (ReceiveDistortion(hs, rng.uniform(0.1, 1.0, n)), (n, 2, 2))]
    for m, shape in cases:
        v = linalg.hermitize(random_stack(rng, *shape))
        out = m.apply(v)
        g = linalg.hermitize(random_stack(rng, *out.shape))
        adj = m.adjoint(g)
        assert adj.shape == v.shape
        lhs = linalg.inner(out, g)
        rhs = linalg.inner(v, adj)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_programming_error_in_a_map_propagates():
    """Only a failed factorization at the start is an infeasible start; a
    bug in a map surfaces as itself."""
    class Broken:
        def apply(self, v):
            raise TypeError("broken map")

    prob = MaxDetProblem(
        variables=[("x", 1)],
        logdet_terms=[LogDetTerm(const=np.eye(1, dtype=complex),
                                 maps=[("x", Broken())])],
        constraints=[(("x",), 1.0)])
    with pytest.raises(TypeError, match="broken map"):
        solve(prob, {"x": 0.1 * np.eye(1, dtype=complex)})


# --- relative stopping threshold ---------------------------------------------


def test_zero_rel_tol_is_the_absolute_solve():
    """rel_tol=0 takes the absolute-tolerance path: the same point as the
    default call, and pinned objective bits and iteration count of the
    per-variable-step solver."""
    prob = random_two_term_problem(0)
    p_abs, r_abs = solve(prob, stack_start())
    p_rel, r_rel = solve(prob, stack_start(), rel_tol=0.0)
    for name in ("v", "w"):
        np.testing.assert_array_equal(p_rel[name], p_abs[name])
    assert r_rel.objective_trace == r_abs.objective_trace
    assert r_rel.gap <= 1e-6
    assert (r_rel.objective, r_rel.iterations) == (13.76862065954079, 21)


def test_rel_tol_stops_at_the_first_iterate_below_its_threshold():
    for seed in range(4):
        prob = random_two_term_problem(seed)
        _, rep = solve(prob, stack_start(), tol=1e-12, rel_tol=0.05)
        threshold = 0.05 * rep.first_gap
        assert rep.status == SolverStatus.CONVERGED
        assert rep.gap <= threshold
        # Every earlier iterate, reached by capping the iterations, is
        # above the threshold.
        for k in range(rep.iterations):
            _, early = solve(prob, stack_start(), tol=1e-12, max_iter=k)
            assert early.gap > threshold, (seed, k)


def test_first_gap_is_taken_at_the_projected_start():
    prob = random_two_term_problem(5)
    rng = np.random.default_rng(13)
    g = random_stack(rng, 3, 2, 2)
    v = g @ g.conj().swapaxes(-1, -2)
    start = {"v": v * (1.5 / linalg.real_trace(v)),  # on its budget
             "w": eye_stack(0.05)}
    _, rep = solve(prob, start, rel_tol=0.1)
    projected = project_feasible(prob, {name: linalg.hermitize(m)
                                        for name, m in start.items()})
    _, grads, _ = _eval_state(prob, projected)
    assert rep.first_gap == maxdet._duality_gap(prob, projected, grads)
    assert rep.iterations > 0 and rep.gap <= 0.1 * rep.first_gap


# --- duality-gap certificate -------------------------------------------------


def bcd_subproblem(n, free, seed):
    """The covariance subproblem at the uniform start of a desk system on
    ``n`` subcarriers: a one-directional design for free blocks among X_a
    and W_b, else a two-node design whose X blocks send."""
    p = SystemParams.from_db(M_a=2, M_bt=2, M_br=2, M_e=2, N=n,
                             kappa_db=-30.0, beta_db=-30.0)
    ch = draw_channels(p, seed)
    if free <= {"X_a", "W_b"}:
        design = TransmitDesign.uniform(p, ("X_a", "W_b"))
    else:
        design = BidirectionalDesign.uniform(p, ("X_a", "X_b"))
    view = design.nodes().sent(free)
    aux = bcd.update_auxiliaries(p, ch, view)
    prob = bcd._subproblem(p, ch, view, free, *aux, design.budgets(p))
    return prob, {b: getattr(view, b) for b, _ in prob.variables}


CERTIFIED_CASES = [(2, {"X_a"}), (2, {"X_a", "W_b"}), (4, {"X_a"}),
                   (4, {"X_a", "W_b"}), (2, {"X_b", "W_b"})]
CERTIFIED_IDS = ["desk-X", "desk-XW", "N4-X", "N4-XW", "two-variable-group"]


@pytest.mark.parametrize("n, free", CERTIFIED_CASES, ids=CERTIFIED_IDS)
def test_the_gap_bounds_the_shortfall_at_every_iterate(monkeypatch, n, free):
    """At the start and at every accepted iterate the duality gap is at
    least the objective's distance to a tight solve's, and after the tight
    solve the gap itself is below 1e-6."""
    prob, start = bcd_subproblem(n, free, 0)
    _, tight = solve(prob, start, tol=1e-10)
    assert tight.gap <= 1e-6
    seen = []
    gap_of = maxdet._duality_gap

    def spy(prob, point, grads):
        gap = gap_of(prob, point, grads)
        seen.append((gap, _eval_state(prob, point)[0]))
        return gap

    monkeypatch.setattr(maxdet, "_duality_gap", spy)
    _, rep = solve(prob, start, tol=1e-10)
    assert len(seen) == len(rep.objective_trace) and seen[-1][0] == rep.gap
    for gap, objective in seen:
        assert gap >= tight.objective - objective - 1e-12


def test_a_gap_stop_ends_at_the_first_certified_iterate():
    """The solve stops, as converged, at the first iterate whose gap is
    within tol; every earlier iterate's gap is above it."""
    prob, start = bcd_subproblem(2, {"X_a", "W_b"}, 1)
    _, rep = solve(prob, start, tol=1e-3)
    assert rep.status == SolverStatus.CONVERGED
    assert rep.iterations > 0 and rep.gap <= 1e-3
    for k in range(rep.iterations):
        _, early = solve(prob, start, tol=1e-10, max_iter=k)
        assert early.gap > 1e-3, k


@pytest.mark.parametrize("budget", [np.inf, np.nan, 0.0, -1.0])
def test_a_budget_that_is_not_positive_and_finite_is_rejected(budget):
    """The duality gap bounds the shortfall only on a bounded feasible set,
    and an unbudgeted group would make every gap +inf: every budget the
    problem takes is positive and finite, so NaN is refused too."""
    with pytest.raises(ValueError, match="strictly positive and finite"):
        scalar_problem(2.0, 0.5, budget=budget)
