import numpy as np
import pytest

from fdwiretap import linalg, maxdet
from fdwiretap.errors import InfeasibleStart
from fdwiretap.maxdet import (Congruence, LinearMap, LogDetTerm,
                              MaxDetProblem, SolverStatus, _eval_state,
                              project_feasible, solve)
from fdwiretap.system_model import (ReceiveDistortion, TraceCorrelation,
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


def stack_start():
    return {"v": eye_stack(0.2 / 3), "w": eye_stack(0.2 / 3)}


def test_monotone_objective_trace():
    for seed in range(5):
        prob = random_two_term_problem(seed)
        _, rep = solve(prob, stack_start())
        trace = np.array(rep.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9)
        assert rep.objective >= trace[0] - 1e-10


def test_output_feasibility():
    prob = random_two_term_problem(11)
    point, _ = solve(prob, stack_start())
    for name in ("v", "w"):
        assert linalg.min_eigenvalue(point[name]) >= -1e-9
    assert linalg.real_trace(point["v"]) <= 1.5 + 1e-8
    assert linalg.real_trace(point["w"]) <= 2.0 + 1e-8


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
        _, grads, _, _ = _eval_state(prob, point)
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
    f1, g1, _, _ = _eval_state(problem([("v", shared), ("w", shared)]), point)
    f2, g2, _, _ = _eval_state(problem([("v", TransmitDistortion(h, kappa)),
                                        ("w", TransmitDistortion(h, kappa))]),
                               point)
    assert f1 == f2
    for name in ("v", "w"):
        np.testing.assert_array_equal(g1[name], g2[name])


def test_infeasible_start_rejected():
    prob = scalar_problem(1.0, 0.5, budget=1.0)
    with pytest.raises(InfeasibleStart):
        solve(prob, {"x": 5.0 * np.eye(1, dtype=complex)})
    with pytest.raises(InfeasibleStart):
        solve(prob, {"x": -0.5 * np.eye(1, dtype=complex)})


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
    class Broken(LinearMap):
        def apply(self, v):
            raise TypeError("broken map")

    prob = MaxDetProblem(
        variables=[("x", 1)],
        logdet_terms=[LogDetTerm(const=np.eye(1, dtype=complex),
                                 maps=[("x", Broken())])],
        constraints=[(("x",), 1.0)])
    with pytest.raises(TypeError, match="broken map"):
        solve(prob, {"x": 0.1 * np.eye(1, dtype=complex)})
