import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdwiretap import linalg, maxdet
from fdwiretap.errors import NonPositiveDefinite


def is_hermitian(m, tol=1e-10):
    scale = max(1.0, np.abs(m).max())
    return bool(np.all(np.abs(m - m.conj().T) <= tol * scale))


def dominant_eigenvector(m):
    return linalg.dominant_eigenpair(m)[1]


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitize(a + a.conj().T)


def clip_psd(m):
    """Projection onto the PSD cone: that of a variable in an unbudgeted
    group."""
    prob = maxdet.MaxDetProblem(variables=[("v", m.shape[-1])],
                                constraints=[(("v",), np.inf)])
    return maxdet.project_feasible(prob, {"v": m})["v"]


def random_pd(rng, dim, floor=0.1):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitize(a @ a.conj().T + floor * np.eye(dim))


def test_logdet_identity():
    assert linalg.logdet(np.eye(3, dtype=complex)) == pytest.approx(0.0)


def test_logdet_diagonal():
    assert linalg.logdet(np.diag([2.0, 2.0]).astype(complex)) == pytest.approx(
        2 * np.log(2.0))


def test_logdet_matches_eigenvalue_product():
    # independent oracle: product of eigenvalues
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_pd(rng, 4)
        vals = np.linalg.eigvalsh(m)
        assert linalg.logdet(m) == pytest.approx(float(np.sum(np.log(vals))),
                                                 abs=1e-9)


def test_logdet_rejects_indefinite():
    with pytest.raises(NonPositiveDefinite):
        linalg.logdet(np.diag([1.0, -1.0]).astype(complex))


def test_logdet_of_stack_matches_one_call_each():
    """A stack's log-determinants and inverses are bitwise those of one
    call per matrix."""
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        stack = np.array([random_pd(rng, dim) for _ in range(4)])
        lds = linalg.logdet(stack)
        invs = linalg.psd_inverse(stack)
        assert lds.shape == (4,) and invs.shape == stack.shape
        for m, ld, inv in zip(stack, lds, invs):
            assert ld == linalg.logdet(m)
            np.testing.assert_array_equal(inv, linalg.psd_inverse(m))


def test_logdet_of_stack_rejects_indefinite_member():
    rng = np.random.default_rng(4)
    stack = np.array([random_pd(rng, 2), np.diag([1.0, -1.0]).astype(complex)])
    for func in (linalg.logdet, linalg.psd_inverse):
        with pytest.raises(NonPositiveDefinite):
            func(stack)


def test_ungrouped_projection_of_stack_matches_one_call_each():
    """Projecting an ungrouped stack variable onto the PSD cone gives
    bitwise the matrices of one call each, and leaves a PSD stack at its
    Hermitian part up to rounding."""
    rng = np.random.default_rng(5)
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    clipped = clip_psd(stack)
    for m, out in zip(stack, clipped):
        np.testing.assert_array_equal(out, clip_psd(m))
    assert linalg.min_eigenvalue(clipped) >= -1e-12
    pd = np.array([random_pd(rng, 3) for _ in range(4)])
    np.testing.assert_allclose(clip_psd(pd), linalg.hermitize(pd), atol=1e-12)


def test_psd_inverse_identity():
    np.testing.assert_allclose(linalg.psd_inverse(np.eye(2, dtype=complex)),
                               np.eye(2), atol=1e-12)


def test_psd_inverse_diagonal():
    out = linalg.psd_inverse(np.diag([2.0, 4.0]).astype(complex))
    np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-12)


def test_psd_inverse_residual():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 4, 5):
        for _ in range(10):
            m = random_pd(rng, dim)
            inv = linalg.psd_inverse(m)
            assert np.linalg.norm(inv @ m - np.eye(dim)) < 1e-8
            assert is_hermitian(inv)
    stack = np.array([random_pd(rng, 3) for _ in range(6)])
    invs = linalg.psd_inverse(stack)
    assert np.linalg.norm(invs @ stack - np.eye(3), axis=(-2, -1)).max() < 1e-8
    assert all(is_hermitian(inv) for inv in invs)


def test_logdet_inverse_negation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_pd(rng, 4)
        assert linalg.logdet(linalg.psd_inverse(m)) == pytest.approx(
            -linalg.logdet(m), abs=1e-8)


def test_dominant_eigenvector_diagonal():
    v = dominant_eigenvector(np.diag([1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-12)


def test_dominant_eigenvector_degenerate_identity():
    # tie-break convention must give the first canonical direction
    lam, v, degenerate = linalg.dominant_eigenpair(np.eye(2, dtype=complex))
    assert degenerate
    assert lam == pytest.approx(1.0)
    np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-10)


def test_dominant_eigenpair_of_stack_matches_one_call_each():
    """A stack holding degenerate members gives each member's eigenvalue,
    vector and flag of one call per matrix."""
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 4):
        stack = np.array([random_hermitian(rng, dim), 2.0 * np.eye(dim),
                          random_pd(rng, dim),
                          np.diag(np.r_[3.0, 3.0, np.ones(dim)][:dim])
                          .astype(complex)])
        lams, vecs, flags = linalg.dominant_eigenpair(stack)
        assert lams.shape == (4,) and vecs.shape == (4, dim)
        assert list(flags) == [False, dim > 1, False, dim > 1]
        for m, lam, v, flag in zip(stack, lams, vecs, flags):
            lam_1, v_1, flag_1 = linalg.dominant_eigenpair(m)
            assert lam == lam_1 and flag == flag_1
            np.testing.assert_allclose(v, v_1, rtol=0, atol=1e-13)


def test_dominant_eigenvector_satisfies_eigen_equation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_hermitian(rng, 4)
        v = dominant_eigenvector(m)
        lam = float(np.max(np.linalg.eigvalsh(m)))
        assert np.linalg.norm(m @ v - lam * v) < 1e-8


def test_dominant_eigenvector_phase_and_norm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = random_hermitian(rng, 3)
        v = dominant_eigenvector(m)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        first = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert abs(np.imag(first)) < 1e-12 and np.real(first) >= 0


def test_rayleigh_quotient_dominance():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 4)
    v = dominant_eigenvector(m)
    rq = np.real(v.conj() @ m @ v)
    for _ in range(100):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = u / np.linalg.norm(u)
        assert rq >= np.real(u.conj() @ m @ u) - 1e-10


def test_ungrouped_projection_clips_negative_eigenvalues():
    m = np.diag([1.0, -0.5]).astype(complex)
    out = clip_psd(m)
    assert linalg.min_eigenvalue(out) >= -1e-12
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_hermitize_is_projection():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = linalg.hermitize(a)
    assert is_hermitian(h)
    np.testing.assert_allclose(linalg.hermitize(h), h, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_logdet_scaling_property(dim, seed):
    """log|cM| = d log c + log|M| for c > 0."""
    rng = np.random.default_rng(seed)
    m = random_pd(rng, dim)
    c = 2.5
    assert linalg.logdet(c * m) == pytest.approx(
        dim * np.log(c) + linalg.logdet(m), abs=1e-8)


def test_inner_is_real_trace_of_product():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    assert linalg.inner(a, b) == pytest.approx(
        float(np.real(np.trace(a.conj().T @ b))), abs=1e-10)
