"""Complex-Hermitian matrix primitives used throughout the package.

All covariance matrices in the model are Hermitian positive semidefinite;
these helpers keep them that way under floating-point drift and give the
rest of the code a single place for log-determinants, PSD-safe inverses
and dominant eigenvectors with a deterministic phase convention.
"""

import numpy as np
import scipy.linalg

from .errors import NonPositiveDefinite

# Tolerance below which the top two eigenvalues count as degenerate.
DEGENERATE_GAP = 1e-10


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its conjugate transpose.

    Re-enforced after arithmetic compositions so accumulated drift does not
    break downstream PSD checks.  A stack of matrices is hermitized matrix
    by matrix.
    """
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.all(np.abs(m - m.conj().T) <= tol * max(1.0, np.abs(m).max())))


def _diag_logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(chol.diagonal().real).sum())


def _same_kind(ms: list) -> list:
    """Index lists of the matrices that share a shape and a dtype.

    numpy's stacked factorizations treat each matrix of a stack exactly as
    a call of its own would, so such a group can be factored in one call.
    """
    groups = {}
    for i, m in enumerate(ms):
        groups.setdefault((m.shape, m.dtype), []).append(i)
    return list(groups.values())


def cholesky_logdets(ms: list) -> tuple[list, list]:
    """Lower Cholesky factors and natural-log determinants of Hermitian
    positive definite matrices, factoring matrices of one shape in one
    stacked call.

    The log-determinants come from the factors' diagonals, never from an
    explicit determinant.  Raises NonPositiveDefinite if a factorization
    fails.
    """
    chols = [None] * len(ms)
    for idx in _same_kind(ms):
        try:
            stack = np.linalg.cholesky(np.array([ms[i] for i in idx]))
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefinite("a matrix is not positive definite") from exc
        for i, chol in zip(idx, stack):
            chols[i] = chol
    return chols, [_diag_logdet(chol) for chol in chols]


def eighs(ms: list) -> list:
    """(eigenvalues, eigenvectors) of the Hermitian part of each matrix in a
    list, decomposing matrices of one shape in one stacked call."""
    out = [None] * len(ms)
    for idx in _same_kind(ms):
        vals, vecs = np.linalg.eigh(hermitize(np.array([ms[i] for i in idx])))
        for i, pair in zip(idx, zip(vals, vecs)):
            out[i] = pair
    return out


def from_eighs(vals: list, vecs: list) -> list:
    """The Hermitian matrix V diag(w) V^H of each eigenpair set (w, V),
    forming the products of one shape in one stacked matmul."""
    out = [None] * len(vecs)
    for idx in _same_kind(vecs):
        v = np.array([vecs[i] for i in idx])
        w = np.array([vals[i] for i in idx])
        prods = hermitize((v * w[:, None, :]) @ v.conj().swapaxes(-1, -2))
        for i, m in zip(idx, prods):
            out[i] = m
    return out


def logdet(m: np.ndarray) -> float:
    """Natural-log determinant of a Hermitian positive definite matrix, from
    its Cholesky factor.  Raises NonPositiveDefinite if the factorization
    fails."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("matrix is not positive definite") from exc
    return _diag_logdet(chol)


def cholesky_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of L L^H from its lower Cholesky factor L, whose upper
    triangle is not read.  Not re-symmetrized."""
    eye = np.eye(chol.shape[0], dtype=complex)
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (chol, eye))
    return potrs(chol, eye, lower=True)[0]


def psd_inverse(m: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Inverse of (m + ridge*I) through a Cholesky factorization.

    The optional ridge restores positive definiteness of near-singular
    covariances (e.g. vanishing jamming power with small noise).
    """
    a = m if ridge == 0.0 else m + ridge * np.eye(m.shape[0])
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (a,))
    chol, info = potrf(a, lower=True, clean=False)
    if info > 0:
        raise NonPositiveDefinite("matrix + ridge*I is not positive definite")
    return hermitize(cholesky_inverse(chol))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero entry is real nonnegative."""
    idx = np.flatnonzero(np.abs(v) > 1e-12)
    if idx.size == 0:
        return v
    pivot = v[idx[0]]
    return v * (np.conj(pivot) / np.abs(pivot))


def dominant_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Largest eigenvalue, unit-norm eigenvector and a degeneracy flag.

    The eigenvector phase is fixed so the first nonzero entry is real
    nonnegative.  When the top two eigenvalues coincide (gap < 1e-10) the
    returned vector is the normalized projection of the first canonical
    basis vector with nonvanishing projection onto the dominant eigenspace,
    which makes the output deterministic and basis-independent.
    """
    vals, vecs = np.linalg.eigh(m)
    lam = float(vals[-1])
    degenerate = m.shape[0] > 1 and (lam - float(vals[-2])) < DEGENERATE_GAP
    if not degenerate:
        return lam, _fix_phase(vecs[:, -1]), False
    space = vecs[:, vals > lam - DEGENERATE_GAP]
    for k in range(m.shape[0]):
        proj = space @ space[k, :].conj()
        nrm = np.linalg.norm(proj)
        if nrm > 1e-6:
            return lam, _fix_phase(proj / nrm), True
    return lam, _fix_phase(vecs[:, -1]), True


def dominant_eigenvector(m: np.ndarray) -> np.ndarray:
    """Unit-norm eigenvector of the largest eigenvalue of a Hermitian matrix."""
    return dominant_eigenpair(m)[1]


def psd_clip(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Project a Hermitian matrix onto the PSD cone by eigenvalue clipping."""
    vals, vecs = np.linalg.eigh(hermitize(m))
    if vals[0] >= floor:
        return hermitize(m)
    vals = np.maximum(vals, floor)
    return hermitize((vecs * vals) @ vecs.conj().T)


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def real_trace(m: np.ndarray) -> float:
    return float(m.trace().real)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re tr(a^H b) on the space of complex matrices."""
    return float((a.conj() * b).sum().real)
