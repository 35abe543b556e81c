"""Complex-Hermitian matrix primitives used throughout the package.

All covariance matrices in the model are Hermitian positive semidefinite.
These helpers give the rest of the code a single place for
log-determinants, PSD-safe inverses and dominant eigenvectors with a
deterministic phase convention.  Every helper that takes a matrix also
takes a stack of matrices along leading axes.

A matrix is re-symmetrized only where it enters the package from outside
(:func:`hermitize`).  Computed values are left as computed: a product or
inverse of Hermitian matrices is Hermitian up to rounding, and ``eigh``,
``eigvalsh`` and ``cholesky`` read only one triangle.
"""

import numpy as np

from .errors import NonPositiveDefinite

# Eigenvalues within this gap of the largest span the dominant eigenspace.
DEGENERATE_GAP = 1e-10


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its conjugate
    transpose.  Applied only where a matrix enters the package from outside
    (a solver's initial point, a matrix under validation); a value computed
    from Hermitian matrices is used as computed."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite matrix, or of
    each matrix of a stack.  Raises NonPositiveDefinite if a factorization
    fails."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("matrix is not positive definite") from exc


def logdet(m: np.ndarray):
    """Natural-log determinant of a Hermitian positive definite matrix, or
    the per-matrix log-determinants of a stack, from the Cholesky factors,
    never from an explicit determinant.  Raises NonPositiveDefinite if a
    factorization fails."""
    chol = cholesky(m)
    return 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)


def psd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse W^H W, with W = L^-1 for the Cholesky factor L, of a
    Hermitian positive definite matrix or of each matrix of a stack.
    Raises NonPositiveDefinite if the factorization fails, so a singular or
    indefinite covariance is never inverted."""
    w = np.linalg.inv(cholesky(m))
    return w.conj().swapaxes(-1, -2) @ w


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each vector of a stack, so its first nonzero
    entry is real nonnegative."""
    mask = np.abs(v) > 1e-12
    pivot = np.take_along_axis(v, mask.argmax(axis=-1)[..., None], axis=-1)
    pivot = np.where(mask.any(axis=-1, keepdims=True), pivot, 1.0)
    return v * (np.conj(pivot) / np.abs(pivot))


def dominant_eigenpair(m: np.ndarray) -> tuple:
    """Largest eigenvalue, unit-norm eigenvector and a degeneracy flag, or
    arrays of them over a stack's leading axes.

    The vector is the normalized projection of the first canonical basis
    vector with nonvanishing projection onto the dominant eigenspace (the
    eigenvalues within ``DEGENERATE_GAP`` of the largest), phase-fixed by
    :func:`fix_phase`; the flag says that space has more than one
    dimension.  The output is deterministic and basis-independent.
    """
    vals, vecs = np.linalg.eigh(m)
    lam = vals[..., -1]
    in_space = vals > lam[..., None] - DEGENERATE_GAP
    # Column k of the eigenspace projector is the projection of e_k.
    proj = (vecs * in_space[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    nrm = np.linalg.norm(proj, axis=-2)
    k = (nrm > 1e-6).argmax(axis=-1)[..., None]
    u = (np.take_along_axis(proj, k[..., None, :], axis=-1)[..., 0]
         / np.take_along_axis(nrm, k, axis=-1))
    return lam, fix_phase(u), in_space.sum(axis=-1) > 1


def from_eigh(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The Hermitian matrix V diag(w) V^H of eigenpairs (w, V), or of each
    set of a stack, Hermitian up to rounding."""
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix or of a whole stack."""
    return float(np.linalg.eigvalsh(hermitize(m)).min())


def real_trace(m: np.ndarray) -> float:
    """Real part of the trace of a matrix, summed over a stack."""
    return float(m.diagonal(axis1=-2, axis2=-1).real.sum())


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re tr(a^H b) on the space of complex matrices,
    summed over a stack."""
    return float(np.vdot(a, b).real)
