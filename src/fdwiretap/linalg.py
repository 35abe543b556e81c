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

This module is the package's only LAPACK caller.  Its functions call
numpy's LAPACK gufuncs directly, with the signatures ``np.linalg`` passes,
so each result is ``np.linalg``'s bit for bit.  :func:`guarded` enters
numpy's LAPACK error state once around a loop, where ``np.linalg`` enters
it on every call; a call outside any guard enters it itself.  So a failure
on finite input always raises ``LinAlgError`` (or ``NonPositiveDefinite``),
and never returns NaN with a warning.

A NaN in the input is not checked, inside a guard or outside: the guard
raises only where an operation creates a NaN.  :func:`cholesky`,
:func:`inv`, :func:`logdet` and :func:`psd_inverse` pass it through as NaN.
:func:`eigh`, :func:`eigvalsh` and :func:`min_eigenvalue` give NaN, finite
eigenvalues or ``LinAlgError``, depending on where the NaN sits and on the
matrix size.  So no result here is a NaN check: a caller that must reject
NaN checks for it itself.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import NonPositiveDefinite

# Eigenvalues within this gap of the largest span the dominant eigenspace.
DEGENERATE_GAP = 1e-10

# True inside :func:`guarded`.
_GUARDED = ContextVar("fdwiretap_linalg_guarded", default=False)


def _raise_linalg_error(err, flag):
    raise LinAlgError("a LAPACK routine failed (not positive definite, "
                      "singular or not converged), or an operation gave NaN")


@contextmanager
def guarded():
    """numpy's LAPACK error state, entered once for the calls inside, which
    run their gufuncs bare: as ``np.linalg`` sets it around each call, an
    ``invalid`` result of any floating-point operation raises
    ``LinAlgError``, and overflow, division by zero and underflow are
    ignored.  Enter it around a loop and set no other ``np.errstate``
    inside.  The state and the guard mark are restored on exit, also after
    an exception."""
    token = _GUARDED.set(True)
    try:
        with np.errstate(call=_raise_linalg_error, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            yield
    finally:
        _GUARDED.reset(token)


def _lapack(gufunc, m: np.ndarray, real_sig: str, complex_sig: str):
    """``gufunc`` on ``m`` in double precision, under :func:`guarded`."""
    sig = complex_sig if m.dtype.kind == "c" else real_sig
    if _GUARDED.get():
        return gufunc(m, signature=sig)
    with guarded():
        return gufunc(m, signature=sig)


def eigh(m: np.ndarray) -> tuple:
    """Eigenvalues in ascending order and eigenvectors of a Hermitian
    matrix, or of each matrix of a stack, from its lower triangle: bit for
    bit ``np.linalg.eigh``.  Raises LinAlgError if the solver fails."""
    return _lapack(_umath_linalg.eigh_lo, m, "d->dd", "D->dD")


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues in ascending order of a Hermitian matrix, or of each
    matrix of a stack, from its lower triangle: bit for bit
    ``np.linalg.eigvalsh``.  Raises LinAlgError if the solver fails."""
    return _lapack(_umath_linalg.eigvalsh_lo, m, "d->d", "D->d")


def inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of a stack: bit for
    bit ``np.linalg.inv``.  Raises LinAlgError for a singular matrix."""
    return _lapack(_umath_linalg.inv, m, "d->d", "D->D")


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
        return _lapack(_umath_linalg.cholesky_lo, m, "d->d", "D->D")
    except LinAlgError as exc:
        raise NonPositiveDefinite("matrix is not positive definite") from exc


def logdet(m: np.ndarray):
    """Natural-log determinant of a Hermitian positive definite matrix, or
    the per-matrix log-determinants of a stack, from the Cholesky factors,
    never from an explicit determinant.  Raises NonPositiveDefinite if a
    factorization fails; a NaN input gives NaN."""
    chol = cholesky(m)
    return 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)


def psd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse W^H W, with W = L^-1 for the Cholesky factor L, of a
    Hermitian positive definite matrix or of each matrix of a stack.
    Raises NonPositiveDefinite if the factorization fails, so a singular or
    indefinite covariance is never inverted; a NaN input gives NaN."""
    w = inv(cholesky(m))
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
    vals, vecs = eigh(m)
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
    return float(eigvalsh(hermitize(m)).min())


def real_trace(m: np.ndarray) -> float:
    """Real part of the trace of a matrix, summed over a stack."""
    return float(m.diagonal(axis1=-2, axis2=-1).real.sum())


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re tr(a^H b) on the space of complex matrices,
    summed over a stack."""
    return float(np.vdot(a, b).real)
