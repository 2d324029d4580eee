"""Dense linear-algebra helpers used throughout the package.

Values are plain ``numpy.float64`` arrays.  The two entry points here are
a partial-pivoting linear solver with an explicit singularity floor and
a cheap spectral-radius bound used by the stability checks.
"""

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Relative pivot floor below which a matrix is declared singular.
PIVOT_FLOOR = 1e-12
# Residual guarantee of solve_linear, relative to 1 + max|b|.
RESIDUAL_TOL = 1e-9
# Power-iteration convergence tolerance and iteration cap.
POWER_TOL = 1e-10
POWER_MAX_ITER = 1000

_POWER_SEED = 0x5EED


def as_matrix(a):
    """Return ``a`` as a C-contiguous float64 2-D array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def as_vector(a):
    """Return ``a`` as a C-contiguous float64 1-D array."""
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D array, got ndim={v.ndim}")
    return v


def solve_linear(A, b):
    """Solve ``A y = b`` by Gaussian elimination with partial pivoting.

    Parameters
    ----------
    A : (n, n) array_like
    b : (n,) array_like

    Returns
    -------
    y : (n,) ndarray
        Solution with ``max|A y - b| <= RESIDUAL_TOL * (1 + max|b|)`` for
        well-conditioned systems.

    Raises
    ------
    SingularMatrix
        When a pivot magnitude falls below ``PIVOT_FLOOR * max|A|``.
    DimensionMismatch
        When shapes are not square/compatible.
    """
    A = as_matrix(A)
    b = as_vector(b)
    n = A.shape[0]
    if A.shape[1] != n or b.shape[0] != n:
        raise DimensionMismatch(
            f"solve_linear needs square A and matching b, got {A.shape} and {b.shape}"
        )
    if n == 0:
        return np.zeros(0)
    scale = float(np.abs(A).max())
    floor = PIVOT_FLOOR * (scale if scale > 0.0 else 1.0)
    return _gauss_solve(A, b, floor)


def _gauss_solve(A, b, pivot_floor):
    """Gaussian elimination with partial pivoting on copies of A, b.

    Raises :class:`SingularMatrix` when a pivot magnitude falls below
    ``pivot_floor``.
    """
    n = A.shape[0]
    U = A.copy()
    y = b.copy()
    for k in range(n):
        p = k + np.argmax(np.abs(U[k:, k]))
        if np.abs(U[p, k]) < pivot_floor:
            raise SingularMatrix(
                f"pivot below {pivot_floor:.3e} during elimination"
                f" (max|A| = {np.abs(A).max():.3e})"
            )
        U[[k, p]] = U[[p, k]]
        y[[k, p]] = y[[p, k]]
        fac = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, k + 1 :] -= np.outer(fac, U[k, k + 1 :])
        y[k + 1 :] -= fac * y[k]
        U[k + 1 :, k] = 0.0
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - U[i, i + 1 :] @ x[i + 1 :]) / U[i, i]
    return x


def spectral_radius_bound(A):
    """Bound the spectral radius of ``A`` two ways.

    Returns
    -------
    (row_sum_max, power_estimate) : tuple of float
        ``row_sum_max`` is ``max_i sum_l |a_il|``, an upper bound on the
        spectral radius.  ``power_estimate`` is an infinity-norm power
        iteration on ``|A|`` from a fixed-seed positive start; it never
        exceeds ``row_sum_max`` beyond roundoff.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {A.shape}")
    n = A.shape[0]
    if n == 0:
        return 0.0, 0.0
    absA = np.ascontiguousarray(np.abs(A))
    row_sum_max = float(absA.sum(axis=1).max())
    rng = np.random.default_rng(_POWER_SEED)
    x0 = rng.random(n) + 0.5
    estimate = float(_power_iter(absA, x0, POWER_MAX_ITER, POWER_TOL))
    return row_sum_max, estimate


def _power_iter(M, x0, max_iter, tol):
    """Infinity-norm power iteration on a nonnegative matrix.

    Returns the converged ratio ``max|M x| / max|x|``, which never
    exceeds the maximum row sum of ``M``.
    """
    nx = np.abs(x0).max()
    if nx == 0.0:
        return 0.0
    x = x0 / nx
    est = 0.0
    for _ in range(max_iter):
        y = np.dot(M, x)
        ny = np.abs(y).max()
        if ny == 0.0:
            return 0.0
        if np.abs(ny - est) <= tol * (1.0 + ny):
            return ny
        est = ny
        x = y / ny
    return est
