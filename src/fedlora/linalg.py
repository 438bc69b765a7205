"""Dense numeric substrate: seeded RNG streams, the checked
eigendecomposition of a symmetric matrix, and the finite-difference Hessian
of a gradient map, finite and exactly symmetric by construction."""

import numpy as np

SYMMETRY_ATOL = 1e-9


def make_rng(seed, *stream):
    """Deterministic RNG. Extra integers select independent sub-streams of
    the same root seed (device id, round index, ...)."""
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


def _checked_symmetric(m):
    """`m` as a float64 array, or ValueError unless it is square, finite and
    symmetric within SYMMETRY_ATOL."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(m - m.T)) > SYMMETRY_ATOL:
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def eigh_symmetric(m):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    w, v = np.linalg.eigh(_checked_symmetric(m))
    return w, v


def default_step(x):
    """Finite-difference step scaled by the magnitude of the argument."""
    x = np.asarray(x, dtype=np.float64)
    return 1e-5 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)


def finite_diff_hessian(grad, x, h=None):
    """Symmetrized central-difference Jacobian of a gradient function.

    `grad` maps a stack of points, one per row, to their gradients, one per
    row. It is called once per side of the stencil, on the rows x + h*e_i
    and then on the rows x - h*e_i, each side a view into one (2, P, P)
    buffer; the result is the symmetrized Jacobian, exact for linear maps.
    A non-finite gradient row or result (finite sides can still overflow in
    (gp - gm) / 2h) raises ArithmeticError.
    """
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_step(x)
    if h <= 0:
        raise ValueError("step must be positive")
    n = x.size
    stencil = np.empty((2, n, n))  # rows x + h*e_i, then rows x - h*e_i
    stencil[:] = x
    diag = np.arange(n)
    stencil[0, diag, diag] += h
    stencil[1, diag, diag] -= h
    gp = np.asarray(grad(stencil[0]), dtype=np.float64)
    gm = np.asarray(grad(stencil[1]), dtype=np.float64)
    bad = ~(np.isfinite(gp).all(axis=1) & np.isfinite(gm).all(axis=1))
    if bad.any():
        raise ArithmeticError(
            f"non-finite gradient at component {int(np.argmax(bad))}")
    jac = gp - gm
    jac /= 2.0 * h
    jac += jac.T  # numpy buffers the overlapping transpose
    jac *= 0.5
    if not np.isfinite(jac).all():
        raise ArithmeticError("non-finite Hessian entry")
    return jac
