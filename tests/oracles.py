"""Reference computations that only the tests use: a component-by-component
finite-difference gradient and the trace of a diagonal FIM."""

import numpy as np

from fedlora.linalg import default_step


def finite_diff_gradient(f, x, h=None):
    """Central-difference gradient of a scalar function, component by component."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_step(x)
    if h <= 0:
        raise ValueError("step must be positive")
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = f(x + e)
        fm = f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ArithmeticError(f"non-finite evaluation at component {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def fim_trace(fd):
    """Trace of a `fisher.FimDiag`: the sum of its entries over every layer.
    Of one sample's full diagonal it is that sample's difficulty score."""
    return float(sum(v.sum() for v in fd.per_layer))
