"""Gate nonlinearities shared by the two recurrent forward passes.

* :func:`stable_sigmoid` — the autograd engine's sigmoid
  (:meth:`repro.ml.autograd.Tensor.sigmoid`), used by the training
  forward and therefore the numerical reference;
* :func:`fast_sigmoid_` — the in-place direct form used by the no-grad
  kernel in :mod:`repro.ml.inference`.

The two differ by at most a few ulps (and an exact 0.0 where the stable
form returns a denormal), well inside the parity suite's 1e-6 bar; the
direct form has half the operation count.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fast_sigmoid_",
    "stable_sigmoid",
]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid matching ``Tensor.sigmoid`` exactly.

    Piecewise formulation that never exponentiates a positive argument:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` otherwise, with
    ``e = exp(-|x|)``.
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(x.dtype, copy=False)


def fast_sigmoid_(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """In-place direct sigmoid ``1 / (1 + exp(-x))`` — the inference gate.

    Half the operation count of the piecewise :func:`stable_sigmoid`, at
    the cost of overflowing ``exp`` for very negative gate
    pre-activations: there ``exp(-x)`` saturates to ``inf`` and the
    reciprocal returns exactly ``0.0``, while the stable form returns a
    denormal ``~1e-40`` — an absolute difference far below the 1e-6
    parity bar.  Everywhere else the two differ by at most a couple of
    ulps.  Callers must run under ``np.errstate(over="ignore")`` (the
    inference kernels wrap their whole time loop in one).

    ``e`` is same-shape scratch; the result lands in ``x``.
    """
    np.negative(x, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.reciprocal(e, out=x)
    return x
