"""Test objectives with analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = ["Objective", "quadratic", "toy_scalar", "rosenbrock"]


@dataclass(frozen=True)
class Objective:
    """Scalar objective with an analytic gradient.

    ``eval_fn`` maps a point to ``(loss, grad)``.  ``x_star`` / ``f_star`` are
    the known minimizer and minimum when available (one per problem for a
    stack of quadratics).  Every objective here also takes a batch ``(..., d)``
    (a stack of S quadratics: ``(..., S, d)``) and returns the ``(...)``
    losses and ``(..., d)`` gradients, each row bitwise equal to the call on
    that row alone; a vector ``(d,)`` gives a float loss.
    """

    dim: int
    eval_fn: Callable[[np.ndarray], tuple[float, np.ndarray]]
    x_star: np.ndarray | None = None
    f_star: float | np.ndarray | None = None

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.eval_fn(np.asarray(x, dtype=np.float64))

    def loss(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]


def _spd_minimum(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """(x*, f*) of 1/2 x^T A x - b^T x for one symmetric positive definite A,
    by Cholesky factorization; f* = -1/2 b^T x*."""
    scale = float(np.abs(A).max())
    if scale == 0 or float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("A must be symmetric")
    try:
        factor = cho_factor(A)
    except np.linalg.LinAlgError as err:
        raise ValueError("A must be positive definite") from err
    x_star = cho_solve(factor, b)
    return x_star, -0.5 * float(b @ x_star)


def quadratic(A: np.ndarray, b: np.ndarray) -> Objective:
    """f(x) = 1/2 x^T A x - b^T x for symmetric positive definite A, or for a
    stack of S such problems, A ``(S, d, d)`` and b ``(S, d)``.

    The minimizer A^{-1} b is solved once per problem by Cholesky
    factorization; f* = -1/2 b^T x*.  A stack has one minimizer and minimum
    per problem (``x_star`` ``(S, d)``, ``f_star`` ``(S,)``) and evaluates a
    batch ``(..., S, d)``, row i of every leading index against problem i;
    each row is bitwise that problem's lone value.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2] or b.shape != A.shape[:-1]:
        raise ValueError(f"bad shapes: A {A.shape}, b {b.shape}")
    if A.ndim == 2:
        x_star, f_star = _spd_minimum(A, b)
    else:
        # one problem at a time, so no temporary is larger than one matrix
        x_star = np.empty_like(b)
        f_star = np.empty(len(b))
        for i in range(len(b)):
            x_star[i], f_star[i] = _spd_minimum(A[i], b[i])

    # np.matvec / np.vecdot give each row of a batch bitwise the values of
    # A @ x and x @ y on that row alone; X @ A.T and (X * Y).sum(-1) do not
    def eval_fn(x):
        if A.ndim == 3 and x.shape[-2:] != b.shape:
            raise ValueError(f"a stack of {len(A)} problems takes a batch (..., {len(A)}, d), got {x.shape}")
        Ax = np.matvec(A, x)
        loss = 0.5 * np.vecdot(x, Ax) - np.vecdot(b, x)
        return (float(loss) if x.ndim == 1 else loss), Ax - b

    return Objective(dim=A.shape[-1], eval_fn=eval_fn, x_star=x_star, f_star=f_star)


def toy_scalar() -> Objective:
    """The scalar objective f(x) = 1/2 (x - 1/2)^2."""

    def eval_fn(x):
        d = x - 0.5
        loss = 0.5 * np.vecdot(d, d)
        return (float(loss) if x.ndim == 1 else loss), d

    return Objective(dim=1, eval_fn=eval_fn, x_star=np.array([0.5]), f_star=0.0)


def rosenbrock(dim: int) -> Objective:
    """Standard Rosenbrock function, a smooth non-convex rate-study objective."""
    if dim < 2:
        raise ValueError(f"rosenbrock needs dim >= 2, got {dim}")

    def eval_fn(x):
        head = x[..., :-1]
        d = x[..., 1:] - head**2
        loss = np.add.reduce(100.0 * d * d + (1.0 - head) ** 2, axis=-1)
        g = np.zeros_like(x)
        g[..., :-1] = -400.0 * head * d - 2.0 * (1.0 - head)
        g[..., 1:] += 200.0 * d
        return (float(loss) if x.ndim == 1 else loss), g

    return Objective(dim=dim, eval_fn=eval_fn, x_star=np.ones(dim), f_star=0.0)
