"""Test objectives with analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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

    ``quadratic``'s ``eval_fn`` alone also takes a second batch ``at`` of the
    same shape, the paired evaluation ``value_and_grads``: one sweep of A
    gives the loss and gradient at x and the gradient at ``at``.
    """

    dim: int
    eval_fn: Callable[[np.ndarray], tuple[float, np.ndarray]]
    x_star: np.ndarray | None = None
    f_star: float | np.ndarray | None = None

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.eval_fn(np.asarray(x, dtype=np.float64))

    def value_and_grads(self, x: np.ndarray, at: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``(loss, grad)`` at x and the gradient at ``at`` (quadratics only)."""
        return self.eval_fn(np.asarray(x, dtype=np.float64), np.asarray(at, dtype=np.float64))

    def loss(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]


def quadratic(A: np.ndarray, b: np.ndarray, x_star: np.ndarray, f_star) -> Objective:
    """f(x) = 1/2 x^T A x - b^T x for symmetric positive definite A, or for a
    stack of S such problems, A ``(S, d, d)`` and b ``(S, d)``, with the
    caller's minimizer ``x_star`` (the shape of b) and minimum ``f_star`` (a
    float, or ``(S,)`` for a stack).  Only the shapes are checked: A's
    definiteness and the minimum are the caller's (``experiments`` takes them
    from the eigenbasis it drew A from).

    A stack evaluates a batch ``(..., S, d)``, row i of every leading index
    against problem i; each row is bitwise that problem's lone value.

    The paired evaluation ``value_and_grads(x, at)`` multiplies A by the
    ``(d, 2)`` right-hand side ``[x at]``, so one gemm reads each matrix once
    for both gradients; ``[x at]`` and the product live in one buffer that
    calls of the same batch shape reuse.  Each row is bitwise its lone paired
    call.  It rounds differently from two ``np.matvec`` calls: entry i of
    either gradient is within (d + 3) eps (sum_j |A_ij| |v_j| + |b_i|) of the
    ``value_and_grad`` one at the same point v.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (
        A.ndim not in (2, 3)
        or A.shape[-1] != A.shape[-2]
        or b.shape != A.shape[:-1]
        or np.shape(x_star) != b.shape
        or np.shape(f_star) != b.shape[:-1]
    ):
        raise ValueError(
            f"bad shapes: A {A.shape}, b {b.shape}, x_star {np.shape(x_star)}, f_star {np.shape(f_star)}"
        )

    # the paired evaluation's [x at] and A [x at], one buffer kept while the
    # batch shape holds: a run evaluates one shape every step
    pair = None

    # np.matvec / np.vecdot give each row of a batch bitwise the values of
    # A @ x and x @ y on that row alone, and A @ V each (d, 2) right-hand side
    # its lone gemm; X @ A.T and (X * Y).sum(-1) do not
    def eval_fn(x, at=None):
        nonlocal pair
        if A.ndim == 3 and x.shape[-2:] != b.shape:
            raise ValueError(f"a stack of {len(A)} problems takes a batch (..., {len(A)}, d), got {x.shape}")
        if at is None:
            Ax = np.matvec(A, x)
        elif at.shape != x.shape:
            raise ValueError(f"paired batches differ in shape: {x.shape} and {at.shape}")
        else:
            if pair is None or pair.shape[1:-1] != x.shape:
                pair = np.empty((2, *x.shape, 2))
            # filled in place: np.stack costs more than a 64-dim gemm
            V, AV = pair
            V[..., 0], V[..., 1] = x, at
            np.matmul(A, V, out=AV)
            Ax, A_at = AV[..., 0], AV[..., 1]
        loss = 0.5 * np.vecdot(x, Ax) - np.vecdot(b, x)
        loss = float(loss) if x.ndim == 1 else loss
        return (loss, Ax - b) if at is None else (loss, Ax - b, A_at - b)

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
