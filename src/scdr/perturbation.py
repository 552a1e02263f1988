"""Loss-maximizing perturbations inside an L2 ball.

``find_delta``'s multi-step sign-gradient ascent, each step projected back
onto the ball by ``project_ball``, drives the sharpness-aware trainers and
the sharpness probe. It tracks the best iterate including the unperturbed
origin, so its achieved loss never falls below the loss at zero
perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import DivergenceError, ValidationError

T = TypeVar("T")


@dataclass
class PerturbConfig:
    """Ball radius ``rho``, ascent step count ``k``, and step size ``alpha``.

    ``alpha`` defaults to ``rho / max(k, 1)`` so that k sign steps can
    traverse the ball. At ``k = 1`` that makes ``alpha = rho``: any row
    with a nonzero gradient ends on the radius-``rho`` sphere.
    """

    rho: float
    k: int
    alpha: float | None = None

    def __post_init__(self):
        self.rho = float(self.rho)
        self.k = int(self.k)
        if self.rho < 0.0 or not math.isfinite(self.rho):
            raise ValidationError(f"rho must be finite and >= 0, got {self.rho}")
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if self.alpha is None:
            self.alpha = self.rho / max(self.k, 1) if self.rho > 0.0 else 1.0
        self.alpha = float(self.alpha)
        if self.alpha <= 0.0 or not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite and > 0, got {self.alpha}")


@dataclass
class Perturbation:
    """A found perturbation and the loss it achieves at ``origin + delta``."""

    delta: np.ndarray
    achieved_loss: float


def project_ball(point: np.ndarray, origin: np.ndarray, rho: float) -> np.ndarray:
    """Rescale each row of ``point - origin`` onto the radius-``rho`` sphere when outside the ball.

    Rows already inside are returned untouched; a 1-D point is one row.
    Neither ``point`` nor ``origin`` is written.
    """
    point = np.asarray(point, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    if point.shape != origin.shape:
        raise ValidationError(f"shape mismatch: point {point.shape} vs origin {origin.shape}")
    diff = point - origin
    # the expression np.linalg.norm evaluates here, without its dispatch
    norms = np.add.reduce(diff * diff, axis=-1, keepdims=True)
    np.sqrt(norms, out=norms)
    outside = norms > rho
    n_outside = np.count_nonzero(outside)
    # whole-batch shortcuts give the same bits as the masked form below
    if n_outside == outside.size:
        # origin + diff * (rho / norms), on the temporaries
        np.divide(rho, norms, out=norms)
        diff *= norms
        diff += origin
        return diff
    if n_outside == 0:
        return point
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.where(outside, origin + diff * (rho / safe), point)


def memo_last_point(fn: Callable[[np.ndarray], T]) -> Callable[[np.ndarray], T]:
    """``fn`` keeping its result for the last point object it was called on.

    :func:`find_delta` asks for the loss and then the gradient at the same
    array object, so a loss/gradient pair that reads one memoized forward
    pass computes it once per iterate. Three ascents do: the factor and the
    mapping trainers' and the Lipschitz probe's. The key is object identity:
    a point must not be mutated in place between calls. The held result is
    dropped before ``fn`` runs on a new point, so no two are alive at once.
    """
    last: list = [None, None]

    def at(point):
        if last[0] is not point:
            last[:] = None, None
            last[1] = fn(point)
            last[0] = point
        return last[1]

    return at


def find_delta(loss_at: Callable[[np.ndarray], float],
               grad_at: Callable[[np.ndarray], np.ndarray],
               origin: np.ndarray,
               config: PerturbConfig) -> Perturbation:
    """Approximate the loss maximizer inside the ball by k projected sign steps.

    Each step moves ``alpha`` along the sign of the gradient and projects
    back onto the radius-``rho`` ball around ``origin``. The returned delta
    points to the highest-loss iterate seen, the origin included, so
    ``achieved_loss >= loss_at(origin)`` always holds and
    ``||delta||_2 <= rho`` up to float slack. Only a strictly higher loss
    replaces the best iterate.
    """
    origin = np.asarray(origin, dtype=np.float64)
    best_point = origin
    best_loss = float(loss_at(origin))
    if not math.isfinite(best_loss):
        raise DivergenceError("loss is non-finite at the unperturbed origin")
    point = origin
    for step in range(config.k):
        grad = np.asarray(grad_at(point), dtype=np.float64)
        if grad.shape != origin.shape:
            raise ValidationError(f"shape mismatch: gradient {grad.shape} vs origin {origin.shape}")
        if not np.isfinite(grad).all():
            raise DivergenceError(f"non-finite gradient at ascent step {step}")
        # point + alpha * sign(grad), built on a fresh array: points handed
        # to loss_at are never written, as memo_last_point requires
        moved = np.sign(grad)
        moved *= config.alpha
        moved += point
        point = project_ball(moved, origin, config.rho)
        loss = float(loss_at(point))
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at ascent step {step}")
        if loss > best_loss:
            best_loss = loss
            best_point = point
    return Perturbation(delta=best_point - origin, achieved_loss=best_loss)
