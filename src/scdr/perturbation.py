"""Loss-maximizing perturbations inside an L2 ball.

``find_delta``'s multi-step sign-gradient ascent, each step projected back
onto the ball by ``project_ball``, drives the sharpness-aware trainers and
the sharpness probe. It tracks the best iterate including the unperturbed
origin, so its achieved loss never falls below the loss at zero
perturbation. Each reads its kernel through a ``WorstCase`` pair, which
also gives the pass at the pick; a trainer's step reads its update there
at any radius, from the origin's pass when the ball does not move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

import numpy as np

from .errors import DivergenceError, ValidationError

T = TypeVar("T")


@dataclass
class PerturbConfig:
    """Ball radius ``rho`` and ascent step count ``k``.

    Each sign step moves ``alpha = rho / max(k, 1)``, so k steps can
    traverse the ball. At ``k = 1`` that makes ``alpha = rho``: any row
    with a nonzero gradient ends on the radius-``rho`` sphere. At
    ``rho = 0`` the step is zero and the ascent stays at the origin.
    """

    rho: float
    k: int

    def __post_init__(self):
        self.rho = float(self.rho)
        self.k = int(self.k)
        if self.rho < 0.0 or not math.isfinite(self.rho):
            raise ValidationError(f"rho must be finite and >= 0, got {self.rho}")
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")

    @property
    def alpha(self) -> float:
        """The length of each sign step, ``rho / max(k, 1)``."""
        return self.rho / max(self.k, 1)


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


class WorstCase(Generic[T]):
    """:func:`find_delta`'s loss/gradient pair over a kernel ``at``, and the pass at its pick.

    ``at(point)`` returns a pass: a ``loss``, one number or one per row, and
    an input gradient ``grad_u``. Each ascent hands ``find_delta`` callables
    of its own module, ``lambda u: pair.loss_at(u)`` and its ``grad_at``
    twin, so that a tracer wrapping ``find_delta`` credits their time there.
    The pair holds the last point's pass, keyed on the point's identity (so
    no point may be written between calls), and drops it before ``at`` runs
    anew. The pick, in ``point`` and ``loss``, starts at ``origin`` with no
    loss; ``loss_at`` keeps its first point, then only a strictly higher
    loss. A one-number loss picks whole iterates and keeps the picked pass;
    a per-row loss picks each row and keeps none. With no ascent run, the
    pick is the origin and ``best()`` its pass.
    """

    def __init__(self, at: Callable[[np.ndarray], T], origin: np.ndarray):
        self._at, self.point = at, origin
        self._point = self._pass = self._kept = self.loss = None

    def _pass_at(self, point: np.ndarray) -> T:
        if self._point is not point:
            self._point = self._pass = None
            self._pass, self._point = self._at(point), point
        return self._pass

    def loss_at(self, point: np.ndarray) -> float:
        at = self._pass_at(point)
        loss = at.loss
        if self.loss is None:
            self.point, self.loss = point, loss
            if not isinstance(loss, np.ndarray):
                self._kept = at
        elif self._kept is not None:
            if loss > self.loss:
                self.point, self.loss, self._kept = point, loss, at
        elif (higher := loss > self.loss).all():
            self.point, self.loss = point, loss
        else:
            self.point = np.where(higher[:, None], point, self.point)
            self.loss = np.where(higher, loss, self.loss)
        return loss if self._kept is not None else float(loss.sum())

    def grad_at(self, point: np.ndarray) -> np.ndarray:
        return self._pass_at(point).grad_u

    def best(self) -> T:
        """The pass at the pick: the kept one, else the held one if at the pick, or a new one."""
        return self._pass_at(self.point) if self._kept is None else self._kept


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
        # to loss_at are never written, as WorstCase's memo and pick require
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
