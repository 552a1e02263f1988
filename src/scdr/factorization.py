"""Per-domain latent factor training by mini-batch SGD.

The objective is the summed squared error over observed ratings, optionally
plus a weight-decay term on the rows a batch touches. ``train_smf`` is the
sharpness-aware variant: each step first finds a loss-maximizing L2-ball
perturbation of the batch's user rows and applies the gradient evaluated at
the perturbed point to the unperturbed parameters. With a zero-radius or
zero-step perturbation it reduces bitwise to ``train_mf``.

``_Pass`` is the model's one loss/gradient kernel, built by a ``_Batch`` at
given user rows, one per rating: ``mf_loss``, ``mf_grad`` (the
finite-difference oracle's subject), the ascent and the SGD update all read
it. ``_run_epochs`` is the one epoch loop, with the one divergence guard, of
these trainers and of the mapping trainers in ``scdr.mapping``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS, DomainDataset, read_artifact, write_artifact
from .errors import DivergenceError, ValidationError
from .perturbation import PerturbConfig, WorstCase, find_delta

CHECKPOINT_VERSION = 5
# An epoch loss above this multiple of the untrained loss is divergence. Runs that train
# stay below 1.00001 times it; emcdr blowing up passes 2.7e4 by epoch 1.
DIVERGENCE_FACTOR = 1e3


@dataclass
class FactorModel:
    """User matrix U (n_users x d) and item matrix V (n_items x d)."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValidationError("U and V must be 2-D matrices")
        if self.U.shape[1] != self.V.shape[1]:
            raise ValidationError(f"U and V widths differ: {self.U.shape[1]} vs {self.V.shape[1]}")
        if not (np.all(np.isfinite(self.U)) and np.all(np.isfinite(self.V))):
            raise ValidationError("factor matrices must be finite")

    @property
    def d(self) -> int:
        return self.U.shape[1]


@dataclass
class TrainConfig:
    """SGD hyperparameters for factor training (latent dim included)."""

    epochs: int
    learning_rate: float = 0.01
    batch_size: int = 256
    weight_decay: float = 0.0
    init_std: float = 0.01
    dim: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0.0 or not math.isfinite(self.learning_rate):
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0.0 or not math.isfinite(self.weight_decay):
            raise ValidationError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.init_std <= 0.0 or not math.isfinite(self.init_std):
            raise ValidationError(f"init_std must be finite and > 0, got {self.init_std}")
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")


def _run_epochs(n: int, config: TrainConfig, rng, step, epoch_loss, model: str) -> list[float]:
    """The one epoch loop of factor and mapping training; returns each epoch's loss.

    ``step`` gets each ``batch_size`` slice of one ``rng.permutation(n)`` per epoch. An epoch
    loss not at most ``DIVERGENCE_FACTOR`` times the untrained ``model``'s (NaN and inf
    included) raises :class:`DivergenceError`; it, and one a step raises, come out naming
    the epoch and the learning rate.
    """
    # overflow on the way to the divergence guard is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        bound = DIVERGENCE_FACTOR * epoch_loss()
        trace: list[float] = []
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            try:
                for start in range(0, n, config.batch_size):
                    step(perm[start:start + config.batch_size])
                del perm  # before the epoch loss and the next draw, so two never coexist
                trace.append(epoch_loss())
                if not trace[-1] <= bound:
                    raise DivergenceError(f"training loss {trace[-1]:.4g} exceeds "
                                          f"{DIVERGENCE_FACTOR:g} times the untrained {model}'s")
            except DivergenceError as exc:
                raise DivergenceError(str(exc), epoch=epoch,
                                      learning_rate=config.learning_rate) from exc
    return trace


class MfGradient(NamedTuple):
    """Gradients for the rows a batch touches; untouched rows are implicitly zero."""

    user_index: np.ndarray
    user_grad: np.ndarray
    item_index: np.ndarray
    item_grad: np.ndarray


class MfTrainResult(NamedTuple):
    model: FactorModel
    loss_trace: list[float]


def _touched(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an index column in sorted order, and each one's first position:
    the factor kernel's one sort, which only the decay term and :func:`mf_grad` need."""
    return np.unique(idx, return_index=True)


def _workspace(n_rows: int, batch_size: int, d: int, floats: int = 0) -> tuple[np.ndarray, ...]:
    """A step's row-to-position table over ``P``'s rows, its grid of flat indices ``bin * d +
    col`` for up to ``batch_size`` ratings, and two float buffers of at least ``floats``, for
    a step's rows and its per-rating gradient terms: in ``_train`` they hold the epoch
    loss's blocks too, as fresh blocks would be mapped by malloc each time and step buffers
    of their own raise its traced peak by 82 KB."""
    floats = max(floats, 2 * batch_size * d)
    grid = np.arange(2 * batch_size * d).reshape(2 * batch_size, d)
    return np.empty(n_rows, dtype=np.intp), grid, np.empty(floats), np.empty(floats)


class _Batch:
    """One batch's ratings over the parameter table ``P = [U; V]``: its rows, bins and decay.

    ``rows`` are ``P``'s rows ``idx = [ui; vi + n_users]``, in a workspace buffer, with
    halves ``u_rows`` and ``v_rows``. A rating's bin (``bins``) is the position of its row's
    last occurrence in ``idx``, from the workspace's table: ``table[idx] = arange`` fills
    what ``table.take(idx)`` reads, so no table is ever cleared and a step costs the same at
    any row count. User bins lie in the first half. ``flat`` indexes each rating's entries
    in the grid of its partner's bin (a user row weights its item's gradient), so item bins
    come first. ``weights``, the other buffer, holds the per-rating terms that the update's
    gradient sums into the bins. With a positive decay, ``first_u`` is each touched user's
    first position and ``v_touched`` each touched item row, by row order.
    """

    def __init__(self, idx: np.ndarray, r: np.ndarray, P: np.ndarray, weight_decay: float,
                 work: tuple[np.ndarray, ...]):
        n = r.size
        table, grid, rows, weights = work
        self.r, self.weight_decay = r, weight_decay
        self.rows = _take_rows(P, idx, rows)
        self.u_rows, self.v_rows = self.rows[:n], self.rows[n:]
        self.weights = weights[:self.rows.size].reshape(2, n, -1)
        table[idx] = np.arange(2 * n)
        self.bins = table.take(idx)
        self.flat = grid.take(self.bins.reshape(2, n)[::-1], axis=0).ravel()
        self.first_u = self.v_touched = None
        if weight_decay > 0.0:
            self.first_u = _touched(idx[:n])[1]
            self.v_touched = self.v_rows.take(_touched(idx[n:])[1], axis=0)

    def at(self, u_rows: np.ndarray) -> _Pass:
        """The pass at user rows ``u_rows``, one per rating (a repeated user's rows equal)."""
        return _Pass(self, u_rows)


class _Pass:
    """The factor model's one loss/gradient kernel: a batch at per-rating user rows ``u_rows``.

    ``resid`` (rating minus prediction) is computed when the pass is built,
    ``loss`` (the :func:`_objective`) and the ascent's ``grad_u`` when read,
    so a pass read only for its loss scatters nothing. :meth:`grad`, the
    update's, is the gradient of ``[u_rows; v_rows]`` in one scatter, and
    ``grad_u`` that scatter over the user half alone. Each sums per-rating
    rows times ``-2 * resid`` into the batch's bins with ``np.bincount``,
    which like ``np.add.at`` adds in rating order from 0.0: a touched row's
    total, bitwise the per-row sum, is at its bin. ``grad`` leaves it there,
    for the update to write from; ``grad_u`` reads it back per rating, so a
    repeated user's rows stay equal through the ascent. A gradient is the
    caller's to write.
    """

    __slots__ = ("_b", "u_rows", "resid")

    def __init__(self, batch: _Batch, u_rows: np.ndarray):
        self._b, self.u_rows = batch, u_rows
        self.resid = batch.r - np.einsum("ij,ij->i", u_rows, batch.v_rows)

    @property
    def loss(self) -> float:
        b = self._b
        touched = () if b.first_u is None else (self.u_rows.take(b.first_u, axis=0), b.v_touched)
        return _objective(self.resid, b.weight_decay, *touched)

    @property
    def grad_u(self) -> np.ndarray:
        b = self._b
        weights = -2.0 * self.resid[:, None] * b.v_rows
        totals = self._scatter(b.flat[weights.size:], weights, self.u_rows)
        return self._read_back(totals, b.bins[:self.resid.size], weights)

    def grad(self) -> np.ndarray:
        """The gradient of ``[u_rows; v_rows]``: each touched row's total at its bin, and at
        any other position no total, only its row's decay term."""
        b, w = self._b, self._b.weights
        # -2 * resid filled in once, then same-shape multiplies, which beat a broadcast's
        np.multiply(self.resid[:, None], -2.0, out=w[1])
        np.multiply(w[1], self.u_rows, out=w[0])
        w[1] *= b.v_rows
        return self._scatter(b.flat, w, self.u_rows, b.v_rows)

    def _scatter(self, flat: np.ndarray, weights: np.ndarray, *owns: np.ndarray) -> np.ndarray:
        """``weights`` summed per bin, plus the decay of ``owns``, the rows whose gradient
        each block of ``weights`` becomes: a fresh array, shaped as ``weights``' rows."""
        totals = np.bincount(flat, weights=weights.ravel(), minlength=weights.size)
        totals = totals.reshape(-1, weights.shape[-1])
        if self._b.weight_decay > 0.0:
            for block, own in zip(totals.reshape(len(owns), -1, totals.shape[1]), owns):
                block += 2.0 * self._b.weight_decay * own
        return totals

    @staticmethod
    def _read_back(totals: np.ndarray, bins: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each rating's row total, ``totals[bins]``, written into ``out``."""
        # the bins are in range: "clip" clips nothing, and spares take a copy of its out
        return totals.take(bins, axis=0, out=out, mode="clip")


def _model_batch(model: FactorModel, batch, weight_decay: float) -> tuple:
    """The batch of checked (user, item, rating) triples over a copy of ``[U; V]``, and the
    triples' user and item index columns."""
    batch = list(batch)
    if not batch:
        raise ValidationError("batch must be non-empty")
    ui = np.array([int(b[0]) for b in batch], dtype=np.int64)
    vi = np.array([int(b[1]) for b in batch], dtype=np.int64)
    r = np.array([float(b[2]) for b in batch], dtype=np.float64)
    if ui.min() < 0 or ui.max() >= model.U.shape[0]:
        raise ValidationError("user index out of range")
    if vi.min() < 0 or vi.max() >= model.V.shape[0]:
        raise ValidationError("item index out of range")
    P = np.concatenate((model.U, model.V))
    b = _Batch(np.concatenate((ui, vi + len(model.U))), r, P, float(weight_decay),
               _workspace(P.shape[0], r.size, model.d))
    return b, ui, vi


def _objective(resid: np.ndarray, weight_decay: float, *rows: np.ndarray) -> float:
    """Summed squared residual plus ``weight_decay`` times each row block's squared norm.

    The one factor objective: the kernel's loss and the per-epoch trace both
    evaluate it. Every sum is numpy's own, which no BLAS thread count changes, and
    none holds a copy of ``resid``.
    """
    loss = float(np.einsum("i,i->", resid, resid))
    if weight_decay > 0.0:
        loss += weight_decay * sum(float((m * m).sum()) for m in rows)
    return loss


def mf_loss(model: FactorModel, batch, weight_decay: float = 0.0) -> float:
    """Summed squared rating error over a batch of (user, item, rating) triples.

    With positive ``weight_decay`` the squared norms of the rows the batch
    touches (each row once) are added, scaled by the decay.
    """
    b = _model_batch(model, batch, weight_decay)[0]
    return b.at(b.u_rows).loss


def mf_grad(model: FactorModel, batch, weight_decay: float = 0.0) -> MfGradient:
    """Analytic gradient of :func:`mf_loss` for the touched U and V rows, in sorted row order."""
    b, ui, vi = _model_batch(model, batch, weight_decay)
    grad = b.at(b.u_rows).grad()
    (uniq_u, first_u), (uniq_v, first_v) = _touched(ui), _touched(vi)
    # a touched row's total is at its bin, which any of its ratings gives
    return MfGradient(uniq_u, grad.take(b.bins.take(first_u), axis=0),
                      uniq_v, grad.take(b.bins[ui.size:].take(first_v), axis=0))


def _take_rows(vectors: np.ndarray, rows: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``vectors[rows]``, written into the front of the flat float64 ``buffer``.

    ``mode="clip"`` spares ``take`` a copy of its ``out``. It clips nothing: a
    :class:`DomainDataset` range-checks its index columns, ``_train`` sizes ``P = [U; V]``
    from the dataset, and the mapping trainer's V has passed ``mapping._check_fit``.
    """
    out = buffer[:rows.size * vectors.shape[1]].reshape(rows.size, vectors.shape[1])
    return vectors.take(rows, axis=0, out=out, mode="clip")


def _sgd_step(P, idx, r, config: TrainConfig, perturb: PerturbConfig, work) -> None:
    """One SGD update of the rows ``idx`` of ``P = [U; V]`` that a batch touches.

    With a moving ``perturb``, a :class:`WorstCase` pair over the batch's kernel picks whole
    iterates by the summed loss and keeps the picked pass, whose gradient the update reads:
    k+1 residuals and scatters a step, one of each for a plain step. The update writes each
    position of ``idx`` from the gradient there; numpy's fancy assignment writes in index
    order, so a repeated row keeps its last write, at its bin, which holds its total.
    ``work`` is a :func:`_workspace`.
    """
    b = _Batch(idx, r, P, config.weight_decay, work)
    if perturb.k > 0 and perturb.rho > 0.0:
        pair = WorstCase(b.at)
        find_delta(lambda u: pair.loss_at(u), lambda u: pair.grad_at(u), b.u_rows, perturb)
        grad = pair.best().grad()
    else:
        grad = b.at(b.u_rows).grad()
    # b.rows still holds the batch's rows of P, so at each bin this is the in-place -= update
    grad *= config.learning_rate
    P[idx] = np.subtract(b.rows, grad, out=grad)


def _train(dataset: DomainDataset, config: TrainConfig, perturb: PerturbConfig) -> MfTrainResult:
    rng = np.random.default_rng(config.seed)
    n_users = dataset.n_users
    # one draw for U's rows then V's gives the bits of one draw for each; U and V are views
    P = rng.normal(0.0, config.init_std, (n_users + dataset.n_items, config.dim))
    U, V = P[:n_users], P[n_users:]
    ui, vi, r = dataset.user_index, dataset.item_index, dataset.rating
    resid = np.empty(r.size)
    work = _workspace(P.shape[0], min(r.size, config.batch_size), config.dim,
                      min(r.size, CHUNK_ROWS) * config.dim)
    u_block, v_block = work[2:]

    def step(sel):
        # built per step from the int32 columns: a stored (2, N) index would raise the peak
        idx = np.concatenate((ui.take(sel), vi.take(sel)), dtype=np.intp)
        idx[sel.size:] += n_users
        _sgd_step(P, idx, r.take(sel), config, perturb, work)

    def epoch_loss():
        for start in range(0, r.size, CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            u_rows = _take_rows(U, ui[part], u_block)
            v_rows = _take_rows(V, vi[part], v_block)
            # the predictions, then the residuals, in the block's own slice of resid
            np.einsum("ij,ij->i", u_rows, v_rows, out=resid[part])
            np.subtract(r[part], resid[part], out=resid[part])
        return _objective(resid, config.weight_decay, U, V)

    trace = _run_epochs(r.size, config, rng, step, epoch_loss, "model")
    return MfTrainResult(FactorModel(U, V), trace)


def train_mf(dataset: DomainDataset, config: TrainConfig) -> MfTrainResult:
    """Seeded mini-batch SGD on the squared-error objective: :func:`train_smf` at zero radius."""
    return _train(dataset, config, PerturbConfig(rho=0.0, k=0))


def train_smf(dataset: DomainDataset, config: TrainConfig, perturb: PerturbConfig) -> MfTrainResult:
    """Sharpness-aware factor training.

    Identical to :func:`train_mf` except each step evaluates the gradient at
    user rows shifted by the ball-constrained loss maximizer (items stay
    unperturbed) before updating the unperturbed rows.
    """
    return _train(dataset, config, perturb)


def save_factor_model(model: FactorModel, path, config: TrainConfig | None = None,
                      perturb: PerturbConfig | None = None, inputs: dict | None = None) -> None:
    """Checkpoint a factor model: a header with ``CdrScenario.inputs``, then U and V as arrays."""
    write_artifact(path, "factor_model", CHECKPOINT_VERSION, {
        "config": None if config is None else asdict(config),
        "perturb": None if perturb is None else asdict(perturb),
    }, inputs=inputs, arrays={"U": model.U, "V": model.V})


def load_factor_model(path, inputs: dict | None = None) -> tuple[FactorModel, dict, str]:
    """A checkpoint's model, header and sha256; one made from other ``inputs`` raises."""
    with read_artifact(path, "factor_model", CHECKPOINT_VERSION, "factor checkpoint", inputs,
                       arrays={"U": ("f8", 2), "V": ("f8", 2)}) as (doc, digest):
        try:
            model = FactorModel(doc.pop("U"), doc.pop("V"))
        except ValidationError as exc:
            raise ValidationError(f"malformed factor checkpoint {path}: {exc}") from None
    return model, doc, digest
