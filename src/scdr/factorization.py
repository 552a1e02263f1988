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
    """The distinct rows of an index column in sorted order, and each one's first position.

    The factor kernel's one sort. Only the objective's weight-decay term and
    :func:`mf_grad`'s per-row gradients need each touched row once, in order.
    """
    return np.unique(idx, return_index=True)


def _index_tables(n_users: int, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised row-to-position tables for :class:`_Batch`, one per index column."""
    return np.empty(n_users, dtype=np.intp), np.empty(n_items, dtype=np.intp)


class _Batch:
    """One batch's ratings, its fixed item rows per rating, its bins and its decay.

    A rating's bin (``bins_*``) is the batch position of its row's last
    occurrence, read from an index table: ``table[idx] = arange(n)`` writes
    every entry that ``table.take(idx)`` then reads, so no table is ever
    cleared and a batch costs the same at any row count. Any one occurrence
    would do: all of a row's ratings share its bin. ``v_rows`` are the item
    rows per rating, which no ascent moves. ``flat_*`` index each rating's
    entries in the grid of bins, ``bin * d + col``. With a positive decay,
    ``first_u`` is each touched user's first position in sorted row order,
    and ``v_touched`` the touched item rows in that order. :meth:`at` is the
    batch's kernel.
    """

    def __init__(self, ui: np.ndarray, vi: np.ndarray, r: np.ndarray, V: np.ndarray,
                 weight_decay: float, tables: tuple[np.ndarray, np.ndarray]):
        self.ui, self.vi, self.r, self.weight_decay = ui, vi, r, weight_decay
        self.v_rows = V.take(vi, axis=0)
        table_u, table_v = tables
        table_u[ui] = table_v[vi] = np.arange(r.size)
        self.bins_u, self.bins_v = table_u.take(ui), table_v.take(vi)
        grid = np.arange(r.size * V.shape[1]).reshape(r.size, V.shape[1])
        self.flat_u = grid.take(self.bins_u, axis=0).ravel()
        self.flat_v = grid.take(self.bins_v, axis=0).ravel()
        self.first_u = self.v_touched = None
        if weight_decay > 0.0:
            self.first_u = _touched(ui)[1]
            self.v_touched = self.v_rows.take(_touched(vi)[1], axis=0)

    def at(self, u_rows: np.ndarray) -> _Pass:
        """The pass at user rows ``u_rows``, one per rating (a repeated user's rows equal)."""
        return _Pass(self, u_rows)


class _Pass:
    """The factor model's one loss/gradient kernel: a batch at per-rating user rows ``u_rows``.

    ``resid`` (rating minus prediction) is computed when the pass is built.
    ``loss`` (the :func:`_objective`), ``grad_u`` and ``grad_v`` are computed
    on first read, so a pass read only for its loss scatters nothing. Both
    gradients sum their per-rating rows times one shared ``-2 * resid`` into
    the batch's bins with ``np.bincount``, which like ``np.add.at`` adds in
    rating order from 0.0, and read the sums back per rating: each rating
    holds its row's gradient, bitwise the per-row sum. A gradient is the
    pass's own array: a caller may write it once it reads the pass no more.
    """

    # slots and None checks: functools.cached_property takes a lock on each first read
    # (Python 3.11), which a sharpness-aware step would pay about six times
    __slots__ = ("_b", "u_rows", "resid", "_loss", "_m2r", "_grad_u", "_grad_v")

    def __init__(self, batch: _Batch, u_rows: np.ndarray):
        self._b, self.u_rows = batch, u_rows
        self.resid = batch.r - np.einsum("ij,ij->i", u_rows, batch.v_rows)
        self._loss = self._m2r = self._grad_u = self._grad_v = None

    @property
    def loss(self) -> float:
        if self._loss is None:
            b = self._b
            touched = () if b.first_u is None else (self.u_rows.take(b.first_u, axis=0),
                                                    b.v_touched)
            self._loss = _objective(self.resid, b.weight_decay, *touched)
        return self._loss

    @property
    def grad_u(self) -> np.ndarray:
        if self._grad_u is None:
            self._grad_u = self._grad(self._b.flat_u, self._b.bins_u, self._b.v_rows, self.u_rows)
        return self._grad_u

    @property
    def grad_v(self) -> np.ndarray:
        if self._grad_v is None:
            self._grad_v = self._grad(self._b.flat_v, self._b.bins_v, self.u_rows, self._b.v_rows)
        return self._grad_v

    def _grad(self, flat: np.ndarray, bins: np.ndarray, other_rows: np.ndarray,
              own: np.ndarray) -> np.ndarray:
        """``-2 * resid`` times ``other_rows``, summed per bin, read back per rating, plus decay."""
        if self._m2r is None:
            self._m2r = -2.0 * self.resid[:, None]
        grad = np.bincount(flat, weights=(self._m2r * other_rows).ravel(), minlength=own.size)
        grad = grad.reshape(own.shape).take(bins, axis=0)
        if self._b.weight_decay > 0.0:
            grad += 2.0 * self._b.weight_decay * own
        return grad


def _model_batch(model: FactorModel, batch, weight_decay: float) -> _Batch:
    """The checked index arrays of (user, item, rating) triples, as a :class:`_Batch`."""
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
    tables = _index_tables(model.U.shape[0], model.V.shape[0])
    return _Batch(ui, vi, r, model.V, float(weight_decay), tables)


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
    b = _model_batch(model, batch, weight_decay)
    return b.at(model.U.take(b.ui, axis=0)).loss


def mf_grad(model: FactorModel, batch, weight_decay: float = 0.0) -> MfGradient:
    """Analytic gradient of :func:`mf_loss` for the touched U and V rows, in sorted row order."""
    b = _model_batch(model, batch, weight_decay)
    at = b.at(model.U.take(b.ui, axis=0))
    (uniq_u, first_u), (uniq_v, first_v) = _touched(b.ui), _touched(b.vi)
    return MfGradient(uniq_u, at.grad_u.take(first_u, axis=0),
                      uniq_v, at.grad_v.take(first_v, axis=0))


def _take_rows(vectors: np.ndarray, rows: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``vectors[rows]``, written into the front of the flat float64 ``buffer``.

    ``mode="clip"`` spares ``take`` a copy of its ``out``. It clips nothing: a
    :class:`DomainDataset` range-checks its index columns, ``_train`` sizes U and V from
    the dataset, and the mapping trainer checks its V against the target domain.
    """
    out = buffer[:rows.size * vectors.shape[1]].reshape(rows.size, vectors.shape[1])
    return vectors.take(rows, axis=0, out=out, mode="clip")


def _sgd_step(U, V, ui, vi, r, config: TrainConfig, perturb: PerturbConfig, tables) -> None:
    """One SGD update of the rows a batch touches, from the pass at the ascent's pick.

    With a moving ``perturb``, a :class:`WorstCase` pair over the batch's
    kernel picks whole iterates by the summed loss and keeps the picked
    pass. So a sharpness-aware step costs k+1 residuals and a plain step one.
    The ascent and the update run on per-rating rows; a repeated row is
    written several times with equal values. ``tables`` are the batch's
    index tables, from :func:`_index_tables`.
    """
    b = _Batch(ui, vi, r, V, config.weight_decay, tables)
    u_base = U.take(ui, axis=0)
    if perturb.k > 0 and perturb.rho > 0.0:
        pair = WorstCase(b.at)
        find_delta(lambda u: pair.loss_at(u), lambda u: pair.grad_at(u), u_base, perturb)
        at = pair.best()
    else:
        at = b.at(u_base)
    du, dv = at.grad_u, at.grad_v
    # the rows still hold u_base and v_rows, so this is the in-place -= update
    du *= config.learning_rate
    dv *= config.learning_rate
    U[ui] = np.subtract(u_base, du, out=du)
    V[vi] = np.subtract(b.v_rows, dv, out=dv)


def _train(dataset: DomainDataset, config: TrainConfig, perturb: PerturbConfig) -> MfTrainResult:
    rng = np.random.default_rng(config.seed)
    U = rng.normal(0.0, config.init_std, (dataset.n_users, config.dim))
    V = rng.normal(0.0, config.init_std, (dataset.n_items, config.dim))
    ui, vi, r = dataset.user_index, dataset.item_index, dataset.rating
    resid = np.empty(r.size)
    # One block's gathered rows, written in place by every epoch loss: fresh arrays this
    # large would be mapped and unmapped by malloc at each block.
    block = min(r.size, CHUNK_ROWS) * config.dim
    u_block, v_block = np.empty(block), np.empty(block)
    tables = _index_tables(dataset.n_users, dataset.n_items)

    def step(sel):
        _sgd_step(U, V, ui.take(sel), vi.take(sel), r.take(sel), config, perturb, tables)

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
