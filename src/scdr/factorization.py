"""Per-domain latent factor training by mini-batch SGD.

The objective is the summed squared error over observed ratings, optionally
plus a weight-decay term on the rows a batch touches. ``train_smf`` is the
sharpness-aware variant: each step first finds a loss-maximizing L2-ball
perturbation of the batch's user rows and applies the gradient evaluated at
the perturbed point to the unperturbed parameters. With a zero-radius or
zero-step perturbation it reduces bitwise to ``train_mf``.

``_Pass`` is the model's one loss/gradient kernel, built by a ``_Batch`` at
given user rows: ``mf_loss``, ``mf_grad`` (the finite-difference oracle's
subject), the ascent and the SGD update all read it. ``_run_epochs`` is the
one epoch loop, with the one divergence guard, of these trainers and of the
mapping trainers in ``scdr.mapping``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS, DomainDataset, number, read_artifact, write_artifact
from .errors import DivergenceError, ValidationError
from .perturbation import PerturbConfig, WorstCase, find_delta

CHECKPOINT_VERSION = 4
# An epoch loss above this multiple of the untrained loss is divergence. Runs that train
# stay below 1.00001 times it; emcdr blowing up passes 2.7e4 by epoch 1.
DIVERGENCE_FACTOR = 1e3


@dataclass
class FactorModel:
    """User matrix U (n_users x d) and item matrix V (n_items x d)."""

    U: np.ndarray
    V: np.ndarray
    d: int

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValidationError("U and V must be 2-D matrices")
        if self.U.shape[1] != self.d or self.V.shape[1] != self.d:
            raise ValidationError(f"matrix widths must equal d={self.d}")
        if not (np.all(np.isfinite(self.U)) and np.all(np.isfinite(self.V))):
            raise ValidationError("factor matrices must be finite")


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
        if self.learning_rate <= 0.0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0.0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.init_std <= 0.0:
            raise ValidationError(f"init_std must be > 0, got {self.init_std}")
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


def _unique_inverse(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(idx, return_inverse=True)`` for a non-empty 1-D integer array.

    One argsort, a flag on each change of value in sorted order and its
    running count give the sorted distinct values and each entry's position
    among them, in fewer calls than numpy's generic unique path. The cost
    depends only on ``idx.size``, not on how many rows the indices address.
    """
    order = idx.argsort()
    ordered = idx.take(order)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inv = np.empty(ordered.size, dtype=np.intp)
    inv[order] = first.cumsum() - 1
    return ordered.compress(first), inv


class _Batch:
    """One batch's index bookkeeping, its fixed item rows and its decay.

    ``uniq_*`` are the user and item rows the batch touches and ``inv_*`` each
    rating's position among them. ``v_touched`` are the item rows, which no
    ascent moves, and ``v_rows`` those rows per rating. ``flat_*`` index each
    rating's entries in the grid of touched rows, ``row * d + col``.
    :meth:`at` is the batch's kernel.
    """

    def __init__(self, ui: np.ndarray, vi: np.ndarray, r: np.ndarray, V: np.ndarray,
                 weight_decay: float):
        self.r, self.weight_decay = r, weight_decay
        self.uniq_u, self.inv_u = _unique_inverse(ui)
        self.uniq_v, self.inv_v = _unique_inverse(vi)
        self.v_touched = V.take(self.uniq_v, axis=0)
        self.v_rows = self.v_touched.take(self.inv_v, axis=0)
        grid = np.arange(max(self.uniq_u.size, self.uniq_v.size) * V.shape[1])
        grid = grid.reshape(-1, V.shape[1])
        self.flat_u = grid.take(self.inv_u, axis=0).ravel()
        self.flat_v = grid.take(self.inv_v, axis=0).ravel()

    def at(self, u_touched: np.ndarray) -> _Pass:
        """The pass at touched user rows ``u_touched`` (``uniq_u`` order)."""
        return _Pass(self, u_touched)


class _Pass:
    """The factor model's one loss/gradient kernel: a batch at touched user rows ``u_touched``.

    ``u_rows`` (``u_touched`` per rating) and ``resid`` (rating minus
    prediction) are computed when the pass is built. ``loss`` (the
    :func:`_objective`), ``grad_u`` and ``grad_v`` are computed on first
    read, so a pass read only for its loss scatters nothing. Both gradients
    scatter their per-rating rows times one shared ``-2 * resid`` with
    ``np.bincount`` over the batch's flat index; like ``np.add.at`` it adds in
    rating order from 0.0, so the sums are bitwise the same. A gradient is
    the pass's own array: a caller may write it once it reads the pass no more.
    """

    # slots and None checks: functools.cached_property takes a lock on each first read
    # (Python 3.11), which a sharpness-aware step would pay about six times
    __slots__ = ("_b", "u_touched", "u_rows", "resid", "_loss", "_m2r", "_grad_u", "_grad_v")

    def __init__(self, batch: _Batch, u_touched: np.ndarray):
        self._b, self.u_touched = batch, u_touched
        self.u_rows = u_touched.take(batch.inv_u, axis=0)
        self.resid = batch.r - np.einsum("ij,ij->i", self.u_rows, batch.v_rows)
        self._loss = self._m2r = self._grad_u = self._grad_v = None

    @property
    def loss(self) -> float:
        if self._loss is None:
            b = self._b
            self._loss = _objective(self.resid, b.weight_decay, self.u_touched, b.v_touched)
        return self._loss

    @property
    def grad_u(self) -> np.ndarray:
        if self._grad_u is None:
            self._grad_u = self._grad(self._b.flat_u, self._b.v_rows, self.u_touched)
        return self._grad_u

    @property
    def grad_v(self) -> np.ndarray:
        if self._grad_v is None:
            self._grad_v = self._grad(self._b.flat_v, self.u_rows, self._b.v_touched)
        return self._grad_v

    def _grad(self, flat: np.ndarray, other_rows: np.ndarray, own: np.ndarray) -> np.ndarray:
        """``-2 * resid`` times ``other_rows``, summed into the touched rows ``own``, plus decay."""
        if self._m2r is None:
            self._m2r = -2.0 * self.resid[:, None]
        grad = np.bincount(flat, weights=(self._m2r * other_rows).ravel(), minlength=own.size)
        grad = grad.reshape(own.shape)
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
    return _Batch(ui, vi, r, model.V, float(weight_decay))


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
    return b.at(model.U.take(b.uniq_u, axis=0)).loss


def mf_grad(model: FactorModel, batch, weight_decay: float = 0.0) -> MfGradient:
    """Analytic gradient of :func:`mf_loss` for the touched U and V rows."""
    b = _model_batch(model, batch, weight_decay)
    at = b.at(model.U.take(b.uniq_u, axis=0))
    return MfGradient(b.uniq_u, at.grad_u, b.uniq_v, at.grad_v)


def _take_rows(vectors: np.ndarray, rows: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``vectors[rows]``, written into the front of the flat float64 ``buffer``.

    ``mode="clip"`` spares ``take`` a copy of its ``out``. It clips nothing: a
    :class:`DomainDataset` range-checks its index columns, ``_train`` sizes U and V from
    the dataset, and the mapping trainer checks its V against the target domain.
    """
    out = buffer[:rows.size * vectors.shape[1]].reshape(rows.size, vectors.shape[1])
    return vectors.take(rows, axis=0, out=out, mode="clip")


def _sgd_step(U, V, ui, vi, r, config: TrainConfig, perturb: PerturbConfig) -> None:
    """One SGD update of the rows a batch touches, from the pass at the ascent's pick.

    With a moving ``perturb``, a :class:`WorstCase` pair over the batch's
    kernel picks whole iterates by the summed loss and keeps the picked
    pass. So a sharpness-aware step costs k+1 residuals and a plain step one.
    """
    b = _Batch(ui, vi, r, V, config.weight_decay)
    u_base = U.take(b.uniq_u, axis=0)
    if perturb.k > 0 and perturb.rho > 0.0:
        pair = WorstCase(b.at)
        find_delta(lambda u: pair.loss_at(u), lambda u: pair.grad_at(u), u_base, perturb)
        at = pair.best()
    else:
        at = b.at(u_base)
    du, dv = at.grad_u, at.grad_v
    # the rows still hold u_base and v_touched, so this is the in-place -= update
    du *= config.learning_rate
    dv *= config.learning_rate
    U[b.uniq_u] = np.subtract(u_base, du, out=du)
    V[b.uniq_v] = np.subtract(b.v_touched, dv, out=dv)


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

    def step(sel):
        _sgd_step(U, V, ui.take(sel), vi.take(sel), r.take(sel), config, perturb)

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
    return MfTrainResult(FactorModel(U, V, config.dim), trace)


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
        "d": model.d,
        "n_users": int(model.U.shape[0]),
        "n_items": int(model.V.shape[0]),
        "config": None if config is None else asdict(config),
        "perturb": None if perturb is None else asdict(perturb),
    }, inputs=inputs, arrays={"U": model.U, "V": model.V})


def load_factor_model(path, inputs: dict | None = None) -> tuple[FactorModel, dict, str]:
    """A checkpoint's model, header and sha256; one made from other ``inputs`` raises."""
    with read_artifact(path, "factor_model", CHECKPOINT_VERSION, "factor checkpoint", inputs,
                       arrays={"U": ("f8", 2), "V": ("f8", 2)}) as (doc, digest):
        d, n_users, n_items = (number(int, doc[k], k) for k in ("d", "n_users", "n_items"))
        try:
            model = FactorModel(doc.pop("U"), doc.pop("V"), d)
        except ValidationError as exc:
            raise ValidationError(f"malformed factor checkpoint {path}: {exc}") from None
        if model.U.shape[0] != n_users or model.V.shape[0] != n_items:
            raise ValidationError(f"checkpoint shape metadata disagrees with payload: {path}")
    return model, doc, digest
