"""Per-domain latent factor training by mini-batch SGD.

The objective is the summed squared error over observed ratings, optionally
plus a weight-decay term on the rows a batch touches. ``train_smf`` is the
sharpness-aware variant: each step first finds a loss-maximizing L2-ball
perturbation of the batch's user rows and applies the gradient evaluated at
the perturbed point to the unperturbed parameters. With a zero-radius or
zero-step perturbation it reduces bitwise to ``train_mf``.

``_run_epochs`` is the one epoch loop, with the one divergence guard, of these
trainers and of the mapping trainers in ``scdr.mapping``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS, DomainDataset, number, read_artifact, write_artifact
from .errors import DivergenceError, ValidationError
from .perturbation import PerturbConfig, find_delta, memo_last_point

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


class _Pass:
    """One forward pass of a batch at its touched user rows ``rows``.

    ``u_rows`` is ``rows`` gathered per rating and ``resid`` the residual there. ``loss``
    and ``grad`` (the user gradient) are set once read.
    """

    __slots__ = ("rows", "u_rows", "resid", "loss", "grad")

    def __init__(self, rows: np.ndarray, u_rows: np.ndarray, resid: np.ndarray):
        self.rows, self.u_rows, self.resid = rows, u_rows, resid
        self.loss = self.grad = None


class _Batch:
    """Index bookkeeping and the squared-error kernel of one batch.

    Every factor loss and gradient (``mf_loss``, ``mf_grad``, the ascent of
    ``train_smf`` and the SGD update) goes through ``residual`` and the
    ``*_sums`` scatters. ``uniq_*`` are the rows the batch touches and
    ``inv_*`` each rating's position among them. A scatter sums per-rating
    rows with one ``np.bincount`` over the flattened ``row * d + col``
    index; like ``np.add.at`` it adds in rating order starting from 0.0, so
    the sums are bitwise the same.
    """

    def __init__(self, ui: np.ndarray, vi: np.ndarray, r: np.ndarray, d: int):
        self.r = r
        self.d = d
        self.uniq_u, self.inv_u = _unique_inverse(ui)
        self.uniq_v, self.inv_v = _unique_inverse(vi)
        self._flat_u = self._flat_index(self.inv_u, self.uniq_u.size)
        self._flat_v = self._flat_index(self.inv_v, self.uniq_v.size)

    def _flat_index(self, inv: np.ndarray, n_rows: int) -> np.ndarray:
        """``row * d + col`` of every rating's entries, gathered from the grid of touched rows."""
        return np.arange(n_rows * self.d).reshape(n_rows, self.d).take(inv, axis=0).ravel()

    def residual(self, u_rows: np.ndarray, v_rows: np.ndarray) -> np.ndarray:
        """Rating minus prediction for each rating, given its user and item rows."""
        return self.r - np.einsum("ij,ij->i", u_rows, v_rows)

    def forward(self, u_touched: np.ndarray, v_rows: np.ndarray) -> _Pass:
        """The pass at touched user rows ``u_touched``; ``v_rows`` are the item rows per rating."""
        u_rows = u_touched.take(self.inv_u, axis=0)
        return _Pass(u_touched, u_rows, self.residual(u_rows, v_rows))

    def user_sums(self, terms: np.ndarray) -> np.ndarray:
        """Per-rating rows summed into the touched user rows (``uniq_u`` order)."""
        return self._scatter(self._flat_u, self.uniq_u.size, terms)

    def item_sums(self, terms: np.ndarray) -> np.ndarray:
        """Per-rating rows summed into the touched item rows (``uniq_v`` order)."""
        return self._scatter(self._flat_v, self.uniq_v.size, terms)

    def grads(self, at: _Pass, v_touched: np.ndarray, v_rows: np.ndarray, weight_decay: float):
        """Gradient of the batch loss for the touched user and item rows, from the pass ``at``.

        ``v_rows`` is ``v_touched`` gathered per rating (``inv_v``). The user gradient is
        ``at.grad`` itself when it was read, so the caller owns it.
        """
        m2r = -2.0 * at.resid[:, None]
        du = at.grad
        if du is None:
            du = self.user_sums(m2r * v_rows)
            if weight_decay > 0.0:
                du += 2.0 * weight_decay * at.rows
        dv = self.item_sums(m2r * at.u_rows)
        if weight_decay > 0.0:
            dv += 2.0 * weight_decay * v_touched
        return du, dv

    def _scatter(self, flat: np.ndarray, n_rows: int, terms: np.ndarray) -> np.ndarray:
        sums = np.bincount(flat, weights=terms.ravel(), minlength=n_rows * self.d)
        return sums.reshape(n_rows, self.d)


def _model_batch(model: FactorModel, batch) -> _Batch:
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
    return _Batch(ui, vi, r, model.d)


def _objective(resid: np.ndarray, weight_decay: float, *rows: np.ndarray) -> float:
    """Summed squared residual plus ``weight_decay`` times each row block's squared norm.

    The one factor objective: ``mf_loss``, the ascent of ``train_smf`` and
    the per-epoch trace all evaluate it.
    """
    loss = float(resid @ resid)
    if weight_decay > 0.0:
        loss += weight_decay * sum(float((m * m).sum()) for m in rows)
    return loss


def mf_loss(model: FactorModel, batch, weight_decay: float = 0.0) -> float:
    """Summed squared rating error over a batch of (user, item, rating) triples.

    With positive ``weight_decay`` the squared norms of the rows the batch
    touches (each row once) are added, scaled by the decay.
    """
    b = _model_batch(model, batch)
    uu = model.U[b.uniq_u]
    vv = model.V[b.uniq_v]
    return _objective(b.residual(uu[b.inv_u], vv[b.inv_v]), float(weight_decay), uu, vv)


def mf_grad(model: FactorModel, batch, weight_decay: float = 0.0) -> MfGradient:
    """Analytic gradient of :func:`mf_loss` for the touched U and V rows."""
    b = _model_batch(model, batch)
    vv = model.V[b.uniq_v]
    v_rows = vv[b.inv_v]
    du, dv = b.grads(b.forward(model.U[b.uniq_u], v_rows), vv, v_rows, weight_decay)
    return MfGradient(b.uniq_u, du, b.uniq_v, dv)


def _take_rows(vectors: np.ndarray, rows: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``vectors[rows]``, written into the front of the flat float64 ``buffer``.

    ``mode="clip"`` spares ``take`` a copy of its ``out``. It clips nothing: a
    :class:`DomainDataset` range-checks its index columns, ``_train`` sizes U and V from
    the dataset, and the mapping trainer checks its V against the target domain.
    """
    out = buffer[:rows.size * vectors.shape[1]].reshape(rows.size, vectors.shape[1])
    return vectors.take(rows, axis=0, out=out, mode="clip")


def _ascent_pair(b: _Batch, v_touched: np.ndarray, v_rows: np.ndarray, weight_decay: float):
    """Loss and gradient of one batch as functions of its touched user rows, and the kept pass.

    The item rows stay fixed; ``v_rows`` is ``v_touched`` gathered per rating. A point's
    loss and gradient read one :class:`_Pass` through :func:`memo_last_point`, so each
    ascent iterate costs one residual. ``kept()`` is the pass of the best point by
    :func:`find_delta`'s rule (the first loss read, then only a strictly higher one), so at
    most it and the newest pass are alive. ``r * (-2 v)`` rounds the same exact product as
    ``(-2 r) * v``, so hoisting ``-2 v`` keeps the gradient's bits.
    """
    m2v = -2.0 * v_rows
    pass_at = memo_last_point(lambda rows: b.forward(rows, v_rows))
    kept = None

    def loss_at(rows):
        nonlocal kept
        at = pass_at(rows)
        at.loss = _objective(at.resid, weight_decay, rows, v_touched)
        if kept is None or at.loss > kept.loss:
            kept = at
        return at.loss

    def grad_at(rows):
        at = pass_at(rows)
        if at.grad is None:
            at.grad = b.user_sums(at.resid[:, None] * m2v)
            if weight_decay > 0.0:
                at.grad += 2.0 * weight_decay * rows
        return at.grad

    return loss_at, grad_at, lambda: kept


def _sgd_step(U, V, ui, vi, r, config: TrainConfig, perturb: PerturbConfig) -> None:
    """One SGD update of the rows a batch touches, at the ascent's pick if ``perturb`` moves.

    The update reads the kept pass of :func:`_ascent_pair`, so a sharpness-aware step costs
    k+1 residuals and a plain step one.
    """
    b = _Batch(ui, vi, r, U.shape[1])
    wd = config.weight_decay
    u_base = U.take(b.uniq_u, axis=0)
    v_base = V.take(b.uniq_v, axis=0)
    v_rows = v_base.take(b.inv_v, axis=0)
    if perturb.k > 0 and perturb.rho > 0.0:
        loss_at, grad_at, kept = _ascent_pair(b, v_base, v_rows, wd)
        find_delta(loss_at, grad_at, u_base, perturb)
        at = kept()
    else:
        at = b.forward(u_base, v_rows)
    du, dv = b.grads(at, v_base, v_rows, wd)
    # the rows still hold u_base and v_base, so this is the in-place -= update
    du *= config.learning_rate
    dv *= config.learning_rate
    U[b.uniq_u] = np.subtract(u_base, du, out=du)
    V[b.uniq_v] = np.subtract(v_base, dv, out=dv)


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
