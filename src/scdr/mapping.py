"""Cross-domain mapping network and its trainers.

A two-layer perceptron (tanh hidden layer, linear output) translates a
user's source-domain embedding into the target-domain embedding space.
``emcdr_train`` fits it to the pretrained target embeddings of overlapping
users by mean squared error. ``scdr_train`` instead minimizes the withheld
target-domain rating error evaluated at each user's own worst-case
perturbation of the source embedding inside a ball, updating both the
network and (optionally) the overlapping users' source rows with the
gradient taken at the perturbed point. A cold-start user is scored by
mapping their source embedding through ``forward``.

Both trainers run one path, ``_train_mapping``: ``emcdr_train`` is its
zero-radius case with frozen embeddings and embedding supervision. It runs
in ``factorization``'s one epoch loop, as factor training does, and works
a mini-batch at a time: one ``find_delta`` ascent per batch solves every
user's inner problem at once, each row keeping its own highest-loss
iterate, and one kernel (``_kernel``) serves every pass over the rows. The
kernel runs the forward pass and the per-row losses at once, and the
backward only when a gradient is read: the input gradient alone for an
ascent step, every parameter gradient for the update, none for an ascent's
last iterate or an epoch loss. The analyses in ``scdr.analysis`` run
through the same kernel and ascent pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS, CdrScenario, number, read_artifact, write_artifact
from .errors import ValidationError
from .factorization import FactorModel, TrainConfig, _run_epochs, _take_rows
from .perturbation import PerturbConfig, find_delta, memo_last_point

MAPPING_CHECKPOINT_VERSION = 5
# (dtype, ndim) of each array after the checkpoint's header
_CHECKPOINT_ARRAYS = {"W1": ("f8", 2), "b1": ("f8", 1), "W2": ("f8", 2), "b2": ("f8", 1)}

SUPERVISION_RATING = "rating"
SUPERVISION_EMBEDDING = "embedding"


@dataclass
class MappingNet:
    """Two-layer perceptron: d -> hidden (tanh) -> d (linear)."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        h, d = self.W1.shape
        if self.b1.shape != (h,) or self.W2.shape != (d, h) or self.b2.shape != (d,):
            raise ValidationError("mapping-net parameter shapes are inconsistent")
        for p in (self.W1, self.b1, self.W2, self.b2):
            if not np.all(np.isfinite(p)):
                raise ValidationError("mapping-net parameters must be finite")

    @property
    def d(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]


class MappingGradient(NamedTuple):
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    u: np.ndarray


class MappingTrainResult(NamedTuple):
    net: MappingNet
    tuned_source_U: np.ndarray
    loss_trace: list[float]


@dataclass
class ScdrTrainConfig:
    """Hyperparameters of the bi-level mapping trainer.

    ``tune_source_embeddings`` ablates the joint minimization over the
    overlapping users' source rows; ``supervision`` picks the outer loss
    (withheld-rating reconstruction, or the baseline embedding MSE).
    """

    base: TrainConfig
    perturb: PerturbConfig
    tune_source_embeddings: bool = True
    supervision: str = SUPERVISION_RATING
    hidden: int = 50

    def __post_init__(self):
        if self.supervision not in (SUPERVISION_RATING, SUPERVISION_EMBEDDING):
            raise ValidationError(f"unknown supervision {self.supervision!r}")
        if self.hidden < 1:
            raise ValidationError(f"hidden width must be >= 1, got {self.hidden}")


def init_mapping_net(dim: int, hidden: int, rng: np.random.Generator) -> MappingNet:
    # N(0, 1/fan_in) weights keep the tanh layer in its linear regime initially
    w1 = rng.normal(0.0, 1.0 / math.sqrt(dim), (hidden, dim))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), (dim, hidden))
    return MappingNet(w1, np.zeros(hidden), w2, np.zeros(dim))


def _forward(net: MappingNet, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The net's tanh activations and outputs over the rows of ``u``, built in place."""
    a = u @ net.W1.T
    a += net.b1
    np.tanh(a, out=a)
    y = a @ net.W2.T
    y += net.b2
    return a, y


def forward(net: MappingNet, u: np.ndarray) -> np.ndarray:
    """Map a source embedding (or rows of them) into the target space."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != net.d:
        raise ValidationError(f"input dim {u.shape[-1]} does not match net dim {net.d}")
    return _forward(net, u)[1]


class _Pass:
    """One forward pass of the net over a block of rows, and its backward once read.

    ``loss`` is the per-row loss. ``grad_u`` is the input gradient alone, as
    the ball ascent reads it; ``grad`` adds the parameter gradients summed
    over rows, as a training step reads them. Each part of the backward
    runs on its first read, so a pass read only for its loss runs none. It
    reads the net's weights when it runs: read a gradient before they change.
    """

    def __init__(self, net: MappingNet, u: np.ndarray, a: np.ndarray, loss: np.ndarray,
                 output_grad):
        self._net, self._u, self._a = net, u, a
        self.loss = loss
        self._output_grad = output_grad

    @cached_property
    def _up(self) -> np.ndarray:
        up = self._output_grad()
        # it runs once: dropping it frees what the target kept for it (per-rating residuals)
        self._output_grad = None
        return up

    @cached_property
    def _dz(self) -> np.ndarray:
        # the output gradient first, so that its temporaries are gone before slope exists
        dz = self._up @ self._net.W2
        # tanh's derivative 1 - a * a, in a new array: the full gradient reads a itself
        slope = self._a * self._a
        np.subtract(1.0, slope, out=slope)
        dz *= slope
        return dz

    @cached_property
    def grad_u(self) -> np.ndarray:
        return self._dz @ self._net.W1

    @cached_property
    def grad(self) -> MappingGradient:
        up, dz = self._up, self._dz
        return MappingGradient(dz.T @ self._u, np.add.reduce(dz), up.T @ self._a,
                               np.add.reduce(up), self.grad_u)


def _kernel(net: MappingNet, u: np.ndarray, target) -> _Pass:
    """The net's one loss/gradient kernel, over the rows of ``u``.

    ``target`` maps the outputs to per-row losses and a callable giving
    their gradient at the output. The forward pass and the losses run here;
    the returned pass runs the backward when a gradient is read. Training,
    the ball ascent, the attack and sharpness probes and ``mapping_backward``
    all run through it.
    """
    a, y = _forward(net, u)
    return _Pass(net, u, a, *target(y))


def mapping_backward(net: MappingNet, u: np.ndarray, upstream: np.ndarray) -> MappingGradient:
    """Exact backprop through the net given the loss gradient at its output.

    Returns gradients for (W1, b1, W2, b2) and for the input ``u`` itself,
    which the joint trainer needs to tune source embeddings. This is the
    one-row view of the kernel that trains.
    """
    u = np.asarray(u, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if u.shape != (net.d,):
        raise ValidationError(f"u must have shape ({net.d},), got {u.shape}")
    if upstream.shape != (net.d,):
        raise ValidationError(f"upstream must have shape ({net.d},), got {upstream.shape}")
    *params, du = _kernel(net, u[None], lambda y: (y @ upstream, lambda: upstream[None])).grad
    return MappingGradient(*params, du[0])


def _embedding_target(targets: np.ndarray):
    """Per-component MSE of each row to its own target embedding."""
    inv_d = 1.0 / targets.shape[1]

    def at(y):
        diff = y - targets
        return inv_d * np.einsum("ij,ij->i", diff, diff), lambda: (2.0 * inv_d) * diff

    return at


def _user_blocks(counts: np.ndarray):
    """The flat layout's user-aligned blocks, as (user slice, interaction slice) pairs.

    Row ``i`` owns the next ``counts[i]`` interactions. A block holds whole
    users and at most ``CHUNK_ROWS`` interactions; a user with more is a
    block by itself.
    """
    ends = np.cumsum(counts)
    user = start = 0
    while user < counts.size:
        stop = max(int(np.searchsorted(ends, start + CHUNK_ROWS, "right")), user + 1)
        end = int(ends[stop - 1])
        yield slice(user, stop), slice(start, end)
        user, start = stop, end


def _rating_predictions(vectors: np.ndarray, counts: np.ndarray, y: np.ndarray,
                        items: np.ndarray) -> np.ndarray:
    """Predicted rating of each interaction: its item vector dotted with its row's output.

    Row ``i`` of ``y`` owns the next ``counts[i]`` interactions, whose item
    vectors ``vectors[items]`` are gathered one block at a time.
    """
    preds = np.empty(int(counts.sum()))
    for rows, span in _user_blocks(counts):
        owner = np.repeat(y[rows], counts[rows], axis=0)
        preds[span] = np.einsum("ij,ij->i", vectors[items[span]], owner)
    return preds


def _rating_target(vectors: np.ndarray, ratings: np.ndarray, counts: np.ndarray,
                   items: np.ndarray | None = None, scratch: np.ndarray | None = None):
    """Summed squared rating error of each row over its own interactions.

    Row ``i`` owns the next ``counts[i]`` entries of ``ratings``, whose item
    vectors are ``vectors[items]`` (the rows of ``vectors`` when ``items``
    is None); every count is positive, so no segment is empty. Each pass
    works one user-aligned block at a time and keeps the block's residuals
    for the gradient, which sums item vectors times residuals over
    feature-major (d, ratings) blocks, so that each sum runs along a
    contiguous axis: a batch's vectors are transposed once here, the flat
    layout's gathered per block from ``vectors.T``. The products and each
    segment's summation order, and so the bits, are the row-major form's.

    A flat float64 ``scratch``, when given, holds those copies instead of
    fresh arrays: the transposed vectors, or each block's gathered rows in
    turn, whose ``items`` must then index rows of ``vectors``.
    """
    if items is not None:
        vectors_t = None
    elif scratch is None:
        vectors_t = np.ascontiguousarray(vectors.T)
    else:
        vectors_t = scratch[:vectors.size].reshape(vectors.shape[::-1])
        np.copyto(vectors_t, vectors.T)
    blocks = []
    for rows, span in _user_blocks(counts):
        c = counts[rows]
        blocks.append((rows, span, np.cumsum(c) - c, c))

    def gathered(span):
        if items is None:
            return vectors[span]
        if scratch is None:
            return vectors[items[span]]
        return _take_rows(vectors, items[span], scratch)

    def at(y):
        loss = np.empty(counts.size)
        residuals = []
        for rows, span, starts, c in blocks:
            # row-major: other forms of this dot product round differently
            res = ratings[span] - np.einsum("ij,ij->i", gathered(span),
                                            np.repeat(y[rows], c, axis=0))
            np.add.reduceat(res * res, starts, out=loss[rows])
            residuals.append(res)

        def output_grad():
            grad = np.empty_like(y)
            for (rows, span, starts, _), res in zip(blocks, residuals):
                v_t = (vectors_t[:, span] if items is None
                       else np.take(vectors.T, items[span], axis=1))
                np.add.reduceat(np.multiply(v_t, res), starts, axis=1, out=grad.T[:, rows])
            grad *= -2.0
            return grad

        return loss, output_grad

    return at


class _WorstCase:
    """``find_delta``'s loss/input-gradient pair over a block of rows.

    Both read one memoized kernel pass per point. ``loss_at`` returns the
    summed loss and keeps each row's best iterate in ``point``: the origin
    counts, and a row moves only to a strictly higher loss of its own. Rows
    do not interact, so each row ends at its user's own worst case.
    """

    def __init__(self, net: MappingNet, target):
        self._at = memo_last_point(lambda u: _kernel(net, u, target))
        self.point = self.loss = None

    def loss_at(self, u: np.ndarray) -> float:
        loss = self._at(u).loss
        if self.point is None:
            self.point, self.loss = u, loss
        else:
            higher = loss > self.loss
            self.point = np.where(higher[:, None], u, self.point)
            self.loss = np.where(higher, loss, self.loss)
        return float(loss.sum())

    def grad_at(self, u: np.ndarray) -> np.ndarray:
        return self._at(u).grad_u


def _worst_case(net: MappingNet, target, origin: np.ndarray, perturb: PerturbConfig) -> np.ndarray:
    """Each row's highest-loss ascent iterate, from one ``find_delta`` call."""
    pair = _WorstCase(net, target)
    find_delta(pair.loss_at, pair.grad_at, origin, perturb)
    return pair.point


def _gather_supervision(scenario: CdrScenario, target_model: FactorModel, supervision: str,
                        batch_size: int):
    """Train users' supervision, laid out once.

    Embedding supervision is an (n, d) block of target embeddings. Rating
    supervision is ``DomainDataset.user_interactions`` of the train users.
    Returns ``(batch, everyone)``. ``batch(sel)`` gives, for at most
    ``batch_size`` train-user indices ``sel``, the kernel target of those
    rows and the divisor of their summed loss (1 for the embedding sum, the
    pair count for the rating mean); a rating batch gathers its ratings and
    item vectors once. ``everyone`` is that pair over all train users, which
    gathers a block at a time.

    The item vectors go into two buffers allocated here, once per training:
    fresh arrays this large would be mapped anew by malloc at every batch and
    block. So a batch's target is good until the next batch or ``everyone`` pass.
    """
    targets = np.array([t for _, t in scenario.train_pairs])
    if supervision == SUPERVISION_EMBEDDING:
        U = target_model.U[targets]
        return lambda sel: (_embedding_target(U[sel]), 1), (_embedding_target(U), 1)
    items, ratings, counts = scenario.target.user_interactions(targets)
    if not counts.all():
        t = targets[counts.argmin()]
        raise ValidationError(f"train user {scenario.target.users[t]} has no target interactions")
    V = target_model.V
    # the target domain range-checks its item column, so this makes every gather exact
    if V.shape[0] != scenario.target.n_items:
        raise ValidationError(f"target model has {V.shape[0]} item rows, "
                              f"the target domain {scenario.target.n_items} items")
    # a batch's ratings, or one block of the flat layout's (a user above CHUNK_ROWS alone)
    rows = max(int(np.sort(counts)[-batch_size:].sum()),
               min(int(counts.sum()), max(CHUNK_ROWS, int(counts.max()))))
    gathered, transposed = np.empty(rows * V.shape[1]), np.empty(rows * V.shape[1])

    def batch(sel):
        b_items, b_ratings, c = scenario.target.user_interactions(targets[sel])
        return (_rating_target(_take_rows(V, b_items, gathered), b_ratings, c, scratch=transposed),
                int(c.sum()))

    return batch, (_rating_target(V, ratings, counts, items, scratch=gathered), int(counts.sum()))


def _train_mapping(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
                   config: ScdrTrainConfig) -> MappingTrainResult:
    if source_model.d != target_model.d:
        raise ValidationError(
            f"factor models disagree on latent dim: {source_model.d} vs {target_model.d}"
        )
    if not scenario.train_pairs:
        raise ValidationError("mapping-train split is empty")
    base, perturb = config.base, config.perturb
    rng = np.random.default_rng(base.seed)
    net = init_mapping_net(source_model.d, config.hidden, rng)
    u_src = source_model.U.copy()
    src_rows = np.array([s for s, _ in scenario.train_pairs])
    batch, (everyone, total) = _gather_supervision(scenario, target_model,
                                                    config.supervision, base.batch_size)

    # The embedding objective is the literal sum over users of the
    # per-component MSE; the rating objective is the mean over observed
    # (user, item) pairs. Gradient scaling matches in each case.
    def step(sel):
        rows = src_rows[sel]
        target, weight = batch(sel)
        u_eval = u_src[rows]
        if perturb.k > 0 and perturb.rho > 0.0:
            u_eval = _worst_case(net, target, u_eval, perturb)
        g = _kernel(net, u_eval, target).grad
        # synchronous update: all gradients were taken at pre-update
        # parameters; train rows are distinct (the scenario's partition)
        scale = base.learning_rate / weight
        for param, grad in zip((net.W1, net.b1, net.W2, net.b2), g):
            param -= scale * grad
        if config.tune_source_embeddings:
            u_src[rows] -= scale * g.u

    def epoch_loss():
        return float(_kernel(net, u_src[src_rows], everyone).loss.sum()) / total

    trace = _run_epochs(src_rows.size, base, rng, step, epoch_loss, "net")
    return MappingTrainResult(net, u_src, trace)


def emcdr_train(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
                config: TrainConfig, hidden: int = 50) -> MappingTrainResult:
    """Baseline mapping trainer: ``scdr_train`` at zero radius, with frozen
    embeddings and embedding supervision, so MSE between f(u_source) and the
    pretrained target embedding over mapping-train users; the returned
    source matrix is an untouched copy."""
    return _train_mapping(scenario, source_model, target_model, ScdrTrainConfig(
        base=config, perturb=PerturbConfig(rho=0.0, k=0), tune_source_embeddings=False,
        supervision=SUPERVISION_EMBEDDING, hidden=hidden))


def scdr_train(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
               config: ScdrTrainConfig) -> MappingTrainResult:
    """Bi-level mapping trainer.

    Per mini-batch of mapping-train users: find each user's ball-constrained
    worst-case perturbation (one batched ascent, each row keeping its own
    best iterate), evaluate the outer loss there, backpropagate through the
    net, and update the net and (when enabled) the unperturbed source rows
    with gradients taken at the perturbed point (the Hessian coupling
    through the maximizer is dropped).

    Returns the net, the source matrix with tuned train-user rows, and the
    per-epoch unperturbed loss trace. Target rows of cold-start test users
    are never read.
    """
    return _train_mapping(scenario, source_model, target_model, config)


def save_mapping(net: MappingNet, path, config: dict | None = None,
                 inputs: dict | None = None) -> None:
    """Write a header with ``inputs`` digests, then W1, b1, W2 and b2."""
    write_artifact(path, "mapping_net", MAPPING_CHECKPOINT_VERSION, {
        "d": net.d,
        "hidden": net.hidden,
        "activation": "tanh",
        "config": config,
    }, inputs=inputs, arrays={"W1": net.W1, "b1": net.b1, "W2": net.W2, "b2": net.b2})


def load_mapping(path, inputs: dict | None = None) -> tuple[MappingNet, dict, str]:
    """A checkpoint's net, header and sha256; one trained on other ``inputs`` raises."""
    with read_artifact(path, "mapping_net", MAPPING_CHECKPOINT_VERSION, "mapping checkpoint",
                       inputs, arrays=_CHECKPOINT_ARRAYS) as (doc, digest):
        if doc["activation"] != "tanh":
            raise ValidationError(f"unsupported activation {doc['activation']!r} in {path}")
        d, hidden = (number(int, doc[k], k) for k in ("d", "hidden"))
        try:
            net = MappingNet(*(doc.pop(k) for k in ("W1", "b1", "W2", "b2")))
        except ValidationError as exc:
            raise ValidationError(f"malformed mapping checkpoint {path}: {exc}") from None
        if net.d != d or net.hidden != hidden:
            raise ValidationError(f"checkpoint shape metadata disagrees with payload: {path}")
    return net, doc, digest
