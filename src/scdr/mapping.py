"""Cross-domain mapping network and its trainers.

A two-layer perceptron (tanh hidden layer, linear output) translates a
user's source-domain embedding into the target-domain embedding space.
``emcdr_train`` fits it to the pretrained target embeddings of overlapping
users by mean squared error. ``scdr_train`` instead minimizes the withheld
target-domain rating error evaluated at ball-constrained worst-case
perturbations of the source embeddings, updating both the network and
(optionally) the overlapping users' source rows with the gradient taken at
the perturbed point. Cold-start users are scored through
``infer_cold_start``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import CdrScenario, json_document
from .errors import DivergenceError, ValidationError
from .factorization import FactorModel, TrainConfig
from .perturbation import PerturbConfig, find_delta, memo_last_point

MAPPING_CHECKPOINT_VERSION = 1

SUPERVISION_RATING = "rating"
SUPERVISION_EMBEDDING = "embedding"


@dataclass
class MappingNet:
    """Two-layer perceptron: d -> hidden (tanh) -> d (linear)."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.activation != "tanh":
            raise ValidationError(f"unsupported activation {self.activation!r}")
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
    loss_trace: list[float]


class ScdrTrainResult(NamedTuple):
    net: MappingNet
    tuned_source_U: np.ndarray
    loss_trace: list[float]


@dataclass
class ScdrTrainConfig:
    """Hyperparameters of the bi-level mapping trainer.

    ``tune_source_embeddings`` ablates the joint minimization over the
    overlapping users' source rows; ``supervision`` picks the outer loss
    (withheld-rating reconstruction, or the baseline embedding MSE).
    ``perturb_output_space`` is a variant reading of the inner problem that
    perturbs the mapped embedding f(u) instead of the input u; it is off by
    default and only meaningful under rating supervision.
    """

    base: TrainConfig
    perturb: PerturbConfig
    tune_source_embeddings: bool = True
    supervision: str = SUPERVISION_RATING
    hidden: int = 50
    perturb_output_space: bool = False

    def __post_init__(self):
        if self.supervision not in (SUPERVISION_RATING, SUPERVISION_EMBEDDING):
            raise ValidationError(f"unknown supervision {self.supervision!r}")
        if self.hidden < 1:
            raise ValidationError(f"hidden width must be >= 1, got {self.hidden}")
        if self.perturb_output_space and self.supervision != SUPERVISION_RATING:
            raise ValidationError("output-space perturbation requires rating supervision")


def init_mapping_net(dim: int, hidden: int, rng: np.random.Generator) -> MappingNet:
    # N(0, 1/fan_in) weights keep the tanh layer in its linear regime initially
    w1 = rng.normal(0.0, 1.0 / math.sqrt(dim), (hidden, dim))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), (dim, hidden))
    return MappingNet(w1, np.zeros(hidden), w2, np.zeros(dim))


def forward(net: MappingNet, u: np.ndarray) -> np.ndarray:
    """Map a source embedding (or rows of them) into the target space."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != net.d:
        raise ValidationError(f"input dim {u.shape[-1]} does not match net dim {net.d}")
    hidden = np.tanh(u @ net.W1.T + net.b1)
    return hidden @ net.W2.T + net.b2


def _forward_cache(net: MappingNet, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.tanh(net.W1 @ u + net.b1)
    return net.W2 @ a + net.b2, a


def _backward_cached(net: MappingNet, u: np.ndarray, a: np.ndarray,
                     upstream: np.ndarray) -> MappingGradient:
    dW2 = np.outer(upstream, a)
    dz = (net.W2.T @ upstream) * (1.0 - a * a)
    dW1 = np.outer(dz, u)
    du = net.W1.T @ dz
    return MappingGradient(dW1, dz, dW2, upstream.copy(), du)


def mapping_backward(net: MappingNet, u: np.ndarray, upstream: np.ndarray) -> MappingGradient:
    """Exact backprop through the net given the loss gradient at its output.

    Returns gradients for (W1, b1, W2, b2) and for the input ``u`` itself,
    which the joint trainer needs to tune source embeddings.
    """
    u = np.asarray(u, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if u.shape != (net.d,):
        raise ValidationError(f"u must have shape ({net.d},), got {u.shape}")
    if upstream.shape != (net.d,):
        raise ValidationError(f"upstream must have shape ({net.d},), got {upstream.shape}")
    _, a = _forward_cache(net, u)
    return _backward_cached(net, u, a, upstream)


def _rating_closures(net: MappingNet, v_rows: np.ndarray, ratings: np.ndarray):
    """Loss and input-gradient of the summed squared rating error at f(u).

    Both read one memoized forward pass per point.
    """

    @memo_last_point
    def forward_at(u):
        y, a = _forward_cache(net, u)
        return ratings - v_rows @ y, a

    def loss_at(u):
        res, _ = forward_at(u)
        return float(res @ res)

    def grad_at(u):
        res, a = forward_at(u)
        upstream = -2.0 * (v_rows.T @ res)
        dz = (net.W2.T @ upstream) * (1.0 - a * a)
        return net.W1.T @ dz

    return loss_at, grad_at


def _embedding_closures(net: MappingNet, target: np.ndarray):
    """Loss and input-gradient of the per-component MSE to a target embedding.

    Both read one memoized forward pass per point.
    """
    inv_d = 1.0 / net.d

    @memo_last_point
    def forward_at(u):
        y, a = _forward_cache(net, u)
        return y - target, a

    def loss_at(u):
        diff, _ = forward_at(u)
        return inv_d * float(diff @ diff)

    def grad_at(u):
        diff, a = forward_at(u)
        upstream = (2.0 * inv_d) * diff
        dz = (net.W2.T @ upstream) * (1.0 - a * a)
        return net.W1.T @ dz

    return loss_at, grad_at


def scdr_loss(net: MappingNet, u_src: np.ndarray, target_items, perturb: PerturbConfig) -> float:
    """Worst-case rating loss of one user inside the perturbation ball.

    ``target_items`` lists the user's observed target interactions as
    (item vector, rating) pairs. The ball maximizer is approximated by
    projected sign ascent over the source embedding; with k = 0 this is
    exactly the unperturbed rating loss.
    """
    target_items = list(target_items)
    if not target_items:
        raise ValidationError("target_items must be non-empty")
    v_rows = np.asarray([np.asarray(v, dtype=np.float64) for v, _ in target_items])
    ratings = np.asarray([float(r) for _, r in target_items])
    loss_at, grad_at = _rating_closures(net, v_rows, ratings)
    return find_delta(loss_at, grad_at, np.asarray(u_src, dtype=np.float64), perturb).achieved_loss


def _gather_supervision(scenario: CdrScenario, target_model: FactorModel, supervision: str):
    """Per train-user supervision payloads, frozen snapshots of target-side data."""
    if supervision == SUPERVISION_EMBEDDING:
        return [target_model.U[t].copy() for _, t in scenario.train_pairs]
    payload = []
    for _, t in scenario.train_pairs:
        items, ratings = scenario.target.user_interactions(t)
        if items.size == 0:
            raise ValidationError(f"train user {scenario.target.users[t]} has no target interactions")
        payload.append((target_model.V[items].copy(), ratings.copy()))
    return payload


# overflow on the way to the divergence guard is expected, not a warning
@np.errstate(over="ignore", invalid="ignore")
def _train_mapping(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
                   base: TrainConfig, perturb: PerturbConfig | None, tune_source: bool,
                   supervision: str, hidden: int, perturb_output: bool = False):
    if source_model.d != target_model.d:
        raise ValidationError(
            f"factor models disagree on latent dim: {source_model.d} vs {target_model.d}"
        )
    if not scenario.train_pairs:
        raise ValidationError("mapping-train split is empty")
    d = source_model.d
    rng = np.random.default_rng(base.seed)
    net = init_mapping_net(d, hidden, rng)
    u_src = source_model.U.copy()
    src_rows = [s for s, _ in scenario.train_pairs]
    payload = _gather_supervision(scenario, target_model, supervision)
    n_train = len(src_rows)
    embedding = supervision == SUPERVISION_EMBEDDING
    use_pert = perturb is not None and perturb.k > 0 and perturb.rho > 0.0
    inv_d = 1.0 / d

    # The embedding objective is the literal sum over users of the
    # per-component MSE; the rating objective is the mean over observed
    # (user, item) pairs. Gradient scaling matches in each case.
    def epoch_loss() -> float:
        total, pairs = 0.0, 0
        for j in range(n_train):
            y, _ = _forward_cache(net, u_src[src_rows[j]])
            if embedding:
                diff = y - payload[j]
                total += inv_d * float(diff @ diff)
            else:
                v_rows, ratings = payload[j]
                res = ratings - v_rows @ y
                total += float(res @ res)
                pairs += ratings.size
        return total if embedding else total / pairs

    trace: list[float] = []
    for epoch in range(base.epochs):
        perm = rng.permutation(n_train)
        for start in range(0, n_train, base.batch_size):
            sel = perm[start:start + base.batch_size]
            dW1 = np.zeros_like(net.W1)
            db1 = np.zeros_like(net.b1)
            dW2 = np.zeros_like(net.W2)
            db2 = np.zeros_like(net.b2)
            du_updates: list[tuple[int, np.ndarray]] = []
            pairs = 0
            for j in sel.tolist():
                u0 = u_src[src_rows[j]]
                if embedding:
                    target = payload[j]
                    if use_pert:
                        loss_at, grad_at = _embedding_closures(net, target)
                        u_eval = u0 + find_delta(loss_at, grad_at, u0, perturb).delta
                    else:
                        u_eval = u0
                    y, a = _forward_cache(net, u_eval)
                    upstream = (2.0 * inv_d) * (y - target)
                else:
                    v_rows, ratings = payload[j]
                    if use_pert and perturb_output:
                        # variant: perturb the mapped embedding, not the input
                        u_eval = u0
                        y, a = _forward_cache(net, u_eval)

                        def loss_at(point):
                            res = ratings - v_rows @ point
                            return float(res @ res)

                        def grad_at(point):
                            return -2.0 * (v_rows.T @ (ratings - v_rows @ point))

                        y = y + find_delta(loss_at, grad_at, y, perturb).delta
                    else:
                        if use_pert:
                            loss_at, grad_at = _rating_closures(net, v_rows, ratings)
                            u_eval = u0 + find_delta(loss_at, grad_at, u0, perturb).delta
                        else:
                            u_eval = u0
                        y, a = _forward_cache(net, u_eval)
                    res = ratings - v_rows @ y
                    upstream = -2.0 * (v_rows.T @ res)
                    pairs += int(ratings.size)
                g = _backward_cached(net, u_eval, a, upstream)
                dW1 += g.W1
                db1 += g.b1
                dW2 += g.W2
                db2 += g.b2
                du_updates.append((src_rows[j], g.u))
            # synchronous update: all gradients were taken at pre-update parameters
            scale = base.learning_rate if embedding else base.learning_rate / pairs
            net.W1 -= scale * dW1
            net.b1 -= scale * db1
            net.W2 -= scale * dW2
            net.b2 -= scale * db2
            if tune_source:
                for row, du in du_updates:
                    u_src[row] -= scale * du
        loss = epoch_loss()
        if not math.isfinite(loss):
            raise DivergenceError(
                "mapping training loss became non-finite",
                epoch=epoch, learning_rate=base.learning_rate,
            )
        trace.append(loss)
    return net, u_src, trace


def emcdr_train(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
                config: TrainConfig, hidden: int = 50) -> MappingTrainResult:
    """Baseline mapping trainer: MSE between f(u_source) and the pretrained
    target embedding over mapping-train users, embeddings frozen."""
    net, _, trace = _train_mapping(
        scenario, source_model, target_model, config,
        perturb=None, tune_source=False, supervision=SUPERVISION_EMBEDDING, hidden=hidden,
    )
    return MappingTrainResult(net, trace)


def scdr_train(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
               config: ScdrTrainConfig) -> ScdrTrainResult:
    """Bi-level mapping trainer.

    Per mini-batch of mapping-train users: find each user's ball-constrained
    worst-case perturbation, evaluate the outer loss there, backpropagate
    through the net, and update the net and (when enabled) the unperturbed
    source rows with gradients taken at the perturbed point (the Hessian
    coupling through the maximizer is dropped).

    Returns the net, the source matrix with tuned train-user rows, and the
    per-epoch unperturbed loss trace. Target rows of cold-start test users
    are never read.
    """
    net, tuned, trace = _train_mapping(
        scenario, source_model, target_model, config.base,
        perturb=config.perturb, tune_source=config.tune_source_embeddings,
        supervision=config.supervision, hidden=config.hidden,
        perturb_output=config.perturb_output_space,
    )
    return ScdrTrainResult(net, tuned, trace)


def infer_cold_start(net: MappingNet, source_model: FactorModel, user_index: int) -> np.ndarray:
    """Target-space embedding for a user with no target history: f(u_source)."""
    if not 0 <= user_index < source_model.U.shape[0]:
        raise ValidationError(f"unknown user index {user_index}")
    return forward(net, source_model.U[user_index])


def save_mapping(net: MappingNet, path, config: dict | None = None,
                 tuned_users: list[str] | None = None,
                 tuned_vectors: np.ndarray | None = None) -> None:
    """Checkpoint a mapping net (and optional tuned source rows) as JSON."""
    if (tuned_users is None) != (tuned_vectors is None):
        raise ValidationError("tuned_users and tuned_vectors must be given together")
    doc = {
        "format_version": MAPPING_CHECKPOINT_VERSION,
        "kind": "mapping_net",
        "d": net.d,
        "hidden": net.hidden,
        "activation": net.activation,
        "W1": net.W1.tolist(),
        "b1": net.b1.tolist(),
        "W2": net.W2.tolist(),
        "b2": net.b2.tolist(),
        "config": config,
        "tuned_source": None if tuned_users is None else {
            "users": list(tuned_users),
            "vectors": np.asarray(tuned_vectors, dtype=np.float64).tolist(),
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_mapping(path) -> tuple[MappingNet, dict]:
    """Load a mapping checkpoint, returning the net and the full document."""
    with json_document(path, "mapping checkpoint") as doc:
        if doc.get("format_version") != MAPPING_CHECKPOINT_VERSION or doc.get("kind") != "mapping_net":
            raise ValidationError(f"not a mapping checkpoint: {path}")
        net = MappingNet(
            np.asarray(doc["W1"]), np.asarray(doc["b1"]),
            np.asarray(doc["W2"]), np.asarray(doc["b2"]),
            activation=doc.get("activation", "tanh"),
        )
        if net.d != doc["d"] or net.hidden != doc["hidden"]:
            raise ValidationError("checkpoint shape metadata disagrees with payload")
    return net, doc
