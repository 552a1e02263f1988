"""Cold-start evaluation, adversarial sweeps, and landscape diagnostics.

All four operations score a trained mapping against the withheld
target-domain interactions of the scenario's cold-start test users, and all
are deterministic functions of their inputs and seeds. They read those
interactions in one flat, user-major layout
(``DomainDataset.user_interactions``, the layout the rating-supervised
trainer reads) and take losses and input gradients from the mapping's
training kernel: the attack from one batched kernel pass, the sharpness
probe from one batched ball ascent over all test users.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import CHUNK_ROWS, CdrScenario, write_artifact, write_atomic
from .errors import ValidationError
from .factorization import FactorModel
from .mapping import MappingNet, _kernel, _rating_predictions, _rating_target, _WorstCase, forward
from .perturbation import PerturbConfig, find_delta

# Reports record the sha256 of the mapping they scored under ``inputs`` from version 2
# (attack, sharpness) and 3 (eval); eval version 1 held the seed in a one-entry list.
REPORT_VERSION = 2
EVAL_REPORT_VERSION = 3


@dataclass
class EvalReport:
    """Pooled MAE/RMSE over all withheld test interactions, and the scenario seed."""

    mae: float
    rmse: float
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("report requires at least one scored interaction")


@dataclass
class LandscapeSpec:
    """Axis ranges, lattice resolution, and sampling for the 2-D loss grid."""

    zeta_min: float = -1.0
    zeta_max: float = 1.0
    gamma_min: float = -1.0
    gamma_max: float = 1.0
    resolution: int = 21
    n_samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        for lo, hi, name in ((self.zeta_min, self.zeta_max, "zeta"),
                             (self.gamma_min, self.gamma_max, "gamma")):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValidationError(f"{name} range must be finite with min < max")
        if self.resolution < 2:
            raise ValidationError("resolution must be >= 2 points per axis")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")


@dataclass
class LandscapeGrid:
    """Mean absolute error over a (zeta, gamma) lattice of embedding displacements."""

    zeta_axis: np.ndarray
    gamma_axis: np.ndarray
    loss: np.ndarray
    seed: int
    n_samples: int

    def __post_init__(self):
        self.zeta_axis = np.asarray(self.zeta_axis, dtype=np.float64)
        self.gamma_axis = np.asarray(self.gamma_axis, dtype=np.float64)
        self.loss = np.asarray(self.loss, dtype=np.float64)
        if self.loss.shape != (self.zeta_axis.size, self.gamma_axis.size):
            raise ValidationError("loss matrix shape must match the axes")
        if np.any(np.diff(self.zeta_axis) <= 0) or np.any(np.diff(self.gamma_axis) <= 0):
            raise ValidationError("axes must be strictly ascending")
        if not np.all(np.isfinite(self.loss)):
            raise ValidationError("grid losses must be finite")


@dataclass
class SharpnessReport:
    """Mean ratio of prediction change to perturbation norm under PGD maximizers."""

    lipschitz_estimate: float
    rho: float
    k: int
    n_users: int
    n_skipped: int

    def __post_init__(self):
        if self.lipschitz_estimate < 0.0:
            raise ValidationError("estimate must be >= 0")


def _withheld(scenario: CdrScenario):
    """The test users' withheld interactions, flat and user-major."""
    if not scenario.test_pairs:
        raise ValidationError("test split is empty")
    src, targets = np.array(scenario.test_pairs).T
    items, ratings, counts = scenario.target.user_interactions(targets)
    if not counts.all():
        t = targets[counts.argmin()]
        raise ValidationError(
            f"test user {scenario.target.users[t]} has no withheld target interactions"
        )
    return src, items, ratings, counts


def _report_from_residuals(resid: np.ndarray, seed: int) -> EvalReport:
    mae = float(np.mean(np.abs(resid)))
    rmse = float(math.sqrt(float(resid @ resid) / resid.size))
    return EvalReport(mae, rmse, int(resid.size), seed)


def evaluate(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
             scenario: CdrScenario) -> EvalReport:
    """Score every withheld interaction of every cold-start test user.

    Each test user's target embedding is inferred through the mapping net;
    MAE and RMSE are pooled over all withheld (user, item) pairs.
    """
    src, items, ratings, counts = _withheld(scenario)
    preds = _rating_predictions(target_model.V, counts, forward(net, source_model.U[src]), items)
    return _report_from_residuals(ratings - preds, scenario.seed)


def fgsm_sweep(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
               scenario: CdrScenario, epsilons) -> list[tuple[float, EvalReport]]:
    """White-box FGSM attack on test users' source embeddings at each rate.

    Each embedding moves by the rate times the sign of the gradient of its
    user's withheld rating loss taken through the composed map. The rate-0
    entry scores the clean embeddings and therefore equals :func:`evaluate`
    exactly.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValidationError("epsilons must be non-empty")
    if not all(math.isfinite(e) and e >= 0 for e in eps):
        raise ValidationError("epsilons must be finite and non-negative")
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilons must be sorted ascending")
    src, items, ratings, counts = _withheld(scenario)
    V = target_model.V
    clean = source_model.U[src]
    sign = np.sign(_kernel(net, clean, _rating_target(V, ratings, counts, items)).grad_u)
    out = []
    for e in eps:
        attacked = clean + e * sign if e else clean
        preds = _rating_predictions(V, counts, forward(net, attacked), items)
        out.append((e, _report_from_residuals(ratings - preds, scenario.seed)))
    return out


def landscape_grid(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
                   scenario: CdrScenario, spec: LandscapeSpec) -> LandscapeGrid:
    """Mean absolute error over a 2-D lattice of source-embedding displacements.

    Two Gaussian directions are drawn once per grid from the seed and
    filter-normalized per sample (scaled to each sampled user's embedding
    norm); each lattice point averages |R - <f(u + gamma*d1 + zeta*d2), v>|
    over the same seeded sample of withheld test pairs.
    """
    src, pool_items, pool_ratings, counts = _withheld(scenario)
    pool_users = np.repeat(src, counts)
    available = pool_users.size

    rng = np.random.default_rng(spec.seed)
    g1 = rng.standard_normal(source_model.d)
    g2 = rng.standard_normal(source_model.d)
    n = spec.n_samples if spec.n_samples is not None else min(256, available)
    if n > available:
        raise ValidationError(f"requested {n} samples but only {available} test pairs exist")
    sel = rng.choice(available, size=n, replace=False)

    u_sel = source_model.U[pool_users[sel]]
    v_sel = target_model.V[pool_items[sel]]
    r_sel = pool_ratings[sel]
    norms = np.linalg.norm(u_sel, axis=1, keepdims=True)
    d1 = (g1 / np.linalg.norm(g1))[None, :] * norms
    d2 = (g2 / np.linalg.norm(g2))[None, :] * norms

    # the output first, so that a lattice too large to hold fails before any work
    loss = np.empty((spec.resolution, spec.resolution))
    zeta_axis = np.linspace(spec.zeta_min, spec.zeta_max, spec.resolution)
    gamma_axis = np.linspace(spec.gamma_min, spec.gamma_max, spec.resolution)
    # a lattice row's gamma axis in sub-blocks of at most CHUNK_ROWS sample rows (one gamma
    # when n exceeds it); each (n, d) slice keeps its own matmul, so the bits do not change
    per_block = max(1, CHUNK_ROWS // n)
    for zi, zeta in enumerate(zeta_axis):
        for start in range(0, gamma_axis.size, per_block):
            gammas = slice(start, start + per_block)
            displaced = u_sel + gamma_axis[gammas, None, None] * d1 + zeta * d2
            preds = np.einsum("gij,ij->gi", forward(net, displaced), v_sel)
            loss[zi, gammas] = np.mean(np.abs(r_sel - preds), axis=1)
    return LandscapeGrid(zeta_axis, gamma_axis, loss, spec.seed, int(n))


def lipschitz_estimate(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
                       scenario: CdrScenario, perturb: PerturbConfig) -> SharpnessReport:
    """Landscape sharpness proxy from the PGD maximizers of the test users.

    For each test user the ball-constrained worst-case perturbation of the
    source embedding is found against that user's withheld rating loss (one
    batched ascent, each user keeping their own highest-loss iterate); the
    reported value is the mean over users of
    |prediction(u) - prediction(u + delta)| / ||delta||, predictions being
    each user's mean predicted rating over their withheld items. Users with
    a numerically null maximizer are skipped.
    """
    if perturb.rho <= 0.0:
        raise ValidationError("lipschitz estimation requires rho > 0")
    if perturb.k < 1:
        raise ValidationError("lipschitz estimation requires k >= 1")
    src, items, ratings, counts = _withheld(scenario)
    if not net.W1.any() or not net.W2.any():
        # constant predictor: outputs do not depend on the input, so the
        # ratio is exactly 0 even though every ascent stalls at the origin
        return SharpnessReport(0.0, perturb.rho, perturb.k, src.size, 0)
    V = target_model.V
    origin = source_model.U[src]
    pair = _WorstCase(net, _rating_target(V, ratings, counts, items))
    # callables defined here, so that a tracer wrapping find_delta credits
    # their time to this module
    find_delta(lambda u: pair.loss_at(u), lambda u: pair.grad_at(u), origin, perturb)
    delta_norm = np.linalg.norm(pair.point - origin, axis=1)
    moved = delta_norm >= 1e-12
    if not moved.any():
        raise ValidationError("every test user produced a degenerate perturbation")
    starts = np.cumsum(counts) - counts

    def mean_prediction(u):
        preds = _rating_predictions(V, counts, forward(net, u), items)
        return np.add.reduceat(preds, starts) / counts

    change = np.abs(mean_prediction(origin) - mean_prediction(pair.point))
    ratios = change[moved] / delta_norm[moved]
    return SharpnessReport(
        lipschitz_estimate=float(np.mean(ratios)),
        rho=perturb.rho,
        k=perturb.k,
        n_users=int(moved.sum()),
        n_skipped=int(src.size - moved.sum()),
    )


def save_eval_report(report: EvalReport, path, inputs: dict | None = None) -> None:
    write_artifact(path, "eval_report", EVAL_REPORT_VERSION, asdict(report), indent=2,
                   inputs=inputs)


def save_attack_report(entries: list[tuple[float, EvalReport]], path,
                       inputs: dict | None = None) -> None:
    write_artifact(path, "fgsm_attack_report", REPORT_VERSION, {"entries": [
        {"epsilon": e, "mae": r.mae, "rmse": r.rmse, "n": r.n} for e, r in entries
    ]}, indent=2, inputs=inputs)


def save_landscape(grid: LandscapeGrid, path) -> None:
    """Delimited text export, row-major in zeta then gamma, exact float text."""
    lines = ["zeta,gamma,loss"]
    cells = grid.loss.tolist()
    for zi, zeta in enumerate(grid.zeta_axis.tolist()):
        for gi, gamma in enumerate(grid.gamma_axis.tolist()):
            lines.append(f"{zeta!r},{gamma!r},{cells[zi][gi]!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def save_sharpness_report(report: SharpnessReport, path, inputs: dict | None = None) -> None:
    write_artifact(path, "sharpness_report", REPORT_VERSION, asdict(report), indent=2,
                   inputs=inputs)
