"""Cold-start evaluation, adversarial sweeps, and landscape diagnostics.

All four operations score a trained mapping against the withheld
target-domain interactions of the scenario's cold-start test users, and all
are deterministic functions of their inputs and seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import CdrScenario, write_atomic
from .errors import ValidationError
from .factorization import FactorModel
from .mapping import MappingNet, forward, mapping_backward
from .perturbation import PerturbConfig, fgsm_step, find_delta

REPORT_VERSION = 1


@dataclass
class EvalReport:
    """Pooled MAE/RMSE over all withheld test interactions."""

    mae: float
    rmse: float
    n: int
    per_seed: list[dict]

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


def _checked_withheld(scenario: CdrScenario):
    withheld = scenario.withheld_interactions()
    if not withheld:
        raise ValidationError("test split is empty")
    for s, t, items, _ in withheld:
        if items.size == 0:
            raise ValidationError(
                f"test user {scenario.target.users[t]} has no withheld target interactions"
            )
    return withheld


def _pooled_residuals(net: MappingNet, target_model: FactorModel, user_vectors, withheld) -> np.ndarray:
    residuals = []
    for (s, t, items, ratings), u in zip(withheld, user_vectors):
        preds = target_model.V[items] @ forward(net, u)
        residuals.append(ratings - preds)
    return np.concatenate(residuals)


def _report_from_residuals(resid: np.ndarray, seed: int) -> EvalReport:
    mae = float(np.mean(np.abs(resid)))
    rmse = float(math.sqrt(float(resid @ resid) / resid.size))
    return EvalReport(mae, rmse, int(resid.size),
                      per_seed=[{"seed": seed, "mae": mae, "rmse": rmse, "n": int(resid.size)}])


def evaluate(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
             scenario: CdrScenario) -> EvalReport:
    """Score every withheld interaction of every cold-start test user.

    Each test user's target embedding is inferred through the mapping net;
    MAE and RMSE are pooled over all withheld (user, item) pairs.
    """
    withheld = _checked_withheld(scenario)
    user_vectors = [source_model.U[s] for s, _, _, _ in withheld]
    resid = _pooled_residuals(net, target_model, user_vectors, withheld)
    return _report_from_residuals(resid, scenario.seed)


def _composed_input_gradient(net: MappingNet, u: np.ndarray, v_rows: np.ndarray,
                             ratings: np.ndarray) -> np.ndarray:
    res = ratings - v_rows @ forward(net, u)
    upstream = -2.0 * (v_rows.T @ res)
    return mapping_backward(net, u, upstream).u


def fgsm_sweep(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
               scenario: CdrScenario, epsilons) -> list[tuple[float, EvalReport]]:
    """White-box FGSM attack on test users' source embeddings at each rate.

    The sign direction comes from the gradient of each user's withheld
    rating loss taken through the composed map. The rate-0 entry scores the
    clean embeddings and therefore equals :func:`evaluate` exactly.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValidationError("epsilons must be non-empty")
    if any(e < 0 for e in eps):
        raise ValidationError("epsilons must be non-negative")
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilons must be sorted ascending")
    withheld = _checked_withheld(scenario)
    clean = [source_model.U[s] for s, _, _, _ in withheld]
    grads = [
        _composed_input_gradient(net, u, target_model.V[items], ratings)
        for (s, t, items, ratings), u in zip(withheld, clean)
    ]
    out = []
    for e in eps:
        attacked = [fgsm_step(u, g, e) for u, g in zip(clean, grads)]
        resid = _pooled_residuals(net, target_model, attacked, withheld)
        out.append((e, _report_from_residuals(resid, scenario.seed)))
    return out


def landscape_grid(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
                   scenario: CdrScenario, spec: LandscapeSpec) -> LandscapeGrid:
    """Mean absolute error over a 2-D lattice of source-embedding displacements.

    Two Gaussian directions are drawn once per grid from the seed and
    filter-normalized per sample (scaled to each sampled user's embedding
    norm); each lattice point averages |R - <f(u + gamma*d1 + zeta*d2), v>|
    over the same seeded sample of withheld test pairs.
    """
    withheld = _checked_withheld(scenario)
    src, items, ratings = [], [], []
    for s, t, it, rr in withheld:
        src.extend([s] * it.size)
        items.extend(it.tolist())
        ratings.extend(rr.tolist())
    pool_users = np.array(src, dtype=np.int64)
    pool_items = np.array(items, dtype=np.int64)
    pool_ratings = np.array(ratings, dtype=np.float64)
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

    zeta_axis = np.linspace(spec.zeta_min, spec.zeta_max, spec.resolution)
    gamma_axis = np.linspace(spec.gamma_min, spec.gamma_max, spec.resolution)
    loss = np.empty((zeta_axis.size, gamma_axis.size))
    for zi, zeta in enumerate(zeta_axis):
        for gi, gamma in enumerate(gamma_axis):
            displaced = u_sel + gamma * d1 + zeta * d2
            preds = np.einsum("ij,ij->i", forward(net, displaced), v_sel)
            loss[zi, gi] = float(np.mean(np.abs(r_sel - preds)))
    return LandscapeGrid(zeta_axis, gamma_axis, loss, spec.seed, int(n))


def lipschitz_estimate(net: MappingNet, source_model: FactorModel, target_model: FactorModel,
                       scenario: CdrScenario, perturb: PerturbConfig,
                       output: str = "rating") -> SharpnessReport:
    """Landscape sharpness proxy from the PGD maximizers of the test users.

    For each test user the ball-constrained worst-case perturbation of the
    source embedding is found against that user's withheld rating loss; the
    reported value is the mean over users of
    |prediction(u) - prediction(u + delta)| / ||delta||, predictions being
    each user's mean predicted rating over their withheld items. Users with
    a numerically null maximizer are skipped. ``output="embedding"`` is the
    variant reading that measures the L2 distance between the mapped
    embeddings instead of the rating change.
    """
    if output not in ("rating", "embedding"):
        raise ValidationError(f"unknown output reading {output!r}")
    if perturb.rho <= 0.0:
        raise ValidationError("lipschitz estimation requires rho > 0")
    if perturb.k < 1:
        raise ValidationError("lipschitz estimation requires k >= 1")
    withheld = _checked_withheld(scenario)
    if not net.W1.any() or not net.W2.any():
        # constant predictor: outputs do not depend on the input, so the
        # ratio is exactly 0 even though every ascent stalls at the origin
        return SharpnessReport(0.0, perturb.rho, perturb.k, len(withheld), 0)
    ratios = []
    skipped = 0
    for s, t, items, ratings in withheld:
        v_rows = target_model.V[items]
        u0 = source_model.U[s]

        def loss_at(u):
            res = ratings - v_rows @ forward(net, u)
            return float(res @ res)

        def grad_at(u):
            return _composed_input_gradient(net, u, v_rows, ratings)

        pert = find_delta(loss_at, grad_at, u0, perturb)
        delta_norm = float(np.linalg.norm(pert.delta))
        if delta_norm < 1e-12:
            skipped += 1
            continue
        if output == "rating":
            pred_clean = float(np.mean(v_rows @ forward(net, u0)))
            pred_pert = float(np.mean(v_rows @ forward(net, u0 + pert.delta)))
            change = abs(pred_clean - pred_pert)
        else:
            change = float(np.linalg.norm(forward(net, u0) - forward(net, u0 + pert.delta)))
        ratios.append(change / delta_norm)
    if not ratios:
        raise ValidationError("every test user produced a degenerate perturbation")
    return SharpnessReport(
        lipschitz_estimate=float(np.mean(ratios)),
        rho=perturb.rho,
        k=perturb.k,
        n_users=len(ratios),
        n_skipped=skipped,
    )


def save_eval_report(report: EvalReport, path) -> None:
    doc = {
        "format_version": REPORT_VERSION,
        "kind": "eval_report",
        "mae": report.mae,
        "rmse": report.rmse,
        "n": report.n,
        "per_seed": report.per_seed,
    }
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_attack_report(entries: list[tuple[float, EvalReport]], path) -> None:
    doc = {
        "format_version": REPORT_VERSION,
        "kind": "fgsm_attack_report",
        "entries": [
            {"epsilon": e, "mae": r.mae, "rmse": r.rmse, "n": r.n} for e, r in entries
        ],
    }
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_landscape(grid: LandscapeGrid, path) -> None:
    """Delimited text export, row-major in zeta then gamma, exact float text."""
    lines = ["zeta,gamma,loss"]
    cells = grid.loss.tolist()
    for zi, zeta in enumerate(grid.zeta_axis.tolist()):
        for gi, gamma in enumerate(grid.gamma_axis.tolist()):
            lines.append(f"{zeta!r},{gamma!r},{cells[zi][gi]!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def save_sharpness_report(report: SharpnessReport, path) -> None:
    doc = {
        "format_version": REPORT_VERSION,
        "kind": "sharpness_report",
        "lipschitz_estimate": report.lipschitz_estimate,
        "rho": report.rho,
        "k": report.k,
        "n_users": report.n_users,
        "n_skipped": report.n_skipped,
    }
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
