"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
a single PASS line (visible with ``pytest -s``). The gates check the
configuration users run: the desk scenario and every training, attack and
probe setting come from ``scdr.cli.DEFAULT_CONFIG`` (2,000 users and 500
items per domain, 5% overlap, latent dim 10), read through the CLI's own
config builders. The gates vary only the seed {1, 2, 3} and beta, and
criterion 5's weak arm, which trains at a fifth of the default radii with
one ascent step.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

import numpy as np
import pytest

from scdr.analysis import (
    LandscapeSpec,
    save_landscape,
    _report_from_residuals,
    evaluate,
    fgsm_sweep,
    landscape_grid,
    lipschitz_estimate,
)
from scdr.cli import DEFAULT_CONFIG, _mapping_config, _perturb_config, _train_config
from scdr.cli import main as cli_main
from scdr.data import SyntheticSpec, generate_synthetic
from scdr.factorization import FactorModel, TrainConfig, mf_grad, mf_loss, train_mf, train_smf
from scdr.mapping import (
    MappingNet,
    ScdrTrainConfig,
    emcdr_train,
    forward,
    mapping_backward,
    scdr_train,
)
from scdr.perturbation import PerturbConfig, find_delta

SEEDS = (1, 2, 3)
BETAS = (0.2, 0.5, 0.8)
PRETRAIN, TRAIN = DEFAULT_CONFIG["pretrain"], DEFAULT_CONFIG["train"]
EPSILONS = DEFAULT_CONFIG["attack"]["epsilons"]
LIP_PROBE = _perturb_config(DEFAULT_CONFIG["sharpness"])


def weak(section):
    """``section`` at a fifth of its radius and one ascent step: criterion 5's weak arm."""
    return {**section, "rho": section["rho"] / 5, "k": 1}


def desk_spec(seed, beta):
    return SyntheticSpec(**{**DEFAULT_CONFIG["synth"], "seed": seed, "beta": beta})


_FACTOR_MODELS: dict = {}


def factor_model(dataset, seed, perturb=None):
    """The pretrained factor model of ``dataset`` at ``seed``, plain or sharpness-aware.

    Memoized by the dataset's tokens and arrays, the seed and the
    perturbation: training is a pure function of them, so a domain that
    scenarios share (the source at every beta) is trained once, and one
    whose content differs is trained anew.
    """
    key = (dataset.users, dataset.items, seed,
           *(hashlib.sha256(a.tobytes()).hexdigest()
             for a in (dataset.user_index, dataset.item_index, dataset.rating)),
           None if perturb is None else (perturb.rho, perturb.k, perturb.alpha))
    if key not in _FACTOR_MODELS:
        cfg = _train_config(PRETRAIN, seed)
        result = train_mf(dataset, cfg) if perturb is None else train_smf(dataset, cfg, perturb)
        _FACTOR_MODELS[key] = result.model
    return _FACTOR_MODELS[key]


def pretrain_pair(scenario, seed, perturb=None):
    return (factor_model(scenario.source, seed, perturb),
            factor_model(scenario.target_training_dataset(), seed, perturb))


def train_scdr(scenario, src, tgt, seed, section=TRAIN):
    return scdr_train(scenario, src, tgt, _mapping_config(section, seed, src.d)).net


@functools.cache
def desk_models(seed, beta):
    """The desk scenario at (seed, beta), its plain and sharpness-aware factor
    pairs, and the three methods' nets trained on them, all at the defaults."""
    scenario, _ = generate_synthetic(desk_spec(seed, beta))
    plain = pretrain_pair(scenario, seed)
    smf = pretrain_pair(scenario, seed, _perturb_config(PRETRAIN))
    emcdr_cfg = _mapping_config(TRAIN, seed, plain[0].d)
    return {
        "scenario": scenario,
        "plain": plain,
        "smf": smf,
        "emcdr": emcdr_train(scenario, *plain, emcdr_cfg.base, hidden=emcdr_cfg.hidden).net,
        "scdr_minus": train_scdr(scenario, *plain, seed),
        "scdr": train_scdr(scenario, *smf, seed),
    }


@pytest.fixture(scope="session")
def stack08():
    """Per-seed models at beta = 0.8: the three methods, the weak-arm
    variant of scdr, and the sharpness-aware-disabled baseline."""
    t0 = time.monotonic()
    per_seed = {}
    for seed in SEEDS:
        entry = desk_models(seed, 0.8)
        scenario = entry["scenario"]
        smf_weak = pretrain_pair(scenario, seed, _perturb_config(weak(PRETRAIN)))
        per_seed[seed] = {
            **entry,
            "smf_weak": smf_weak,
            "scdr_weak": train_scdr(scenario, *smf_weak, seed, weak(TRAIN)),
            "k0": train_scdr(scenario, *entry["plain"], seed, {**TRAIN, "rho": 0.0, "k": 0}),
        }
    per_seed["elapsed"] = time.monotonic() - t0
    return per_seed


@pytest.fixture(scope="session")
def trend_maes(stack08):
    """Mean cold-start MAE per (method, beta), plus the fixture build time."""
    t0 = time.monotonic()
    maes = {m: {b: [] for b in BETAS} for m in ("emcdr", "scdr_minus", "scdr")}
    for seed in SEEDS:
        for beta in BETAS:
            entry = desk_models(seed, beta)
            for method, pair in (("emcdr", "plain"), ("scdr_minus", "plain"), ("scdr", "smf")):
                maes[method][beta].append(
                    evaluate(entry[method], *entry[pair], entry["scenario"]).mae)
    means = {m: {b: float(np.mean(v)) for b, v in per.items()} for m, per in maes.items()}
    means["elapsed"] = stack08["elapsed"] + (time.monotonic() - t0)
    return means


def zero_predictor_mae(scenario):
    """MAE of predicting 0 for every withheld test rating: the mean |r| over the test pairs."""
    _, ratings, _ = scenario.target.user_interactions([t for _, t in scenario.test_pairs])
    return float(np.abs(ratings).mean())


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def test_criterion_1_gradient_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    h = 1e-5

    for _ in range(100):
        n_u, n_i, d = (int(rng.integers(2, 6)) for _ in range(3))
        d = max(d, 2)
        model = FactorModel(rng.normal(scale=0.8, size=(n_u, d)),
                            rng.normal(scale=0.8, size=(n_i, d)), d)
        batch = [(int(rng.integers(n_u)), int(rng.integers(n_i)),
                  float(rng.uniform(1, 5))) for _ in range(int(rng.integers(2, 8)))]
        wd = float(rng.choice([0.0, 0.1]))
        grad = mf_grad(model, batch, weight_decay=wd)
        analytic_u = np.zeros_like(model.U)
        analytic_u[grad.user_index] = grad.user_grad
        analytic_v = np.zeros_like(model.V)
        analytic_v[grad.item_index] = grad.item_grad
        for mat, analytic in ((model.U, analytic_u), (model.V, analytic_v)):
            fd = np.zeros_like(mat)
            for idx in np.ndindex(mat.shape):
                orig = mat[idx]
                mat[idx] = orig + h
                up = mf_loss(model, batch, wd)
                mat[idx] = orig - h
                down = mf_loss(model, batch, wd)
                mat[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            assert max_rel_err(analytic, fd) < 1e-6

    for _ in range(100):
        d = int(rng.integers(2, 6))
        hid = int(rng.integers(3, 8))
        net = MappingNet(rng.normal(size=(hid, d)), rng.normal(size=hid),
                         rng.normal(size=(d, hid)), rng.normal(size=d))
        u = rng.normal(size=d)
        upstream = rng.normal(size=d)
        got = mapping_backward(net, u, upstream)

        def loss():
            return float(np.dot(upstream, forward(net, u)))

        for arr, analytic in ((net.W1, got.W1), (net.b1, got.b1),
                              (net.W2, got.W2), (net.b2, got.b2), (u, got.u)):
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss()
                arr[idx] = orig - h
                down = loss()
                arr[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            assert max_rel_err(analytic, fd) < 1e-5

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS gradient oracles: 100 factor + 100 mapping instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_reduction_equivalence():
    t0 = time.monotonic()
    for seed in SEEDS:
        spec = SyntheticSpec(users=200, items=80, overlap_ratio=0.2, dim=6, noise=0.2,
                             map_kind="tanh", seed=seed, beta=0.5, ratings_per_user=20)
        scenario, _ = generate_synthetic(spec)
        cfg = TrainConfig(epochs=15, dim=6, seed=seed)

        plain = train_mf(scenario.source, cfg)
        for perturb in (PerturbConfig(rho=0.5, k=0), PerturbConfig(rho=0.0, k=5)):
            reduced = train_smf(scenario.source, cfg, perturb)
            assert np.array_equal(plain.model.U, reduced.model.U)
            assert np.array_equal(plain.model.V, reduced.model.V)
            assert plain.loss_trace == reduced.loss_trace

        src = plain.model
        tgt = train_mf(scenario.target_training_dataset(), cfg).model
        map_cfg = TrainConfig(epochs=40, dim=6, seed=seed)
        baseline = emcdr_train(scenario, src, tgt, map_cfg)
        reduced = scdr_train(scenario, src, tgt, ScdrTrainConfig(
            base=map_cfg, perturb=PerturbConfig(rho=0.4, k=0),
            tune_source_embeddings=False, supervision="embedding"))
        for a, b in ((baseline.net.W1, reduced.net.W1), (baseline.net.b1, reduced.net.b1),
                     (baseline.net.W2, reduced.net.W2), (baseline.net.b2, reduced.net.b2)):
            assert np.array_equal(a, b)
        assert np.array_equal(reduced.tuned_source_U, src.U)
        assert baseline.loss_trace == reduced.loss_trace

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 2] PASS reduction equivalence: bitwise over seeds {SEEDS} "
          f"({elapsed:.1f}s)")


def test_criterion_3_pgd_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)

    for _ in range(1000):
        d = int(rng.integers(1, 6))
        center = rng.normal(size=d) * 3
        scale = rng.uniform(0.5, 2.0, size=d)

        def loss_at(x):
            diff = (np.asarray(x) - center) * scale
            return float(diff @ diff)

        def grad_at(x):
            return 2.0 * scale * scale * (np.asarray(x) - center)

        origin = rng.normal(size=d)
        cfg = PerturbConfig(rho=float(rng.uniform(0.0, 2.0)), k=int(rng.integers(0, 8)))
        pert = find_delta(loss_at, grad_at, origin, cfg)
        assert np.linalg.norm(pert.delta) <= cfg.rho + 1e-9
        assert pert.achieved_loss >= loss_at(origin)

    # 2-D single-interaction instances; residual magnitudes keep the sign
    # ascent provably within 5% of the dense grid-search disk maximum
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        v = float(rng.uniform(0.6, 1.2)) * np.array([np.cos(theta), np.sin(theta)])
        residual = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(5.0, 8.0))
        rho = float(rng.uniform(0.1, 0.3))

        def loss_at(p):
            return float((residual - np.dot(p, v)) ** 2)

        def grad_at(p):
            return -2.0 * (residual - np.dot(p, v)) * v

        pert = find_delta(loss_at, grad_at, np.zeros(2), PerturbConfig(rho=rho, k=5))
        best = loss_at(np.zeros(2))
        offsets = np.arange(-rho, rho + 0.005, 0.01)
        for dx in offsets:
            for dy in offsets:
                if dx * dx + dy * dy <= rho * rho:
                    best = max(best, loss_at(np.array([dx, dy])))
        assert pert.achieved_loss >= 0.95 * best

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 3] PASS PGD properties: 1000 invariant + 20 grid-oracle instances "
          f"({elapsed:.1f}s)")


def test_criterion_4_trend_gate(trend_maes):
    t0 = time.monotonic()
    m = trend_maes
    assert m["scdr"][0.8] < m["scdr_minus"][0.8] < m["emcdr"][0.8], (
        f"beta=0.8 ordering failed: scdr {m['scdr'][0.8]:.4f}, "
        f"scdr_minus {m['scdr_minus'][0.8]:.4f}, emcdr {m['emcdr'][0.8]:.4f}")
    for beta in BETAS:
        assert m["scdr"][beta] < m["emcdr"][beta], (
            f"beta={beta}: scdr {m['scdr'][beta]:.4f} !< emcdr {m['emcdr'][beta]:.4f}")

    improvements = {b: (m["emcdr"][b] - m["scdr"][b]) / m["emcdr"][b] for b in BETAS}
    monotone = all(improvements[a] <= improvements[b]
                   for a, b in zip(BETAS, BETAS[1:]))
    elapsed = m["elapsed"] + (time.monotonic() - t0)
    assert elapsed < 600.0
    detail = "  ".join(
        f"beta={b:g}: emcdr {m['emcdr'][b]:.4f} scdr- {m['scdr_minus'][b]:.4f} "
        f"scdr {m['scdr'][b]:.4f} (gain {100 * improvements[b]:.1f}%)" for b in BETAS)
    print(f"\n[criterion 4] PASS trend gate ({elapsed:.0f}s)\n  {detail}\n"
          f"  relative improvement grows with beta: {monotone} (reported, not gated)")


def test_criterion_5_robustness_gate(stack08):
    t0 = time.monotonic()
    last_eps, clean = {}, {}
    for seed in SEEDS:
        entry = stack08[seed]
        scenario = entry["scenario"]
        zero, worst = zero_predictor_mae(scenario), 0.0
        sweeps = {
            "strong": (entry["scdr"], entry["smf"]),
            "weak": (entry["scdr_weak"], entry["smf_weak"]),
            "k0-baseline": (entry["k0"], entry["plain"]),
        }
        for name, (net, (src, tgt)) in sweeps.items():
            curve = [r.mae for _, r in fgsm_sweep(net, src, tgt, scenario, EPSILONS)]
            # a constant model's curve is flat: it must not pass as robust
            assert curve[0] < zero, f"{name} seed {seed}: clean MAE {curve[0]} !< zero {zero}"
            worst = max(worst, curve[0])
            tolerance = 0.01 * curve[0]
            inversions = [(a, b) for a, b in zip(curve, curve[1:]) if b < a]
            assert len(inversions) <= 1, f"{name} seed {seed}: {curve}"
            assert all(a - b <= tolerance for a, b in inversions), (
                f"{name} seed {seed}: inversion beyond 1% of clean MAE: {curve}")
            last_eps.setdefault(name, {})[seed] = curve[-1]
        clean[seed] = (worst, zero)

    wins = sum(last_eps["strong"][s] < last_eps["weak"][s] for s in SEEDS)
    assert wins >= 2, f"strong SAM beat weak SAM on only {wins}/3 seeds: {last_eps}"
    elapsed = stack08["elapsed"] + (time.monotonic() - t0)
    assert elapsed < 600.0
    strong = [f"{last_eps['strong'][s]:.3f}" for s in SEEDS]
    weak_maes = [f"{last_eps['weak'][s]:.3f}" for s in SEEDS]
    guard = "  ".join(f"seed {s}: {clean[s][0]:.3f}<{clean[s][1]:.3f}" for s in SEEDS)
    print(f"\n[criterion 5] PASS robustness gate ({elapsed:.0f}s): robust MAE at eps=1 "
          f"strong (the defaults) {strong} vs weak (radii/5, k=1) {weak_maes}, wins {wins}/3\n"
          f"  worst clean MAE below the zero predictor's: {guard}")


def test_criterion_6_sharpness_gate(stack08, tmp_path):
    t0 = time.monotonic()
    lips, ranges, clean = {}, {}, {}

    def exported_range(grid, path):
        save_landscape(grid, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 21 * 21
        values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        return max(values) - min(values)

    for seed in SEEDS:
        entry = stack08[seed]
        scenario = entry["scenario"]
        src_s, tgt_s = entry["smf"]
        src_p, tgt_p = entry["plain"]

        # a constant model has no slope and a flat landscape: it must not pass as flat
        zero = zero_predictor_mae(scenario)
        mae_scdr = evaluate(entry["scdr"], src_s, tgt_s, scenario).mae
        mae_base = evaluate(entry["k0"], src_p, tgt_p, scenario).mae
        assert max(mae_scdr, mae_base) < zero, (
            f"seed {seed}: clean MAE scdr {mae_scdr}, k0 {mae_base} !< zero {zero}")
        clean[seed] = (max(mae_scdr, mae_base), zero)

        lip_scdr = lipschitz_estimate(entry["scdr"], src_s, tgt_s, scenario, LIP_PROBE)
        lip_base = lipschitz_estimate(entry["k0"], src_p, tgt_p, scenario, LIP_PROBE)
        assert lip_scdr.lipschitz_estimate < lip_base.lipschitz_estimate, (
            f"seed {seed}: {lip_scdr.lipschitz_estimate} !< {lip_base.lipschitz_estimate}")
        lips[seed] = (lip_scdr.lipschitz_estimate, lip_base.lipschitz_estimate)

        spec = LandscapeSpec(seed=seed)
        grid_scdr = landscape_grid(entry["scdr"], src_s, tgt_s, scenario, spec)
        grid_base = landscape_grid(entry["k0"], src_p, tgt_p, scenario, spec)
        assert grid_scdr.loss.shape == (21, 21)
        r_scdr = exported_range(grid_scdr, tmp_path / f"scdr_{seed}.csv")
        r_base = exported_range(grid_base, tmp_path / f"base_{seed}.csv")
        assert r_scdr < r_base, f"seed {seed}: grid range {r_scdr} !< {r_base}"
        ranges[seed] = (r_scdr, r_base)

    elapsed = stack08["elapsed"] + (time.monotonic() - t0)
    assert elapsed < 300.0
    detail = "  ".join(f"seed {s}: lipschitz {lips[s][0]:.3f}<{lips[s][1]:.3f} "
                       f"range {ranges[s][0]:.3f}<{ranges[s][1]:.3f} "
                       f"clean MAE {clean[s][0]:.3f}<zero {clean[s][1]:.3f}" for s in SEEDS)
    print(f"\n[criterion 6] PASS sharpness gate ({elapsed:.0f}s)\n  {detail}")


def test_criterion_7_metric_oracle():
    t0 = time.monotonic()
    cases = [
        ([1.0, -1.0, 1.0, -1.0], 1.0, 1.0),
        ([0.0, 0.0, 3.0, 0.0], 0.75, 1.5),
        ([2.0], 2.0, 2.0),
        ([0.5, -0.5, 0.5, -0.5, 0.5], 0.5, 0.5),
    ]
    for residuals, mae, rmse in cases:
        report = _report_from_residuals(np.array(residuals), seed=0)
        assert abs(report.mae - mae) < 1e-12
        assert abs(report.rmse - rmse) < 1e-12

    rng = np.random.default_rng(707)
    for _ in range(1000):
        resid = rng.normal(size=int(rng.integers(1, 50))) * float(rng.uniform(0.01, 10))
        report = _report_from_residuals(resid, seed=0)
        assert report.rmse >= report.mae >= 0.0

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 7] PASS metric oracle: exact hand cases + 1000 random sets "
          f"({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    t0 = time.monotonic()
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = {
            "seed": 1,
            "out": str(out),
            "synth": {"users": 300, "items": 100, "overlap_ratio": 0.2, "dim": 8,
                      "noise": 0.2, "map_kind": "tanh", "beta": 0.5,
                      "ratings_per_user": 20},
            "pretrain": {"epochs": 12, "dim": 8, "rho": 0.05, "k": 3},
            "train": {"epochs": 60, "rho": 0.2, "k": 3},
            "landscape": {"resolution": 9, "n_samples": 128},
        }
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        for args in (["synth"], ["pretrain", "--mode", "plain"],
                     ["pretrain", "--mode", "sharpness_aware"],
                     ["train", "--method", "emcdr"], ["train", "--method", "scdr"],
                     ["eval", "--method", "emcdr"], ["eval", "--method", "scdr"],
                     ["attack", "--method", "scdr"], ["landscape", "--method", "scdr"],
                     ["sharpness", "--method", "scdr"]):
            assert cli_main(args + ["--config", str(cfg_path)]) == 0, args
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"\n[criterion 8] PASS determinism: {len(digests[0])} files byte-identical "
          f"across re-runs ({elapsed:.0f}s)")
