from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from scdr.analysis import (
    EvalReport,
    LandscapeSpec,
    _report_from_residuals,
    evaluate,
    fgsm_sweep,
    landscape_grid,
    lipschitz_estimate,
    save_attack_report,
    save_eval_report,
    save_landscape,
    save_sharpness_report,
)
from scdr.data import CdrScenario, DomainDataset, SyntheticSpec, build_scenario, generate_synthetic
from scdr.errors import ValidationError
from scdr.factorization import FactorModel, TrainConfig, train_mf
from scdr.mapping import (MappingNet, ScdrTrainConfig, forward, init_mapping_net, mapping_backward,
                          scdr_train)
from scdr.perturbation import PerturbConfig, find_delta

from conftest import dataset, same_bits, set_chunk_rows, uneven_scenario


def zero_net(d):
    return MappingNet(np.zeros((4, d)), np.zeros(4), np.zeros((d, 4)), np.zeros(d))


def near_identity_net(d, hidden=None, c=1e-6):
    h = hidden or max(4, d)
    w1 = np.zeros((h, d))
    w1[:d, :d] = c * np.eye(d)
    w2 = np.zeros((d, h))
    w2[:d, :d] = (1.0 / c) * np.eye(d)
    return MappingNet(w1, np.zeros(h), w2, np.zeros(d))


def residual_scenario(ratings):
    """One cold-start test user whose withheld ratings are exactly `ratings`.

    Scored through a zero net, predictions are 0, so the pooled residuals
    equal the ratings themselves.
    """
    src_rows = [("u0", "s0", 1.0), ("u1", "s0", 2.0)]
    tgt_rows = [("u1", "t0", 1.0)]
    tgt_rows += [(f"u0", f"t{j + 1}", float(r)) for j, r in enumerate(ratings)]
    scn = build_scenario(dataset(src_rows), dataset(tgt_rows), beta=0.5, seed=0)
    if scn.test_pairs[0][0] != 0:  # force u0 to be the test user
        scn = CdrScenario(scn.source, scn.target, scn.overlap, scn.beta, scn.seed,
                          train_pairs=scn.test_pairs, test_pairs=scn.train_pairs)
    d = 3
    src = FactorModel(np.ones((scn.source.n_users, d)), np.ones((scn.source.n_items, d)))
    tgt = FactorModel(np.ones((scn.target.n_users, d)), np.ones((scn.target.n_items, d)))
    return scn, src, tgt


def per_user_pool(scn):
    """(source row, item, rating) of every withheld pair, user by user."""
    return [(s, i, r) for s, _, items, ratings in reference_withheld(scn)
            for i, r in zip(items.tolist(), ratings.tolist())]


# Reference: the per-user attack and sharpness probe that the batched ones
# replaced, one user (and one find_delta call) at a time.

def reference_withheld(scn):
    """(source row, target user, items, ratings) per test user, found by a mask."""
    target, withheld = scn.target, []
    for s, t in scn.test_pairs:
        pos = np.flatnonzero(target.user_index == t)
        withheld.append((s, t, target.item_index[pos], target.rating[pos]))
    return withheld


def reference_residuals(net, target_model, user_vectors, withheld):
    residuals = []
    for (s, t, items, ratings), u in zip(withheld, user_vectors):
        preds = target_model.V[items] @ forward(net, u)
        residuals.append(ratings - preds)
    return np.concatenate(residuals)


def reference_input_gradient(net, u, v_rows, ratings):
    res = ratings - v_rows @ forward(net, u)
    upstream = -2.0 * (v_rows.T @ res)
    return mapping_backward(net, u, upstream).u


def reference_fgsm_sweep(net, source_model, target_model, scenario, epsilons):
    withheld = reference_withheld(scenario)
    clean = [source_model.U[s] for s, _, _, _ in withheld]
    grads = [
        reference_input_gradient(net, u, target_model.V[items], ratings)
        for (s, t, items, ratings), u in zip(withheld, clean)
    ]
    out = []
    for e in epsilons:
        attacked = [u + e * np.sign(g) for u, g in zip(clean, grads)]
        resid = reference_residuals(net, target_model, attacked, withheld)
        out.append((e, _report_from_residuals(resid, scenario.seed)))
    return out


def reference_lipschitz(net, source_model, target_model, scenario, perturb):
    ratios = []
    skipped = 0
    for s, t, items, ratings in reference_withheld(scenario):
        v_rows = target_model.V[items]
        u0 = source_model.U[s]

        def loss_at(u):
            res = ratings - v_rows @ forward(net, u)
            return float(res @ res)

        def grad_at(u):
            return reference_input_gradient(net, u, v_rows, ratings)

        pert = find_delta(loss_at, grad_at, u0, perturb)
        delta_norm = float(np.linalg.norm(pert.delta))
        if delta_norm < 1e-12:
            skipped += 1
            continue
        pred_clean = float(np.mean(v_rows @ forward(net, u0)))
        pred_pert = float(np.mean(v_rows @ forward(net, u0 + pert.delta)))
        ratios.append(abs(pred_clean - pred_pert) / delta_norm)
    return float(np.mean(ratios)), len(ratios), skipped


def stalling_stack(rng, d=4):
    """Six test users, three of whose withheld items have zero target vectors.

    Those three users' predictions, and so their loss, do not depend on
    their source embedding: the input gradient is exactly zero, the ascent
    never leaves the origin, and the probe must skip them.
    """
    n = 10
    src_rows = [(f"u{i}", "s0", 1.0) for i in range(n)]
    tgt_rows = [(f"u{i}", f"t{i}{k}", float(rng.uniform(1, 5))) for i in range(n) for k in "ab"]
    scn = build_scenario(dataset(src_rows), dataset(tgt_rows), beta=0.5, seed=0)
    test_tokens = {f"u{i}" for i in range(6)}
    test = [p for p in scn.overlap if scn.source.users[p[0]] in test_tokens]
    train = [p for p in scn.overlap if p not in test]
    scn = CdrScenario(scn.source, scn.target, scn.overlap, 0.5, 0, train_pairs=train, test_pairs=test)
    V = rng.normal(size=(scn.target.n_items, d))
    for i in (0, 2, 4):
        for k in "ab":
            V[scn.target.items.index(f"t{i}{k}")] = 0.0
    src = FactorModel(rng.normal(size=(scn.source.n_users, d)), np.ones((1, d)))
    tgt = FactorModel(np.ones((scn.target.n_users, d)), V)
    h = 6
    net = MappingNet(0.5 * rng.normal(size=(h, d)), 0.1 * rng.normal(size=h),
                     0.5 * rng.normal(size=(d, h)), 0.1 * rng.normal(size=d))
    return scn, src, tgt, net


@pytest.fixture(scope="module")
def trained_stack():
    spec = SyntheticSpec(users=200, items=80, overlap_ratio=0.2, dim=6, noise=0.2,
                         map_kind="tanh", seed=8, beta=0.5, ratings_per_user=20)
    scn, _ = generate_synthetic(spec)
    cfg = TrainConfig(epochs=25, dim=6, seed=8)
    src = train_mf(scn.source, cfg).model
    tgt = train_mf(scn.target_training_dataset(), cfg).model
    res = scdr_train(scn, src, tgt, ScdrTrainConfig(
        base=TrainConfig(epochs=150, dim=6, seed=8), perturb=PerturbConfig(rho=0.2, k=3)))
    return scn, src, tgt, res.net


class TestEvaluate:
    def test_constant_magnitude_residuals(self):
        scn, src, tgt = residual_scenario([1.0, -1.0, 1.0, -1.0])
        report = evaluate(zero_net(3), src, tgt, scn)
        assert report.mae == 1.0 and report.rmse == 1.0 and report.n == 4

    def test_hand_arithmetic(self):
        scn, src, tgt = residual_scenario([0.0, 0.0, 3.0, 0.0])
        report = evaluate(zero_net(3), src, tgt, scn)
        assert report.mae == 0.75 and report.rmse == 1.5

    def test_seed_echo(self, tmp_path):
        scn, src, tgt = residual_scenario([2.0])
        scn = dataclasses.replace(scn, seed=7)
        report = evaluate(zero_net(3), src, tgt, scn)
        assert (report.seed, report.mae, report.rmse, report.n) == (7, 2.0, 2.0, 1)
        save_eval_report(report, tmp_path / "e.json")
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["seed"] == 7 and "per_seed" not in doc
        assert (doc["format_version"], doc["kind"]) == (3, "eval_report")

    def test_rmse_dominates_mae_on_random_sets(self, rng):
        for _ in range(200):
            resid = rng.normal(size=int(rng.integers(1, 40))) * rng.uniform(0.1, 5)
            report = _report_from_residuals(resid, seed=0)
            assert report.rmse >= report.mae >= 0.0

    def test_unscorable_test_split_rejected(self):
        # u1 is in both domains but rates nothing in the target domain
        src_ds = DomainDataset(("u0", "u1"), ("s0",), [0, 1], [0, 0], [1.0, 2.0])
        tgt_ds = DomainDataset(("u0", "u1"), ("t0",), [0], [0], [3.0])
        overlap = [(0, 0), (1, 1)]
        src = FactorModel(np.ones((2, 3)), np.ones((1, 3)))
        tgt = FactorModel(np.ones((2, 3)), np.ones((1, 3)))
        net = near_identity_net(3)
        analyses = [
            lambda scn: evaluate(net, src, tgt, scn),
            lambda scn: fgsm_sweep(net, src, tgt, scn, [0.0]),
            lambda scn: landscape_grid(net, src, tgt, scn, LandscapeSpec()),
            lambda scn: lipschitz_estimate(net, src, tgt, scn, PerturbConfig(rho=0.1, k=1)),
        ]
        for test_pairs, message in (([(1, 1)], "test user u1 has no withheld"),
                                    ([], "test split is empty")):
            train_pairs = [p for p in overlap if p not in test_pairs]
            scn = CdrScenario(src_ds, tgt_ds, overlap, 0.5, 0, train_pairs, test_pairs)
            for analysis in analyses:
                with pytest.raises(ValidationError, match=message):
                    analysis(scn)

    def test_report_validation(self):
        with pytest.raises(ValidationError):
            EvalReport(mae=1.0, rmse=1.0, n=0, seed=0)


ANALYSES = {
    "evaluate": lambda net, src, tgt, scn: evaluate(net, src, tgt, scn),
    "fgsm_sweep": lambda net, src, tgt, scn: fgsm_sweep(net, src, tgt, scn, [0.0, 0.5]),
    "landscape_grid": lambda net, src, tgt, scn: landscape_grid(
        net, src, tgt, scn, LandscapeSpec(resolution=3, n_samples=20)),
    "lipschitz_estimate": lambda net, src, tgt, scn: lipschitz_estimate(
        net, src, tgt, scn, PerturbConfig(rho=0.3, k=2)),
}

# each turns the trained stack (latent width 6) into one whose parts do not fit together
MISFITS = {
    "net-of-width-5": lambda src, tgt, net: (src, tgt, init_mapping_net(
        5, 12, np.random.default_rng(0))),
    "constant-net-of-width-5": lambda src, tgt, net: (src, tgt, zero_net(5)),
    "target-of-width-5": lambda src, tgt, net: (src, FactorModel(tgt.U[:, :5], tgt.V[:, :5]),
                                                net),
    "source-U-one-row-short": lambda src, tgt, net: (FactorModel(src.U[:-1], src.V), tgt, net),
    "target-V-one-row-short": lambda src, tgt, net: (src, FactorModel(tgt.U, tgt.V[:-1]), net),
}


@pytest.mark.parametrize("misfit", MISFITS)
@pytest.mark.parametrize("analysis", ANALYSES)
def test_parts_that_do_not_fit_are_refused(trained_stack, analysis, misfit):
    """Every analysis refuses a net, or factor models, that do not fit the scenario and
    each other, before it scores anything: none returns, and none raises numpy's errors
    (a short source U passed whenever the test users' rows lay below its end)."""
    scn, *stack = trained_stack
    src, tgt, net = MISFITS[misfit](*stack)
    with pytest.raises(ValidationError, match="does not fit the scenario|does not match net dim"):
        ANALYSES[analysis](net, src, tgt, scn)


class TestFgsmSweep:
    def test_zero_epsilon_matches_evaluate_bitwise(self, trained_stack):
        scn, src, tgt, net = trained_stack
        clean = evaluate(net, src, tgt, scn)
        sweep = fgsm_sweep(net, src, tgt, scn, [0.0, 0.5])
        assert sweep[0][0] == 0.0
        assert sweep[0][1].mae == clean.mae
        assert sweep[0][1].rmse == clean.rmse
        assert sweep[0][1].n == clean.n

    def test_attack_degrades_accuracy(self, trained_stack):
        scn, src, tgt, net = trained_stack
        sweep = fgsm_sweep(net, src, tgt, scn, [0.0, 1.0])
        assert sweep[1][1].mae >= sweep[0][1].mae

    def test_epsilon_validation(self, trained_stack):
        scn, src, tgt, net = trained_stack
        with pytest.raises(ValidationError):
            fgsm_sweep(net, src, tgt, scn, [0.5, 0.25])
        with pytest.raises(ValidationError):
            fgsm_sweep(net, src, tgt, scn, [-0.1, 0.5])
        with pytest.raises(ValidationError):
            fgsm_sweep(net, src, tgt, scn, [])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="finite"):
                fgsm_sweep(net, src, tgt, scn, [0.0, bad])


class TestLandscape:
    def test_shape_and_axes(self, trained_stack):
        scn, src, tgt, net = trained_stack
        grid = landscape_grid(net, src, tgt, scn, LandscapeSpec(seed=3))
        assert grid.loss.shape == (21, 21)
        assert np.all(np.isfinite(grid.loss))
        assert np.all(np.diff(grid.axis) > 0)
        withheld = scn.target.n_interactions - scn.target_training_dataset().n_interactions
        assert grid.n_samples == min(256, withheld)

    @pytest.mark.parametrize("resolution", [2, 7])
    def test_axes_span_one_embedding_norm(self, trained_stack, resolution):
        # the lattice is fixed: ±1 filter-normalized units on both axes
        scn, src, tgt, net = trained_stack
        grid = landscape_grid(net, src, tgt, scn,
                              LandscapeSpec(resolution=resolution, n_samples=10, seed=1))
        expect = np.linspace(-1.0, 1.0, resolution)
        assert same_bits(grid.axis, expect)

    def test_center_cell_is_unperturbed_error(self, trained_stack):
        scn, src, tgt, net = trained_stack
        spec = LandscapeSpec(resolution=21, seed=4)
        grid = landscape_grid(net, src, tgt, scn, spec)
        # replicate the seeded sampling to score the same pairs unperturbed
        pool = per_user_pool(scn)
        rng = np.random.default_rng(4)
        rng.standard_normal(src.d)
        rng.standard_normal(src.d)
        sel = rng.choice(len(pool), size=grid.n_samples, replace=False)
        users = np.array([pool[i][0] for i in sel])
        items = np.array([pool[i][1] for i in sel])
        ratings = np.array([pool[i][2] for i in sel])
        preds = np.einsum("ij,ij->i", forward(net, src.U[users]), tgt.V[items])
        expect = float(np.mean(np.abs(ratings - preds)))
        assert grid.loss[10, 10] == pytest.approx(expect, abs=1e-12)

    def test_closed_form_oracle_near_identity(self):
        # single item, near-identity map: the cell value is the analytic
        # mean of |R - <u + gamma*d1 + zeta*d2, v>| over the sample
        spec = SyntheticSpec(users=30, items=15, overlap_ratio=0.5, dim=4, noise=0.0,
                             map_kind="identity", seed=6, beta=0.5, ratings_per_user=15)
        scn, sc = generate_synthetic(spec)
        src = FactorModel(sc.source_user_latents, sc.source_item_latents)
        tgt = FactorModel(sc.target_user_latents, sc.target_item_latents)
        net = near_identity_net(4)
        lspec = LandscapeSpec(resolution=5, n_samples=20, seed=9)
        grid = landscape_grid(net, src, tgt, scn, lspec)

        pool = per_user_pool(scn)
        rng = np.random.default_rng(9)
        g1 = rng.standard_normal(4)
        g2 = rng.standard_normal(4)
        sel = rng.choice(len(pool), size=20, replace=False)
        u = src.U[[pool[i][0] for i in sel]]
        v = tgt.V[[pool[i][1] for i in sel]]
        r = np.array([pool[i][2] for i in sel])
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        d1 = g1 / np.linalg.norm(g1) * norms
        d2 = g2 / np.linalg.norm(g2) * norms
        for zi, zeta in enumerate(grid.axis):
            for gi, gamma in enumerate(grid.axis):
                displaced = u + gamma * d1 + zeta * d2
                expect = float(np.mean(np.abs(r - np.einsum("ij,ij->i", displaced, v))))
                assert abs(grid.loss[zi, gi] - expect) < 1e-10

    def test_every_cell_matches_a_per_cell_forward_pass(self, trained_stack):
        # reference: one forward pass per lattice cell, which the batched rows reproduce bitwise
        scn, src, tgt, net = trained_stack
        grid = landscape_grid(net, src, tgt, scn, LandscapeSpec(resolution=7, n_samples=60, seed=5))
        pool = per_user_pool(scn)
        rng = np.random.default_rng(5)
        g1 = rng.standard_normal(src.d)
        g2 = rng.standard_normal(src.d)
        sel = rng.choice(len(pool), size=60, replace=False)
        u = src.U[[pool[i][0] for i in sel]]
        v = tgt.V[[pool[i][1] for i in sel]]
        r = np.array([pool[i][2] for i in sel])
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        d1 = (g1 / np.linalg.norm(g1))[None, :] * norms
        d2 = (g2 / np.linalg.norm(g2))[None, :] * norms
        for zi, zeta in enumerate(grid.axis):
            for gi, gamma in enumerate(grid.axis):
                preds = np.einsum("ij,ij->i", forward(net, u + gamma * d1 + zeta * d2), v)
                assert grid.loss[zi, gi] == np.mean(np.abs(r - preds))

    def test_insufficient_samples(self, trained_stack):
        scn, src, tgt, net = trained_stack
        with pytest.raises(ValidationError):
            landscape_grid(net, src, tgt, scn, LandscapeSpec(n_samples=10 ** 7, seed=0))

    def test_deterministic(self, trained_stack):
        scn, src, tgt, net = trained_stack
        spec = LandscapeSpec(resolution=4, n_samples=40, seed=2)
        a = landscape_grid(net, src, tgt, scn, spec)
        b = landscape_grid(net, src, tgt, scn, spec)
        assert np.array_equal(a.loss, b.loss)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            LandscapeSpec(resolution=1)


class TestLipschitz:
    def test_zero_net_estimate_zero(self):
        scn, src, tgt = residual_scenario([1.0, 2.0])
        report = lipschitz_estimate(zero_net(3), src, tgt, scn, PerturbConfig(rho=0.5, k=3))
        assert report.lipschitz_estimate == 0.0
        assert report.n_users == 1 and report.n_skipped == 0

    def test_near_identity_single_item_closed_form(self):
        # prediction is u[0] + O(c^2); the ratio must equal |delta_0| / ||delta||
        scn, src, tgt = residual_scenario([4.0])
        d = 3
        net = near_identity_net(d)
        v = np.zeros(d)
        v[0] = 1.0
        tgt = FactorModel(tgt.U, np.tile(v, (tgt.V.shape[0], 1)))
        cfg = PerturbConfig(rho=0.4, k=4)
        report = lipschitz_estimate(net, src, tgt, scn, cfg)
        assert 0.0 < report.lipschitz_estimate <= 1.0 + 1e-9

    def test_never_exceeds_operator_norm_bound(self, rng, trained_stack):
        scn, src, tgt, net = trained_stack
        report = lipschitz_estimate(net, src, tgt, scn, PerturbConfig(rho=0.3, k=4))
        w1 = np.linalg.norm(net.W1, 2)
        w2 = np.linalg.norm(net.W2, 2)
        vbar_max = max(
            float(np.linalg.norm(np.mean(tgt.V[items], axis=0)))
            for _, _, items, _ in reference_withheld(scn)
        )
        assert report.lipschitz_estimate <= w1 * w2 * vbar_max * (1 + 1e-12)

    def test_all_skipped_raises(self):
        # residuals are exactly zero, so every ascent stalls at the origin
        d = 3
        net = near_identity_net(d)
        exact = float(np.sum(forward(net, np.ones(d))))  # rating of an all-ones item
        src_rows = [("u0", "s0", 1.0), ("u1", "s0", 2.0)]
        tgt_rows = [("u1", "t0", exact), ("u0", "t1", exact), ("u0", "t2", exact)]
        scn = build_scenario(dataset(src_rows), dataset(tgt_rows), beta=0.5, seed=0)
        src = FactorModel(np.ones((2, d)), np.ones((1, d)))
        tgt = FactorModel(np.ones((2, d)), np.ones((3, d)))
        with pytest.raises(ValidationError):
            lipschitz_estimate(net, src, tgt, scn, PerturbConfig(rho=0.2, k=3))

    def test_config_validation(self, trained_stack):
        scn, src, tgt, net = trained_stack
        with pytest.raises(ValidationError):
            lipschitz_estimate(net, src, tgt, scn, PerturbConfig(rho=0.0, k=3))
        with pytest.raises(ValidationError):
            lipschitz_estimate(net, src, tgt, scn, PerturbConfig(rho=0.5, k=0))


class TestPerUserReference:
    """The batched attack and probe against the per-user code they replaced."""

    def test_fgsm_sweep(self, trained_stack):
        scn, src, tgt, net = trained_stack
        eps = [0.0, 0.25, 0.5, 1.0]
        got = fgsm_sweep(net, src, tgt, scn, eps)
        want = reference_fgsm_sweep(net, src, tgt, scn, eps)
        for (e, r), (we, w) in zip(got, want):
            assert e == we and r.n == w.n
            assert r.mae == pytest.approx(w.mae, rel=1e-12, abs=0)
            assert r.rmse == pytest.approx(w.rmse, rel=1e-12, abs=0)

    @pytest.mark.parametrize("rho,k", [(0.3, 4), (0.05, 1), (1.0, 6)])
    def test_lipschitz_estimate(self, trained_stack, rho, k):
        scn, src, tgt, net = trained_stack
        cfg = PerturbConfig(rho=rho, k=k)
        got = lipschitz_estimate(net, src, tgt, scn, cfg)
        estimate, n_users, n_skipped = reference_lipschitz(net, src, tgt, scn, cfg)
        assert got.lipschitz_estimate == pytest.approx(estimate, rel=1e-12, abs=0)
        assert (got.n_users, got.n_skipped) == (n_users, n_skipped)

    def test_lipschitz_skips_rows_left_at_origin(self, rng):
        scn, src, tgt, net = stalling_stack(rng)
        cfg = PerturbConfig(rho=0.3, k=4)
        got = lipschitz_estimate(net, src, tgt, scn, cfg)
        estimate, n_users, n_skipped = reference_lipschitz(net, src, tgt, scn, cfg)
        assert (got.n_users, got.n_skipped) == (n_users, n_skipped) == (3, 3)
        assert got.lipschitz_estimate == pytest.approx(estimate, rel=1e-12, abs=0)
        assert math.isfinite(got.lipschitz_estimate) and got.lipschitz_estimate > 0.0


class TestReportFiles:
    def test_eval_report_file(self, tmp_path):
        report = EvalReport(mae=1.5, rmse=2.0, n=10, seed=3)
        save_eval_report(report, tmp_path / "e.json")
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["kind"] == "eval_report" and doc["mae"] == 1.5 and doc["n"] == 10

    def test_attack_report_file(self, tmp_path):
        entries = [(0.0, EvalReport(1.0, 1.0, 4, 0)), (0.5, EvalReport(2.0, 2.5, 4, 0))]
        save_attack_report(entries, tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text())
        assert [e["epsilon"] for e in doc["entries"]] == [0.0, 0.5]

    def test_landscape_file(self, tmp_path, trained_stack):
        scn, src, tgt, net = trained_stack
        grid = landscape_grid(net, src, tgt, scn, LandscapeSpec(resolution=3, seed=1))
        save_landscape(grid, tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "zeta,gamma,loss"
        assert len(lines) == 1 + 9
        zeta, gamma, loss = lines[1].split(",")
        assert float(zeta) == float(gamma) == grid.axis[0] and float(loss) == grid.loss[0, 0]

    def test_sharpness_file(self, tmp_path):
        from scdr.analysis import SharpnessReport
        save_sharpness_report(SharpnessReport(0.25, 0.3, 5, 8, 2), tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["lipschitz_estimate"] == 0.25 and doc["n_skipped"] == 2


def latent_stack(scenario, sidecar, d, hidden=12, seed=0):
    """The planted latents as factor models, and a freshly initialised net."""
    src = FactorModel(sidecar.source_user_latents, sidecar.source_item_latents)
    tgt = FactorModel(sidecar.target_user_latents, sidecar.target_item_latents)
    return scenario, src, tgt, init_mapping_net(d, hidden, np.random.default_rng(seed))


class TestBlockBoundaries:
    """Every block size gives the bits of one block over all withheld interactions."""

    @staticmethod
    def results(stack):
        scn, src, tgt, net = stack
        grid = landscape_grid(net, src, tgt, scn, LandscapeSpec(resolution=5, n_samples=30, seed=2))
        return (evaluate(net, src, tgt, scn),
                fgsm_sweep(net, src, tgt, scn, [0.0, 0.1, 0.5]),
                lipschitz_estimate(net, src, tgt, scn, PerturbConfig(rho=0.3, k=3)),
                grid.loss.tobytes())

    # 45 ends blocks inside users; 64 puts two 30-sample gammas in a landscape block,
    # so a 5-point lattice row ends on a partial one
    @pytest.mark.parametrize("rows", [1, 7, 45, 64])
    def test_bitwise_equal_to_one_block(self, monkeypatch, rows):
        spec = SyntheticSpec(users=150, items=60, overlap_ratio=0.6, dim=5, noise=0.2,
                             map_kind="tanh", seed=3, beta=0.5, ratings_per_user=20)
        stack = latent_stack(*uneven_scenario(spec), d=5)
        set_chunk_rows(monkeypatch, 10**9)
        want = self.results(stack)
        set_chunk_rows(monkeypatch, rows)
        assert self.results(stack) == want


class TestMemoryBound:
    """The scoring passes hold no per-interaction array of item vectors."""

    @pytest.fixture(scope="class")
    def big(self):
        # 4,000 test users with the default 30 ratings each, and the CLI's 50 hidden units
        spec = SyntheticSpec(users=5000, items=500, overlap_ratio=1.0, dim=10, beta=0.8, seed=3)
        stack = latent_stack(*generate_synthetic(spec), d=10, hidden=50)
        m = len(stack[0].test_pairs) * spec.ratings_per_user
        assert m >= 100_000
        return stack, m

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evaluate_peaks_below_one_item_vector_block(self, big):
        (scn, src, tgt, net), m = big
        # gathering V[items] and the repeated outputs held two (m, d) blocks: 23.8 MB at
        # m = 120,000; blocked, the peak is the flat layout, the (m,) predictions and
        # residuals and one block of rows: 6.2 MB. The bound is one (m, d) float64 block.
        assert self.peak(evaluate, net, src, tgt, scn) < m * src.d * 8

    def test_lipschitz_estimate_peaks_below_one_item_vector_block(self, big):
        (scn, src, tgt, net), m = big
        # 26.9 MB with V[items] held through the ascent; blocked, 8.8 MB, most of it the
        # flat layout, the ascent's per-user rows and the net's (users, hidden) activations.
        # The bound is one (m, d) float64 block (9.6 MB).
        assert self.peak(lipschitz_estimate, net, src, tgt, scn,
                         PerturbConfig(rho=0.3, k=5)) < m * src.d * 8
