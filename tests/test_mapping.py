from __future__ import annotations

import numpy as np
import pytest

from scdr.data import CdrScenario, DomainDataset, SyntheticSpec, generate_synthetic
from scdr.errors import DivergenceError, MissingInputError, ValidationError
from scdr.factorization import FactorModel, TrainConfig
from scdr.mapping import (
    MappingNet,
    _embedding_closures,
    _rating_closures,
    ScdrTrainConfig,
    emcdr_train,
    forward,
    infer_cold_start,
    init_mapping_net,
    load_mapping,
    mapping_backward,
    save_mapping,
    scdr_loss,
    scdr_train,
)
from scdr.perturbation import PerturbConfig


def zero_net(d=3, h=4):
    return MappingNet(np.zeros((h, d)), np.zeros(h), np.zeros((d, h)), np.zeros(d))


def random_net(rng, d=4, h=6):
    return MappingNet(rng.normal(size=(h, d)), rng.normal(size=h),
                      rng.normal(size=(d, h)), rng.normal(size=d))


def identity_scenario(seed=5):
    spec = SyntheticSpec(users=300, items=120, overlap_ratio=0.5, dim=10, noise=0.0,
                         map_kind="identity", seed=seed, beta=0.4, ratings_per_user=40)
    scn, sc = generate_synthetic(spec)
    src = FactorModel(sc.source_user_latents, sc.source_item_latents, 10)
    tgt = FactorModel(sc.target_user_latents, sc.target_item_latents, 10)
    return scn, sc, src, tgt


def scalar_forward(net, u):
    h = len(net.b1)
    d = len(net.b2)
    hidden = []
    for i in range(h):
        z = float(net.b1[i])
        for j in range(d):
            z += float(net.W1[i, j]) * float(u[j])
        hidden.append(np.tanh(z))
    out = []
    for i in range(d):
        z = float(net.b2[i])
        for j in range(h):
            z += float(net.W2[i, j]) * hidden[j]
        out.append(z)
    return np.array(out)


class TestForward:
    def test_zero_network(self, rng):
        net = zero_net()
        for _ in range(3):
            assert np.array_equal(forward(net, rng.normal(size=3)), np.zeros(3))

    def test_tanh_of_zero(self):
        net = MappingNet(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        assert np.array_equal(forward(net, np.zeros(3)), np.zeros(3))

    def test_scalar_loop_oracle(self, rng):
        net = random_net(rng)
        u = rng.normal(size=4)
        assert np.allclose(forward(net, u), scalar_forward(net, u), atol=1e-12, rtol=0)

    def test_batch_rows(self, rng):
        net = random_net(rng)
        batch = rng.normal(size=(5, 4))
        out = forward(net, batch)
        assert out.shape == (5, 4)
        for i in range(5):
            assert np.allclose(out[i], forward(net, batch[i]), atol=1e-12, rtol=0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            forward(random_net(rng), np.zeros(5))

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            MappingNet(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValidationError):
            MappingNet(np.zeros((4, 3)), np.zeros(4), np.zeros((3, 4)), np.zeros(3),
                       activation="relu")


def fd_mapping_gradients(net, u, upstream, h=1e-5):
    """Central differences of L = <upstream, f(u)> over parameters and input."""

    def loss():
        return float(np.dot(upstream, forward(net, u)))

    grads = []
    for arr in (net.W1, net.b1, net.W2, net.b2):
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss()
            arr[idx] = orig - h
            down = loss()
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    gu = np.zeros_like(u)
    for j in range(u.size):
        orig = u[j]
        u[j] = orig + h
        up = loss()
        u[j] = orig - h
        down = loss()
        u[j] = orig
        gu[j] = (up - down) / (2 * h)
    grads.append(gu)
    return grads


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


class TestBackward:
    def test_zero_upstream(self, rng):
        net = random_net(rng)
        g = mapping_backward(net, rng.normal(size=4), np.zeros(4))
        for arr in g:
            assert np.all(arr == 0.0)

    def test_zero_network_hand_case(self, rng):
        net = zero_net()
        up = rng.normal(size=3)
        g = mapping_backward(net, rng.normal(size=3), up)
        assert np.array_equal(g.b2, up)
        assert np.all(g.W1 == 0.0) and np.all(g.b1 == 0.0)
        assert np.all(g.W2 == 0.0) and np.all(g.u == 0.0)

    def test_matches_finite_differences(self, rng):
        net = random_net(rng)
        u = rng.normal(size=4)
        upstream = rng.normal(size=4)
        got = mapping_backward(net, u, upstream)
        fd = fd_mapping_gradients(net, u, upstream)
        for a, b in zip(got, fd):
            assert max_rel_err(a, b) < 1e-5

    def test_shape_errors(self, rng):
        net = random_net(rng)
        with pytest.raises(ValidationError):
            mapping_backward(net, np.zeros(3), np.zeros(4))
        with pytest.raises(ValidationError):
            mapping_backward(net, np.zeros(4), np.zeros(3))


class TestAscentClosures:
    """The loss/input-gradient pairs share one forward pass per point; a
    gradient asked for at a point the loss never saw must still be exact."""

    def test_rating_gradient_at_unseen_point(self, rng):
        net = random_net(rng)
        v_rows, ratings = rng.normal(size=(5, 4)), rng.normal(3.0, 1.0, size=5)
        loss_at, grad_at = _rating_closures(net, v_rows, ratings)
        u, other = rng.normal(size=4), rng.normal(size=4)
        loss_at(other)
        res = ratings - v_rows @ forward(net, u)
        expected = mapping_backward(net, u, -2.0 * (v_rows.T @ res)).u
        assert np.allclose(grad_at(u), expected, rtol=1e-12, atol=0.0)
        assert loss_at(u) == pytest.approx(float(res @ res), rel=1e-12)

    def test_embedding_gradient_at_unseen_point(self, rng):
        net = random_net(rng)
        target = rng.normal(size=4)
        loss_at, grad_at = _embedding_closures(net, target)
        u, other = rng.normal(size=4), rng.normal(size=4)
        loss_at(other)
        diff = forward(net, u) - target
        expected = mapping_backward(net, u, (2.0 / 4) * diff).u
        assert np.allclose(grad_at(u), expected, rtol=1e-12, atol=0.0)
        assert loss_at(u) == pytest.approx(float(diff @ diff) / 4, rel=1e-12)


class TestEmcdrTrain:
    def test_identity_map_converges(self):
        scn, _, src, tgt = identity_scenario()
        res = emcdr_train(scn, src, tgt, TrainConfig(epochs=500, dim=10, seed=5))
        per_user_mse = res.loss_trace[-1] / len(scn.train_pairs)
        assert per_user_mse < 1e-3

    def test_zero_epochs_returns_initialization(self):
        scn, _, src, tgt = identity_scenario()
        res = emcdr_train(scn, src, tgt, TrainConfig(epochs=0, dim=10, seed=21))
        expect = init_mapping_net(10, 50, np.random.default_rng(21))
        assert np.array_equal(res.net.W1, expect.W1)
        assert np.array_equal(res.net.W2, expect.W2)
        assert np.all(res.net.b1 == 0.0) and np.all(res.net.b2 == 0.0)

    def test_deterministic(self):
        scn, _, src, tgt = identity_scenario()
        cfg = TrainConfig(epochs=30, dim=10, seed=2)
        a, b = emcdr_train(scn, src, tgt, cfg), emcdr_train(scn, src, tgt, cfg)
        assert np.array_equal(a.net.W1, b.net.W1) and np.array_equal(a.net.b2, b.net.b2)

    def test_latent_dim_mismatch(self):
        scn, _, src, _ = identity_scenario()
        bad = FactorModel(np.zeros((scn.target.n_users, 4)), np.zeros((scn.target.n_items, 4)), 4)
        with pytest.raises(ValidationError):
            emcdr_train(scn, src, bad, TrainConfig(epochs=1, dim=10, seed=0))

    def test_empty_train_split_rejected(self):
        scn, _, src, tgt = identity_scenario()
        empty = CdrScenario(scn.source, scn.target, scn.overlap, scn.beta, scn.seed,
                            train_pairs=[], test_pairs=list(scn.overlap))
        with pytest.raises(ValidationError):
            emcdr_train(empty, src, tgt, TrainConfig(epochs=1, dim=10, seed=0))

    def test_divergence_guard(self):
        scn, _, src, tgt = identity_scenario()
        with pytest.raises(DivergenceError) as exc:
            emcdr_train(scn, src, tgt, TrainConfig(epochs=50, learning_rate=50.0, dim=10, seed=0))
        assert exc.value.epoch is not None


class TestScdrLoss:
    def test_k_zero_equals_unperturbed(self, rng):
        net = random_net(rng)
        u = rng.normal(size=4)
        items = [(rng.normal(size=4), float(rng.uniform(1, 5))) for _ in range(3)]
        got = scdr_loss(net, u, items, PerturbConfig(rho=1.0, k=0))
        y = forward(net, u)
        expect = sum((r - float(np.dot(y, v))) ** 2 for v, r in items)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_perfect_predictions_zero_ball(self, rng):
        net = random_net(rng)
        u = rng.normal(size=4)
        y = forward(net, u)
        items = [(v, float(np.dot(y, v))) for v in rng.normal(size=(3, 4))]
        assert scdr_loss(net, u, items, PerturbConfig(rho=0.0, k=5)) == 0.0

    def test_grid_search_oracle(self, rng):
        # near-identity net keeps the composed loss effectively a single-triple
        # rating loss, where the margined instance family bounds sign ascent
        c = 1e-6
        w1 = np.zeros((8, 2))
        w1[:2, :2] = c * np.eye(2)
        w2 = np.zeros((2, 8))
        w2[:2, :2] = (1.0 / c) * np.eye(2)
        net = MappingNet(w1, np.zeros(8), w2, np.zeros(2))
        v = np.array([0.9, 0.35])
        u = np.array([0.4, -0.2])
        rating = float(np.dot(u, v)) + 6.0
        pert_cfg = PerturbConfig(rho=0.25, k=5)
        got = scdr_loss(net, u, [(v, rating)], pert_cfg)

        def loss_at(point):
            y = forward(net, point)
            return float((rating - np.dot(y, v)) ** 2)

        best = loss_at(u)
        offsets = np.arange(-0.25, 0.2501, 0.01)
        for dx in offsets:
            for dy in offsets:
                if dx * dx + dy * dy <= 0.25 ** 2:
                    best = max(best, loss_at(u + np.array([dx, dy])))
        assert got >= 0.95 * best

    def test_empty_items_rejected(self, rng):
        with pytest.raises(ValidationError):
            scdr_loss(random_net(rng), np.zeros(4), [], PerturbConfig(rho=0.1, k=1))


class TestScdrTrain:
    def test_reduction_to_emcdr_bitwise(self):
        scn, _, src, tgt = identity_scenario()
        cfg = TrainConfig(epochs=40, dim=10, seed=3)
        baseline = emcdr_train(scn, src, tgt, cfg)
        reduced = scdr_train(scn, src, tgt, ScdrTrainConfig(
            base=cfg, perturb=PerturbConfig(rho=0.4, k=0),
            tune_source_embeddings=False, supervision="embedding"))
        assert np.array_equal(baseline.net.W1, reduced.net.W1)
        assert np.array_equal(baseline.net.b1, reduced.net.b1)
        assert np.array_equal(baseline.net.W2, reduced.net.W2)
        assert np.array_equal(baseline.net.b2, reduced.net.b2)
        assert np.array_equal(reduced.tuned_source_U, src.U)
        assert baseline.loss_trace == reduced.loss_trace

    def test_identity_map_cold_start_mae(self):
        from scdr.analysis import evaluate
        scn, _, src, tgt = identity_scenario()
        res = scdr_train(scn, src, tgt, ScdrTrainConfig(
            base=TrainConfig(epochs=600, learning_rate=0.03, dim=10, seed=5),
            perturb=PerturbConfig(rho=0.05, k=3)))
        report = evaluate(res.net, src, tgt, scn)
        assert report.mae < 0.2

    def test_deterministic(self):
        scn, _, src, tgt = identity_scenario()
        cfg = ScdrTrainConfig(base=TrainConfig(epochs=20, dim=10, seed=6),
                              perturb=PerturbConfig(rho=0.1, k=2))
        a, b = scdr_train(scn, src, tgt, cfg), scdr_train(scn, src, tgt, cfg)
        assert np.array_equal(a.net.W1, b.net.W1)
        assert np.array_equal(a.tuned_source_U, b.tuned_source_U)

    def test_tunes_only_train_rows(self):
        scn, _, src, tgt = identity_scenario()
        res = scdr_train(scn, src, tgt, ScdrTrainConfig(
            base=TrainConfig(epochs=10, dim=10, seed=1),
            perturb=PerturbConfig(rho=0.1, k=2)))
        train_rows = {s for s, _ in scn.train_pairs}
        untouched = [r for r in range(src.U.shape[0]) if r not in train_rows]
        assert all(np.array_equal(res.tuned_source_U[r], src.U[r]) for r in untouched)
        assert any(not np.array_equal(res.tuned_source_U[r], src.U[r]) for r in train_rows)

    def test_frozen_embeddings_flag(self):
        scn, _, src, tgt = identity_scenario()
        res = scdr_train(scn, src, tgt, ScdrTrainConfig(
            base=TrainConfig(epochs=5, dim=10, seed=1),
            perturb=PerturbConfig(rho=0.1, k=2), tune_source_embeddings=False))
        assert np.array_equal(res.tuned_source_U, src.U)

    def test_never_reads_test_user_target_data(self):
        # poison the withheld ratings and the test users' target embeddings;
        # training output must be bit-identical to the clean run
        scn, _, src, tgt = identity_scenario()
        clean_cfg = ScdrTrainConfig(base=TrainConfig(epochs=15, dim=10, seed=4),
                                    perturb=PerturbConfig(rho=0.1, k=2))
        clean = scdr_train(scn, src, tgt, clean_cfg)
        clean_em = emcdr_train(scn, src, tgt, clean_cfg.base)

        test_tgt_rows = {t for _, t in scn.test_pairs}
        ratings = scn.target.rating.copy()
        poison_mask = np.isin(scn.target.user_index, list(test_tgt_rows))
        ratings[poison_mask] = 999.0
        poisoned_target = DomainDataset(scn.target.users, scn.target.items,
                                        scn.target.user_index, scn.target.item_index,
                                        ratings)
        poisoned_scn = CdrScenario(scn.source, poisoned_target, scn.overlap, scn.beta,
                                   scn.seed, scn.train_pairs, scn.test_pairs)
        tgt_u = tgt.U.copy()
        for t in test_tgt_rows:
            tgt_u[t] = 1e9
        poisoned_tgt = FactorModel(tgt_u, tgt.V, tgt.d)

        poisoned = scdr_train(poisoned_scn, src, poisoned_tgt, clean_cfg)
        assert np.array_equal(clean.net.W1, poisoned.net.W1)
        assert np.array_equal(clean.net.b2, poisoned.net.b2)
        assert np.array_equal(clean.tuned_source_U, poisoned.tuned_source_U)

        poisoned_em = emcdr_train(poisoned_scn, src, poisoned_tgt, clean_cfg.base)
        assert np.array_equal(clean_em.net.W1, poisoned_em.net.W1)
        assert np.array_equal(clean_em.net.b2, poisoned_em.net.b2)

    def test_output_space_variant(self):
        # off by default; with k=0 both readings coincide, with k>0 they differ
        scn, _, src, tgt = identity_scenario()
        base = TrainConfig(epochs=10, dim=10, seed=7)
        entrance = ScdrTrainConfig(base=base, perturb=PerturbConfig(rho=0.2, k=0))
        via_output = ScdrTrainConfig(base=base, perturb=PerturbConfig(rho=0.2, k=0),
                                     perturb_output_space=True)
        a = scdr_train(scn, src, tgt, entrance)
        b = scdr_train(scn, src, tgt, via_output)
        assert np.array_equal(a.net.W1, b.net.W1)

        input_sp = scdr_train(scn, src, tgt, ScdrTrainConfig(
            base=base, perturb=PerturbConfig(rho=0.2, k=3)))
        output_sp = scdr_train(scn, src, tgt, ScdrTrainConfig(
            base=base, perturb=PerturbConfig(rho=0.2, k=3), perturb_output_space=True))
        assert not np.array_equal(input_sp.net.W1, output_sp.net.W1)

    def test_output_space_requires_rating_supervision(self):
        with pytest.raises(ValidationError):
            ScdrTrainConfig(base=TrainConfig(epochs=1, dim=4, seed=0),
                            perturb=PerturbConfig(rho=0.1, k=1),
                            supervision="embedding", perturb_output_space=True)

    def test_access_log_only_queries_train_users(self):
        # instrumented dataset: record which target users the trainers read
        scn, _, src, tgt = identity_scenario()
        log: list[int] = []

        class LoggingDataset(DomainDataset):
            def user_interactions(self, user_index):
                log.append(int(user_index))
                return super().user_interactions(user_index)

        logged = LoggingDataset(scn.target.users, scn.target.items, scn.target.user_index,
                                scn.target.item_index, scn.target.rating)
        logged_scn = CdrScenario(scn.source, logged, scn.overlap, scn.beta, scn.seed,
                                 scn.train_pairs, scn.test_pairs)
        scdr_train(logged_scn, src, tgt, ScdrTrainConfig(
            base=TrainConfig(epochs=3, dim=10, seed=1), perturb=PerturbConfig(rho=0.1, k=1)))
        emcdr_train(logged_scn, src, tgt, TrainConfig(epochs=3, dim=10, seed=1))
        train_targets = {t for _, t in scn.train_pairs}
        assert set(log) <= train_targets
        assert not set(log) & {t for _, t in scn.test_pairs}

    def test_loss_dominance_per_user(self, rng):
        # the inner maximizer never reports less than the unperturbed loss
        net = random_net(rng)
        for _ in range(20):
            u = rng.normal(size=4)
            items = [(rng.normal(size=4), float(rng.uniform(1, 5))) for _ in range(4)]
            pert = PerturbConfig(rho=float(rng.uniform(0.05, 0.5)), k=int(rng.integers(1, 6)))
            perturbed = scdr_loss(net, u, items, pert)
            unperturbed = scdr_loss(net, u, items, PerturbConfig(rho=0.0, k=0))
            assert perturbed >= unperturbed


class TestInference:
    def test_zero_net_zero_embedding(self):
        src = FactorModel(np.ones((3, 3)), np.ones((2, 3)), 3)
        assert np.array_equal(infer_cold_start(zero_net(3, 4), src, 1), np.zeros(3))

    def test_pure_function(self, rng):
        net = random_net(rng)
        src = FactorModel(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), 4)
        a = infer_cold_start(net, src, 2)
        b = infer_cold_start(net, src, 2)
        assert np.array_equal(a, b)

    def test_unknown_user(self, rng):
        net = random_net(rng)
        src = FactorModel(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), 4)
        with pytest.raises(ValidationError):
            infer_cold_start(net, src, 3)

    def test_recovers_planted_target_latents(self):
        scn, sc, src, tgt = identity_scenario()
        res = emcdr_train(scn, src, tgt, TrainConfig(epochs=800, dim=10, seed=5))
        errs = [np.linalg.norm(infer_cold_start(res.net, src, s) - sc.target_user_latents[t])
                for s, t, _, _ in scn.withheld_interactions()]
        assert float(np.mean(errs)) < 0.1


class TestMappingCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = random_net(rng)
        tuned = rng.normal(size=(2, 4))
        p = tmp_path / "net.json"
        save_mapping(net, p, config={"seed": 3}, tuned_users=["a", "b"], tuned_vectors=tuned)
        back, doc = load_mapping(p)
        assert np.array_equal(back.W1, net.W1) and np.array_equal(back.b1, net.b1)
        assert np.array_equal(back.W2, net.W2) and np.array_equal(back.b2, net.b2)
        assert doc["config"]["seed"] == 3
        assert np.array_equal(np.asarray(doc["tuned_source"]["vectors"]), tuned)

    def test_missing(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_mapping(tmp_path / "none.json")

    def test_tuned_fields_must_pair(self, tmp_path, rng):
        with pytest.raises(ValidationError):
            save_mapping(random_net(rng), tmp_path / "x.json", tuned_users=["a"])
