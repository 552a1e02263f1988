from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

import scdr.factorization as factorization
import scdr.mapping as mapping
from scdr.data import CdrScenario, DomainDataset, SyntheticSpec, generate_synthetic
from scdr.errors import DivergenceError, MissingInputError, ValidationError
from scdr.factorization import FactorModel, TrainConfig
from scdr.mapping import (
    SUPERVISION_EMBEDDING,
    MappingGradient,
    MappingNet,
    ScdrTrainConfig,
    _embedding_target,
    _kernel,
    _rating_target,
    _user_blocks,
    _WorstCase,
    _worst_case,
    emcdr_train,
    forward,
    init_mapping_net,
    load_mapping,
    mapping_backward,
    save_mapping,
    scdr_train,
)
from scdr.perturbation import PerturbConfig, find_delta, memo_last_point

from conftest import (count_ascent_work, load_records, minor_faults, rewrite_header,
                      rewrite_record, same_bits,
                      set_chunk_rows, uneven_scenario)


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
    """The batched loss/input-gradient pair shares one kernel pass per point;
    a gradient asked for at a point the loss never saw must still be exact,
    row by row."""

    def test_rating_gradient_at_unseen_point(self, rng):
        net = random_net(rng)
        counts = np.array([3, 1, 5])
        items, ratings = rng.normal(size=(9, 4)), rng.normal(3.0, 1.0, size=9)
        pair = _WorstCase(net, _rating_target(items, ratings, counts))
        u, other = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        pair.loss_at(other)
        grad = pair.grad_at(u)
        total = 0.0
        for i, end in enumerate(np.cumsum(counts)):
            rows = slice(end - counts[i], end)
            res = ratings[rows] - items[rows] @ forward(net, u[i])
            expected = mapping_backward(net, u[i], -2.0 * (items[rows].T @ res)).u
            assert np.allclose(grad[i], expected, rtol=1e-12, atol=1e-14)
            total += float(res @ res)
        assert pair.loss_at(u) == pytest.approx(total, rel=1e-12)

    def test_embedding_gradient_at_unseen_point(self, rng):
        net = random_net(rng)
        targets = rng.normal(size=(3, 4))
        pair = _WorstCase(net, _embedding_target(targets))
        u, other = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        pair.loss_at(other)
        grad = pair.grad_at(u)
        total = 0.0
        for i in range(3):
            diff = forward(net, u[i]) - targets[i]
            expected = mapping_backward(net, u[i], (2.0 / 4) * diff).u
            assert np.allclose(grad[i], expected, rtol=1e-12, atol=1e-14)
            total += float(diff @ diff) / 4
        assert pair.loss_at(u) == pytest.approx(total, rel=1e-12)


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

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_hidden_width_checked(self, hidden):
        scn, _, src, tgt = identity_scenario()
        with pytest.raises(ValidationError, match=f"hidden width must be >= 1, got {hidden}"):
            emcdr_train(scn, src, tgt, TrainConfig(epochs=1, dim=10, seed=0), hidden=hidden)


def scdr_loss(net, u_src, target_items, perturb):
    """One user's worst-case rating loss inside the ball, as the trainer finds it.

    ``target_items`` lists the user's (item vector, rating) pairs.
    """
    v_rows = np.array([v for v, _ in target_items], dtype=np.float64)
    ratings = np.array([r for _, r in target_items], dtype=np.float64)
    target = _rating_target(v_rows, ratings, np.array([ratings.size]))
    point = _worst_case(net, target, np.asarray(u_src, dtype=np.float64)[None], perturb)
    return float(_kernel(net, point, target).loss[0])


def unrated_train_user_scenario():
    """A scenario whose one train user has no target-domain interactions."""
    src = DomainDataset(("u0", "u1"), ("s0",), [0, 1], [0, 0], [1.0, 2.0])
    tgt = DomainDataset(("u0", "u1"), ("t0",), [1], [0], [3.0])
    return CdrScenario(src, tgt, [(0, 0), (1, 1)], 0.5, 0,
                       train_pairs=[(0, 0)], test_pairs=[(1, 1)])


class TestScdrLoss:
    """The sharpness-aware rating loss through ``_worst_case``, the code that trains."""

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

    def test_empty_items_rejected(self):
        # a train user without target items has no rating loss to train on
        scn = unrated_train_user_scenario()
        src = FactorModel(np.ones((2, 3)), np.ones((1, 3)), 3)
        tgt = FactorModel(np.ones((2, 3)), np.ones((1, 3)), 3)
        with pytest.raises(ValidationError, match="train user u0 has no target interactions"):
            scdr_train(scn, src, tgt, ScdrTrainConfig(
                base=TrainConfig(epochs=1, dim=3, seed=0), perturb=PerturbConfig(rho=0.1, k=1)))


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

    def test_access_log_only_queries_train_users(self):
        # instrumented dataset: record which target users the trainers read
        scn, _, src, tgt = identity_scenario()
        log: list[int] = []

        class LoggingDataset(DomainDataset):
            def user_interactions(self, users):
                log.extend(np.asarray(users).tolist())
                return super().user_interactions(users)

        logged = LoggingDataset(scn.target.users, scn.target.items, scn.target.user_index,
                                scn.target.item_index, scn.target.rating)
        logged_scn = CdrScenario(scn.source, logged, scn.overlap, scn.beta, scn.seed,
                                 scn.train_pairs, scn.test_pairs)
        scdr_train(logged_scn, src, tgt, ScdrTrainConfig(
            base=TrainConfig(epochs=3, dim=10, seed=1), perturb=PerturbConfig(rho=0.1, k=1)))
        # a trainer that stopped reading through user_interactions would pass vacuously
        assert log
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
    """Cold-start inference: a user's source row mapped through ``forward``."""

    def test_zero_net_zero_embedding(self):
        src = FactorModel(np.ones((3, 3)), np.ones((2, 3)), 3)
        assert np.array_equal(forward(zero_net(3, 4), src.U[1]), np.zeros(3))

    def test_pure_function(self, rng):
        net = random_net(rng)
        src = FactorModel(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), 4)
        a = forward(net, src.U[2])
        b = forward(net, src.U[2])
        assert np.array_equal(a, b)

    def test_recovers_planted_target_latents(self):
        scn, sc, src, tgt = identity_scenario()
        res = emcdr_train(scn, src, tgt, TrainConfig(epochs=800, dim=10, seed=5))
        s, t = np.array(scn.test_pairs).T
        errs = np.linalg.norm(forward(res.net, src.U[s]) - sc.target_user_latents[t], axis=1)
        assert float(np.mean(errs)) < 0.1


class TestMappingCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = random_net(rng)
        p = tmp_path / "net.npy"
        save_mapping(net, p, config={"seed": 3})
        back, doc, sha = load_mapping(p)
        assert sha == hashlib.sha256(p.read_bytes()).hexdigest()
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(back, name).tobytes() == getattr(net, name).tobytes(), name
        assert doc["config"]["seed"] == 3

    def test_records_are_a_header_and_four_float64_arrays(self, tmp_path, rng):
        net = random_net(rng)
        p = tmp_path / "net.npy"
        save_mapping(net, p)
        head, *arrays = load_records(p, 5)
        assert sorted(json.loads(head.item())) == [
            "activation", "config", "d", "format_version", "hidden", "kind", "records"]
        assert [(a.dtype.str, a.shape) for a in arrays] == [
            ("<f8", net.W1.shape), ("<f8", net.b1.shape), ("<f8", net.W2.shape),
            ("<f8", net.b2.shape)]
        with open(p, "rb") as fh:
            for _ in range(5):
                np.load(fh)
            assert fh.read() == b""

    def test_input_digests_are_checked(self, tmp_path, rng):
        inputs = {"source_model": "a" * 64, "target_model": "b" * 64}
        p = tmp_path / "net.npy"
        save_mapping(random_net(rng), p, inputs=inputs)
        _, doc, _ = load_mapping(p, inputs)
        assert doc["inputs"] == inputs and doc["format_version"] == 5
        for other in ({**inputs, "target_model": "c" * 64}, {}):
            with pytest.raises(ValidationError, match="stale mapping checkpoint") as exc:
                load_mapping(p, other)
            assert str(p) in str(exc.value)

    def test_missing(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_mapping(tmp_path / "none.npy")

    def test_other_activation_rejected(self, tmp_path, rng):
        p = tmp_path / "net.npy"
        save_mapping(random_net(rng), p)
        assert load_mapping(p)[1]["activation"] == "tanh"
        rewrite_header(p, 5, activation="relu")
        with pytest.raises(ValidationError, match="unsupported activation 'relu'") as exc:
            load_mapping(p)
        assert str(p) in str(exc.value)

    def test_missing_activation_rejected(self, tmp_path, rng):
        p = tmp_path / "net.npy"
        save_mapping(random_net(rng), p)
        rewrite_record(p, 5, 0, lambda head: np.array(json.dumps(
            {k: v for k, v in json.loads(head.item()).items() if k != "activation"})))
        with pytest.raises(ValidationError, match="missing key 'activation'") as exc:
            load_mapping(p)
        assert str(p) in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        p = tmp_path / "net.npy"
        save_mapping(random_net(rng), p)
        with open(p, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValidationError, match="trailing bytes after array 4") as exc:
            load_mapping(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize("key", ["d", "hidden"])
    @pytest.mark.parametrize("value", [3.9, "3", True])
    def test_metadata_numbers_are_strict(self, tmp_path, key, value):
        p = tmp_path / "net.npy"
        save_mapping(zero_net(d=3, h=3), p)
        rewrite_header(p, 5, **{key: value})
        with pytest.raises(ValidationError, match=f"{key} must be a finite int") as exc:
            load_mapping(p)
        assert str(p) in str(exc.value)


def equivalence_scenario():
    spec = SyntheticSpec(users=200, items=80, overlap_ratio=0.5, dim=6, noise=0.2,
                         map_kind="tanh", seed=11, beta=0.4, ratings_per_user=20)
    scn, sc = generate_synthetic(spec)
    src = FactorModel(sc.source_user_latents, sc.source_item_latents, 6)
    tgt = FactorModel(sc.target_user_latents, sc.target_item_latents, 6)
    return scn, src, tgt


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBatchedEquivalence:
    """The batched trainers reproduce the per-user reference trainer (at the
    end of this file) up to float summation order."""

    @pytest.mark.parametrize("method,batch_size,tune,supervision,k", [
        ("emcdr", 16, False, "embedding", 0),
        ("scdr", 16, True, "rating", 3),
        ("scdr", 16, False, "rating", 3),
        ("scdr", 16, True, "embedding", 3),
        ("scdr", 1, True, "rating", 2),
        ("scdr", 1000, True, "rating", 3),
    ])
    def test_matches_per_user_reference(self, method, batch_size, tune, supervision, k):
        scn, src, tgt = equivalence_scenario()
        assert 16 < len(scn.train_pairs) < 1000  # a proper mini-batch, and one past the split
        base = TrainConfig(epochs=8, batch_size=batch_size, dim=6, seed=2)
        perturb = PerturbConfig(rho=0.3, k=k)
        if method == "emcdr":
            res = emcdr_train(scn, src, tgt, base)
            net, tuned, trace = res.net, src.U, res.loss_trace
            ref = _train_mapping(scn, src, tgt, base, None, False, SUPERVISION_EMBEDDING, 50)
        else:
            res = scdr_train(scn, src, tgt, ScdrTrainConfig(
                base=base, perturb=perturb, tune_source_embeddings=tune,
                supervision=supervision))
            net, tuned, trace = res.net, res.tuned_source_U, res.loss_trace
            ref = _train_mapping(scn, src, tgt, base, perturb, tune, supervision, 50)
        ref_net, ref_tuned, ref_trace = ref
        for got, want in ((net.W1, ref_net.W1), (net.b1, ref_net.b1),
                          (net.W2, ref_net.W2), (net.b2, ref_net.b2),
                          (tuned, ref_tuned), (trace, ref_trace)):
            assert_close(got, want)
        assert tune == (not np.array_equal(tuned, src.U))


class TestUserBlocks:
    @pytest.mark.parametrize("rows", [1, 3, 7, 45])
    def test_blocks_tile_whole_users(self, monkeypatch, rows):
        counts = np.random.default_rng(rows).integers(1, 20, size=40)
        counts[5] = 60  # one user larger than every block
        set_chunk_rows(monkeypatch, rows)
        blocks = list(_user_blocks(counts))
        ends = np.cumsum(counts)
        assert blocks[0][0].start == blocks[0][1].start == 0
        for (users, span), (after, _) in zip(blocks, blocks[1:] + [(slice(40, None), None)]):
            assert users.stop == after.start > users.start
            assert span.start == ends[users.start] - counts[users.start]
            assert span.stop == ends[users.stop - 1]
            # at most one block of rows, unless the block is one user
            assert span.stop - span.start <= rows or users.stop - users.start == 1
            # and as many users as fit
            if users.stop < 40:
                assert ends[users.stop] - span.start > rows


class TestBlockBoundaries:
    """Training with any block size gives the bits of one block."""

    @pytest.mark.parametrize("rows", [1, 7, 45])
    @pytest.mark.parametrize("tune", [True, False])
    def test_scdr_train_bitwise_equal_to_one_block(self, monkeypatch, rows, tune):
        spec = SyntheticSpec(users=120, items=60, overlap_ratio=0.5, dim=5, noise=0.2,
                             map_kind="tanh", seed=9, beta=0.3, ratings_per_user=20)
        scn, sc = uneven_scenario(spec)
        src = FactorModel(sc.source_user_latents, sc.source_item_latents, 5)
        tgt = FactorModel(sc.target_user_latents, sc.target_item_latents, 5)
        config = ScdrTrainConfig(base=TrainConfig(epochs=3, batch_size=8, dim=5, seed=4),
                                 perturb=PerturbConfig(rho=0.3, k=3), tune_source_embeddings=tune)

        def trained():
            res = scdr_train(scn, src, tgt, config)
            return ([p.tobytes() for p in (res.net.W1, res.net.b1, res.net.W2, res.net.b2)],
                    res.tuned_source_U.tobytes(), res.loss_trace)

        set_chunk_rows(monkeypatch, 10**9)
        want = trained()
        set_chunk_rows(monkeypatch, rows)
        assert trained() == want


class TestPerRowPick:
    """One batched ascent picks, per row, the iterate that a separate one-row
    find_delta call picks: the origin, a mid-path iterate or the last one."""

    def test_pick_matches_one_row_ascents(self):
        # f(u)_0 = tanh(u_0) - tanh(u_0 - 2) peaks at u_0 = 1 and is symmetric
        # about it; with rating -10 a row's loss is (10 + f_0)^2, so each row
        # climbs toward u_0 = 1 in steps of 0.5.
        net = MappingNet(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.0, -2.0]),
                         np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros(2))
        origin = np.array([
            [1.125, 0.0],   # overshoots to 0.625 and back: the origin is best
            [0.375, 0.0],   # 0.875 (step 1) is the highest point of its path
            [-3.0, 0.0],    # every step climbs: the last step is best
            [0.75, 0.0],    # 1.25 ties the origin exactly; a tie does not move it
        ])
        counts = np.ones(4, dtype=int)
        items, ratings = np.tile([1.0, 0.0], (4, 1)), np.full(4, -10.0)
        cfg = PerturbConfig(rho=2.5, k=3, alpha=0.5)
        pick = _worst_case(net, _rating_target(items, ratings, counts), origin, cfg)

        best_steps = []
        for i in range(4):
            loss_at, grad_at = _rating_closures(net, items[i:i + 1], ratings[i:i + 1])
            seen = []

            def recording(u, loss_at=loss_at, seen=seen):
                seen.append(loss_at(u))
                return seen[-1]

            delta = find_delta(recording, grad_at, origin[i], cfg).delta
            best_steps.append(int(np.argmax(seen)))
            assert np.allclose(pick[i] - origin[i], delta, rtol=0.0, atol=1e-12)
        assert best_steps == [0, 1, 3, 0]
        assert np.array_equal(pick[3], origin[3])

    def test_random_rows_match_one_row_ascents(self, rng):
        net = random_net(rng)
        counts = rng.integers(1, 5, size=30)
        items = rng.normal(size=(int(counts.sum()), 4))
        ratings = rng.normal(3.0, 1.0, size=int(counts.sum()))
        origin = rng.normal(size=(30, 4))
        cfg = PerturbConfig(rho=0.5, k=5)
        pick = _worst_case(net, _rating_target(items, ratings, counts), origin, cfg)
        for i, end in enumerate(np.cumsum(counts)):
            rows = slice(end - counts[i], end)
            loss_at, grad_at = _rating_closures(net, items[rows], ratings[rows])
            delta = find_delta(loss_at, grad_at, origin[i], cfg).delta
            assert np.allclose(pick[i] - origin[i], delta, rtol=0.0, atol=1e-12)


class TestBatchDivergence:
    def test_one_row_overflowing_mid_ascent_raises(self):
        # row 1's loss is finite at the origin (about 1.77e308) and overflows
        # once the first ascent step pushes its prediction away from the rating
        net = MappingNet(np.array([[1.0, 0.0]]), np.zeros(1),
                         np.array([[1e153], [0.0]]), np.zeros(2))
        items = np.array([[1.0, 0.0], [1.0, 0.0]])
        ratings = np.array([1.0, 1.33e154])
        target = _rating_target(items, ratings, np.ones(2, dtype=int))
        origin = np.zeros((2, 2))
        pair = _WorstCase(net, target)
        assert math.isfinite(pair.loss_at(origin))
        assert np.isfinite(pair.grad_at(origin)).all()
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="ascent step 0"):
            _worst_case(net, target, origin, PerturbConfig(rho=0.5, k=2))


def raising_on_call(fn, n):
    """``fn``, except that its ``n``-th call raises a DivergenceError that names no epoch."""
    calls = []

    def call(*args):
        calls.append(None)
        if len(calls) == n:
            raise DivergenceError("injected")
        return fn(*args)

    return call


# each trainer on equivalence_scenario(), given the shared TrainConfig
LOOP_TRAINERS = {
    "train_mf": lambda scn, src, tgt, base: factorization.train_mf(scn.source, base),
    "train_smf": lambda scn, src, tgt, base: factorization.train_smf(
        scn.source, base, PerturbConfig(rho=0.05, k=2)),
    "emcdr_train": lambda scn, src, tgt, base: emcdr_train(scn, src, tgt, base),
    "scdr_train": lambda scn, src, tgt, base: scdr_train(scn, src, tgt, ScdrTrainConfig(
        base=base, perturb=PerturbConfig(rho=0.3, k=2))),
}


class TestSharedLoop:
    @pytest.mark.parametrize("trainer", LOOP_TRAINERS)
    def test_step_divergence_names_the_epoch(self, monkeypatch, trainer):
        """A DivergenceError from any batch step leaves the loop with its epoch and rate.

        The error is raised in the first step of epoch 1: by the factor SGD
        step, or by the mapping trainers' per-batch supervision gather.
        """
        scn, src, tgt = equivalence_scenario()
        base = TrainConfig(epochs=3, batch_size=64, dim=6, seed=2)
        if trainer in ("train_mf", "train_smf"):
            first_of_epoch_1 = -(-scn.source.n_interactions // base.batch_size) + 1
            monkeypatch.setattr(factorization, "_sgd_step",
                                raising_on_call(factorization._sgd_step, first_of_epoch_1))
        else:
            first_of_epoch_1 = -(-len(scn.train_pairs) // base.batch_size) + 1
            gather = mapping._gather_supervision

            def gather_raising(*args):
                batch, everyone = gather(*args)
                return raising_on_call(batch, first_of_epoch_1), everyone

            monkeypatch.setattr(mapping, "_gather_supervision", gather_raising)
        with pytest.raises(DivergenceError,
                           match=r"^injected \(epoch 1, learning_rate 0\.01\)$") as exc:
            LOOP_TRAINERS[trainer](scn, src, tgt, base)
        assert exc.value.epoch == 1 and exc.value.learning_rate == base.learning_rate
        assert str(exc.value.__cause__) == "injected"


def kernel_case(rng, counts, d=5, hidden=8):
    """A net, its input rows, and each row's ratings and item vectors, flat and gathered."""
    m = int(counts.sum())
    vectors = rng.normal(size=(40, d))
    items = rng.integers(0, 40, size=m).astype(np.int32)
    return (random_net(rng, d, hidden), rng.normal(size=(counts.size, d)), vectors, items,
            rng.normal(3.0, 1.0, size=m))


# counts with single-rating users, and one user of 20 ratings, larger than a 7-row block
KERNEL_COUNTS = np.array([1, 3, 1, 20, 2, 5, 1, 4, 6, 1, 2, 3])


class TestKernelReference:
    """The kernel gives the bits of ``reference_kernel`` and ``reference_rating_target``
    (at the end of this file): losses, all five gradient fields and the ascent's picks,
    whether a gradient is read alone or after the other."""

    @pytest.mark.parametrize("rows", [10**9, 7, 1], ids=["one-block", "7-row-blocks",
                                                          "1-row-blocks"])
    @pytest.mark.parametrize("flat", [False, True], ids=["batch", "items"])
    def test_loss_gradients_and_picks_match_reference(self, monkeypatch, rng, rows, flat):
        set_chunk_rows(monkeypatch, rows)
        net, u, vectors, items, ratings = kernel_case(rng, KERNEL_COUNTS)
        args = ((vectors, ratings, KERNEL_COUNTS, items) if flat
                else (vectors[items], ratings, KERNEL_COUNTS))
        ref = reference_kernel(net, u, reference_rating_target(*args))
        full_first = _kernel(net, u, _rating_target(*args))
        input_first = _kernel(net, u, _rating_target(*args))
        assert same_bits(input_first.grad_u, ref.grad.u)
        for got in (full_first, input_first):
            assert same_bits(got.loss, ref.loss)
            for field in MappingGradient._fields:
                assert same_bits(getattr(got.grad, field), getattr(ref.grad, field)), field
        assert same_bits(full_first.grad_u, ref.grad.u)

        perturb = PerturbConfig(rho=0.4, k=4)
        pick = _worst_case(net, _rating_target(*args), u, perturb)
        monkeypatch.setattr(mapping, "_kernel", reference_kernel)
        assert same_bits(pick, _worst_case(net, reference_rating_target(*args), u, perturb))

    @pytest.mark.parametrize("rows", [10**9, 7])
    def test_scdr_train_matches_reference(self, monkeypatch, rows):
        spec = SyntheticSpec(users=80, items=40, overlap_ratio=0.5, dim=4, noise=0.2,
                             map_kind="tanh", seed=7, beta=0.3, ratings_per_user=12)
        scn, sc = uneven_scenario(spec)
        src = FactorModel(sc.source_user_latents, sc.source_item_latents, 4)
        tgt = FactorModel(sc.target_user_latents, sc.target_item_latents, 4)
        config = ScdrTrainConfig(base=TrainConfig(epochs=3, batch_size=8, dim=4, seed=3),
                                 perturb=PerturbConfig(rho=0.3, k=3), hidden=6)
        set_chunk_rows(monkeypatch, rows)

        def trained():
            res = scdr_train(scn, src, tgt, config)
            return ([p.tobytes() for p in (res.net.W1, res.net.b1, res.net.W2, res.net.b2)],
                    res.tuned_source_U.tobytes(), res.loss_trace)

        got = trained()
        monkeypatch.setattr(mapping, "_kernel", reference_kernel)
        monkeypatch.setattr(mapping, "_rating_target", reference_rating_target)
        assert got == trained()


def fresh_gather_supervision(scenario: CdrScenario, target_model: FactorModel, supervision: str,
                             batch_size: int):
    """``_gather_supervision``'s rating supervision with fresh arrays for every gather."""
    targets = np.array([t for _, t in scenario.train_pairs])
    items, ratings, counts = scenario.target.user_interactions(targets)
    V = target_model.V

    def batch(sel):
        b_items, b_ratings, c = scenario.target.user_interactions(targets[sel])
        return _rating_target(V[b_items], b_ratings, c), int(c.sum())

    return batch, (_rating_target(V, ratings, counts, items), int(counts.sum()))


def synthetic_models(spec):
    """A scenario of ``spec`` and its planted source and target factor models."""
    scn, sc = generate_synthetic(spec)
    return (scn, FactorModel(sc.source_user_latents, sc.source_item_latents, spec.dim),
            FactorModel(sc.target_user_latents, sc.target_item_latents, spec.dim))


class TestSupervisionBuffers:
    """Rating supervision gathers item vectors into buffers allocated once per training."""

    # 7-row blocks leave each user of more ratings alone in a block above CHUNK_ROWS
    @pytest.mark.parametrize("rows", [10**9, 7])
    @pytest.mark.parametrize("batch_size", [8, 13])
    def test_scdr_train_matches_fresh_gathers(self, monkeypatch, rows, batch_size):
        spec = SyntheticSpec(users=80, items=40, overlap_ratio=0.5, dim=4, noise=0.2,
                             map_kind="tanh", seed=7, beta=0.3, ratings_per_user=12)
        scn, sc = uneven_scenario(spec)
        assert len(scn.train_pairs) % batch_size != 0
        src = FactorModel(sc.source_user_latents, sc.source_item_latents, 4)
        tgt = FactorModel(sc.target_user_latents, sc.target_item_latents, 4)
        config = ScdrTrainConfig(base=TrainConfig(epochs=3, batch_size=batch_size, dim=4, seed=3),
                                 perturb=PerturbConfig(rho=0.3, k=3), hidden=6)
        set_chunk_rows(monkeypatch, rows)

        def trained():
            res = scdr_train(scn, src, tgt, config)
            return ([p.tobytes() for p in (res.net.W1, res.net.b1, res.net.W2, res.net.b2)],
                    res.tuned_source_U.tobytes(), res.loss_trace)

        got = trained()
        monkeypatch.setattr(mapping, "_gather_supervision", fresh_gather_supervision)
        assert got == trained()

    def test_target_model_of_other_items_is_refused(self):
        scn, src, tgt = synthetic_models(SyntheticSpec(users=60, items=30, overlap_ratio=0.5,
                                                       dim=3, ratings_per_user=5, seed=2))
        short = FactorModel(tgt.U, tgt.V[:-1], 3)
        config = ScdrTrainConfig(base=TrainConfig(epochs=1, dim=3),
                                 perturb=PerturbConfig(rho=0.3, k=2))
        with pytest.raises(ValidationError,
                           match="^target model has 29 item rows, the target domain 30 items$"):
            scdr_train(scn, src, short, config)

    def test_second_training_does_not_fault_its_batches_again(self):
        """Wide-overlap shape: 800 train users in batches of 7,680 ratings, each gathered
        into 614 KB arrays that malloc maps and unmaps anew. A second 10-epoch training
        took 11,433 minor faults with fresh arrays, and about 310 with the buffers."""
        scn, src, tgt = synthetic_models(SyntheticSpec(users=2000, items=500, overlap_ratio=0.5,
                                                       dim=10, beta=0.2, seed=1))
        config = ScdrTrainConfig(base=TrainConfig(epochs=10, dim=10, seed=1),
                                 perturb=PerturbConfig(rho=0.3, k=5))
        scdr_train(scn, src, tgt, config)
        assert minor_faults(lambda: scdr_train(scn, src, tgt, config)) < 3_000


class TestBackwardWork:
    def test_ascent_and_update_work_per_batch(self, monkeypatch):
        """Each find_delta runs k+1 forward passes and k input-gradient backwards, each
        mini-batch one full parameter gradient, and the epoch loss no backward.

        A faster step must not come from doing less ascent.
        """
        passes, kernel = [], mapping._kernel

        def recording(*args):
            passes.append(kernel(*args))
            return passes[-1]

        monkeypatch.setattr(mapping, "_kernel", recording)
        counts = count_ascent_work(monkeypatch, mapping)
        scn, src, tgt = equivalence_scenario()
        base, k = TrainConfig(epochs=2, batch_size=16, dim=6, seed=2), 3
        scdr_train(scn, src, tgt, ScdrTrainConfig(base=base, perturb=PerturbConfig(rho=0.3, k=k)))
        n = len(scn.train_pairs)
        assert n % base.batch_size != 0
        batches = base.epochs * -(-n // base.batch_size)
        assert counts == {"calls": batches, "loss": batches * (k + 1), "grad": batches * k}
        read = Counter("full" if "grad" in vars(p) else "input" if "grad_u" in vars(p) else "none"
                       for p in passes)
        # loss alone: each ascent's last iterate, each epoch's loss and the untrained bound
        assert read == {"full": batches, "input": batches * k,
                        "none": batches + base.epochs + 1}


# ---------------------------------------------------------------------------
# Reference: the per-user mapping trainer that the batched one replaced, kept
# verbatim apart from the removed output-space branch. One find_delta call per
# user, one forward/backward per user, gradients accumulated in a Python loop.
# ---------------------------------------------------------------------------

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


def _gather_supervision(scenario: CdrScenario, target_model: FactorModel, supervision: str):
    """Per train-user supervision payloads, frozen snapshots of target-side data."""
    if supervision == SUPERVISION_EMBEDDING:
        return [target_model.U[t].copy() for _, t in scenario.train_pairs]
    payload = []
    for _, t in scenario.train_pairs:
        pos = np.flatnonzero(scenario.target.user_index == t)
        items, ratings = scenario.target.item_index[pos], scenario.target.rating[pos]
        if items.size == 0:
            raise ValidationError(f"train user {scenario.target.users[t]} has no target interactions")
        payload.append((target_model.V[items].copy(), ratings.copy()))
    return payload


# overflow on the way to the divergence guard is expected, not a warning
@np.errstate(over="ignore", invalid="ignore")
def _train_mapping(scenario: CdrScenario, source_model: FactorModel, target_model: FactorModel,
                   base: TrainConfig, perturb: PerturbConfig | None, tune_source: bool,
                   supervision: str, hidden: int):
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


# ---------------------------------------------------------------------------
# Reference: the mapping kernel and rating target as they were before the
# backward ran on demand, kept verbatim apart from the ``grad_u`` accessor
# that the trainer and the ascent now read. Every pass runs the full
# backward; the rating gradient sums row-major (ratings, d) blocks.
# ---------------------------------------------------------------------------

class _ReferencePass(NamedTuple):
    """One forward and backward pass of the net over a block of rows."""

    loss: np.ndarray        # (n,) per-row loss
    grad: MappingGradient   # parameter gradients summed over rows; ``u`` per row

    @property
    def grad_u(self):
        return self.grad.u


def reference_kernel(net: MappingNet, u: np.ndarray, target) -> _ReferencePass:
    a, y = mapping._forward(net, u)
    loss, up = target(y)
    g_w2 = up.T @ a
    # a becomes tanh's derivative 1 - a * a in place, as does dz its product with up @ W2
    a *= a
    np.subtract(1.0, a, out=a)
    dz = up @ net.W2
    dz *= a
    grad = MappingGradient(dz.T @ u, np.add.reduce(dz), g_w2, np.add.reduce(up), dz @ net.W1)
    return _ReferencePass(loss, grad)


def reference_rating_target(vectors: np.ndarray, ratings: np.ndarray, counts: np.ndarray,
                            items: np.ndarray | None = None, scratch: np.ndarray | None = None):
    """``_rating_target`` from fresh arrays; ``scratch`` is taken and never read."""
    blocks = []
    for rows, span in _user_blocks(counts):
        c = counts[rows]
        blocks.append((rows, span, np.cumsum(c) - c, c))

    def at(y):
        loss = np.empty(counts.size)
        grad = np.empty_like(y)
        for rows, span, starts, c in blocks:
            v = vectors[span] if items is None else vectors[items[span]]
            owner = np.repeat(y[rows], c, axis=0)
            res = ratings[span] - np.einsum("ij,ij->i", v, owner)
            np.add.reduceat(res * res, starts, out=loss[rows])
            # v * res[:, None], written over the repeated outputs
            np.multiply(v, res[:, None], out=owner)
            np.add.reduceat(owner, starts, axis=0, out=grad[rows])
        grad *= -2.0
        return loss, grad

    return at
