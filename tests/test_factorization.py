from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import scdr.factorization as factorization
from scdr.data import DomainDataset, SyntheticSpec, generate_synthetic
from scdr.errors import DivergenceError, MissingInputError, ValidationError
from scdr.factorization import (
    FactorModel,
    TrainConfig,
    load_factor_model,
    mf_grad,
    mf_loss,
    save_factor_model,
    train_mf,
    train_smf,
)
from scdr.perturbation import PerturbConfig, find_delta

from conftest import count_ascent_work, dataset, minor_faults, rewrite_header, rewrite_record, same_bits


def model_from(u_rows, v_rows):
    u = np.asarray(u_rows, dtype=float)
    v = np.asarray(v_rows, dtype=float)
    return FactorModel(u, v, u.shape[1])


def rank_one_dataset(a=(1.0, 0.8, 1.2, 0.9), b=(1.1, 0.9, 1.0, 1.3)):
    """Noiseless 4x4 ratings from an exact rank-1 matrix."""
    rows = [(f"u{i}", f"i{j}", float(a[i] * b[j])) for i in range(4) for j in range(4)]
    return dataset(rows)


def mse(model, ds):
    resid = ds.rating - np.einsum("ij,ij->i", model.U[ds.user_index], model.V[ds.item_index])
    return float(np.mean(resid ** 2))


class TestLoss:
    def test_zero_residual(self):
        m = model_from([[1.0, 0.0]], [[3.0, 9.9]])
        assert mf_loss(m, [(0, 0, 3.0)]) == 0.0

    def test_hand_arithmetic(self):
        m = model_from([[1.0, 0.0]], [[1.0, 0.0]])
        assert mf_loss(m, [(0, 0, 3.0)]) == 4.0

    def test_scalar_loop_oracle(self, rng):
        m = model_from(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        batch = [(int(rng.integers(3)), int(rng.integers(5)), float(rng.normal(loc=3)))
                 for _ in range(4)]
        expected = 0.0
        for u, v, r in batch:
            pred = sum(float(m.U[u][k]) * float(m.V[v][k]) for k in range(4))
            expected += (r - pred) ** 2
        assert mf_loss(m, batch) == pytest.approx(expected, abs=1e-12)

    def test_weight_decay_counts_touched_rows_once(self):
        m = model_from([[1.0, 2.0]], [[0.5, 0.5], [1.0, 1.0]])
        batch = [(0, 0, 1.0), (0, 1, 2.0)]
        base = mf_loss(m, batch)
        wd = mf_loss(m, batch, weight_decay=0.1)
        norms = float((m.U[0] ** 2).sum() + (m.V[0] ** 2).sum() + (m.V[1] ** 2).sum())
        assert wd == pytest.approx(base + 0.1 * norms, rel=1e-15)

    def test_empty_batch(self):
        m = model_from([[1.0]], [[1.0]])
        with pytest.raises(ValidationError):
            mf_loss(m, [])


def fd_mf_gradient(model, batch, weight_decay, h=1e-5):
    """Central finite differences of mf_loss over every parameter."""
    du = np.zeros_like(model.U)
    dv = np.zeros_like(model.V)
    for mat, out in ((model.U, du), (model.V, dv)):
        for idx in np.ndindex(mat.shape):
            orig = mat[idx]
            mat[idx] = orig + h
            up = mf_loss(model, batch, weight_decay)
            mat[idx] = orig - h
            down = mf_loss(model, batch, weight_decay)
            mat[idx] = orig
            out[idx] = (up - down) / (2 * h)
    return du, dv


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


class TestGrad:
    def test_zero_residual_gradients(self):
        m = model_from([[2.0, 0.0]], [[1.5, 3.0]])
        g = mf_grad(m, [(0, 0, 3.0)])
        assert np.all(g.user_grad == 0.0) and np.all(g.item_grad == 0.0)

    def test_hand_differentiation(self):
        m = model_from([[1.0, 0.0]], [[1.0, 0.0]])
        g = mf_grad(m, [(0, 0, 3.0)])
        assert g.user_grad.tolist() == [[-4.0, 0.0]]
        assert g.item_grad.tolist() == [[-4.0, 0.0]]

    def test_matches_finite_differences(self, rng):
        m = model_from(rng.normal(size=(3, 3)), rng.normal(size=(4, 3)))
        batch = [(0, 1, 2.5), (2, 0, 4.0), (0, 3, 1.0), (1, 1, 3.3), (0, 1, 2.0)][:4]
        for wd in (0.0, 0.2):
            g = mf_grad(m, batch, weight_decay=wd)
            du_fd, dv_fd = fd_mf_gradient(m, batch, wd)
            full_du = np.zeros_like(m.U)
            full_du[g.user_index] = g.user_grad
            full_dv = np.zeros_like(m.V)
            full_dv[g.item_index] = g.item_grad
            assert max_rel_err(full_du, du_fd) < 1e-6
            assert max_rel_err(full_dv, dv_fd) < 1e-6

    def test_untouched_rows_absent(self):
        m = model_from(np.ones((3, 2)), np.ones((3, 2)))
        g = mf_grad(m, [(1, 2, 5.0)])
        assert g.user_index.tolist() == [1] and g.item_index.tolist() == [2]


class TestTrainMf:
    def test_rank_one_recovery(self):
        ds = rank_one_dataset()
        res = train_mf(ds, TrainConfig(epochs=200, dim=2, seed=0))
        assert mse(res.model, ds) < 1e-2
        assert len(res.loss_trace) == 200

    def test_zero_epochs_returns_initialization(self):
        ds = rank_one_dataset()
        cfg = TrainConfig(epochs=0, dim=3, seed=42)
        res = train_mf(ds, cfg)
        rng = np.random.default_rng(42)
        assert np.array_equal(res.model.U, rng.normal(0.0, 0.01, (ds.n_users, 3)))
        assert np.array_equal(res.model.V, rng.normal(0.0, 0.01, (ds.n_items, 3)))
        assert res.loss_trace == []

    def test_deterministic(self):
        ds = rank_one_dataset()
        cfg = TrainConfig(epochs=20, dim=2, seed=7)
        a, b = train_mf(ds, cfg), train_mf(ds, cfg)
        assert np.array_equal(a.model.U, b.model.U)
        assert np.array_equal(a.model.V, b.model.V)
        assert a.loss_trace == b.loss_trace

    def test_divergence_reports_epoch(self):
        ds = rank_one_dataset()
        with pytest.raises(DivergenceError) as exc:
            train_mf(ds, TrainConfig(epochs=200, learning_rate=5.0, dim=2, seed=0))
        assert exc.value.epoch is not None
        assert exc.value.learning_rate == 5.0

    def test_finite_blow_up_stops_at_the_bound(self):
        # the epoch 1 loss is 2.4e4 times the untrained 18.4 and still finite, so only the
        # bound stops it; a guard on non-finite losses alone returned this trace
        ds = rank_one_dataset()
        with pytest.raises(DivergenceError, match=r"^training loss 4\.363e\+05 exceeds 1000 times "
                           r"the untrained model's \(epoch 1, learning_rate 1\.0\)$") as exc:
            train_mf(ds, TrainConfig(epochs=2, learning_rate=1.0, batch_size=4, dim=2, seed=0))
        assert exc.value.epoch == 1

    def test_untouched_rows_unchanged(self):
        # extra user/item rows with no interactions must keep their init values
        ds = dataset([("u0", "i0", 3.0)])
        padded = DomainDataset(("u0", "ghost_u"), ("i0", "ghost_i"),
                               ds.user_index, ds.item_index, ds.rating)
        cfg = TrainConfig(epochs=3, dim=2, seed=5)
        res = train_mf(padded, cfg)
        rng = np.random.default_rng(5)
        u0 = rng.normal(0.0, 0.01, (2, 2))
        v0 = rng.normal(0.0, 0.01, (2, 2))
        assert np.array_equal(res.model.U[1], u0[1])
        assert np.array_equal(res.model.V[1], v0[1])
        assert not np.array_equal(res.model.U[0], u0[0])

    def test_epoch_keeps_per_rating_temporaries_to_a_chunk(self):
        ds = generate_synthetic(SyntheticSpec(users=4000, items=500, ratings_per_user=25,
                                              seed=1))[0].source
        n, d = ds.n_interactions, 10
        assert n >= 100_000
        tracemalloc.start()
        try:
            train_mf(ds, TrainConfig(epochs=1, dim=d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an epoch loss over all ratings at once gathers two (n x d) float64 row blocks,
        # 16 MB here; chunked, the peak is the permutation, the residual and one chunk's
        # rows (3.3 MB). The bound is half of one such block.
        assert peak < n * d * 8 / 2

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=1, learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=1, init_std=0.0)


class TestTrainSmf:
    def test_k_zero_reduces_to_mf(self):
        ds = rank_one_dataset()
        cfg = TrainConfig(epochs=25, dim=2, seed=3)
        plain = train_mf(ds, cfg)
        reduced = train_smf(ds, cfg, PerturbConfig(rho=0.5, k=0))
        assert np.array_equal(plain.model.U, reduced.model.U)
        assert np.array_equal(plain.model.V, reduced.model.V)
        assert plain.loss_trace == reduced.loss_trace

    def test_rho_zero_reduces_to_mf(self):
        ds = rank_one_dataset()
        cfg = TrainConfig(epochs=25, dim=2, seed=3)
        plain = train_mf(ds, cfg)
        reduced = train_smf(ds, cfg, PerturbConfig(rho=0.0, k=5))
        assert np.array_equal(plain.model.U, reduced.model.U)
        assert np.array_equal(plain.model.V, reduced.model.V)

    def test_rank_one_converges_under_perturbation(self):
        # embeddings near scale 2 keep the 0.5-radius ball proportionate; the
        # smaller step damps the oscillation SAM induces around the optimum
        ds = rank_one_dataset(a=(2.0, 1.8, 2.2, 1.9), b=(2.2, 1.9, 2.0, 2.4))
        res = train_smf(ds, TrainConfig(epochs=600, learning_rate=0.005, dim=2, seed=0),
                        PerturbConfig(rho=0.5, k=5))
        assert mse(res.model, ds) < 5e-2

    def test_ascent_divergence_reports_epoch(self):
        # one rating per step: the first update overflows the next step's
        # origin loss inside find_delta, before the epoch-end check
        ds = rank_one_dataset()
        cfg = TrainConfig(epochs=5, learning_rate=50.0, batch_size=1, dim=2, seed=0)
        with pytest.raises(DivergenceError, match=r"^loss is non-finite at the unperturbed "
                           r"origin \(epoch 0, learning_rate 50.0\)$") as exc:
            train_smf(ds, cfg, PerturbConfig(rho=0.05, k=5))
        assert exc.value.epoch == 0 and exc.value.learning_rate == 50.0

    def test_ascent_work_per_step(self, synthetic_source, monkeypatch):
        """One find_delta per batch, each with k+1 loss and k gradient evaluations.

        A faster step must not come from doing less ascent.
        """
        counts = count_ascent_work(monkeypatch, factorization)
        cfg = TrainConfig(epochs=2, batch_size=96, seed=3)
        k = 4
        train_smf(synthetic_source, cfg, PerturbConfig(rho=0.05, k=k))
        n = synthetic_source.n_interactions
        assert n % cfg.batch_size != 0
        calls = cfg.epochs * -(-n // cfg.batch_size)
        assert counts == {"calls": calls, "loss": calls * (k + 1), "grad": calls * k}

    def test_deterministic(self):
        ds = rank_one_dataset()
        cfg = TrainConfig(epochs=15, dim=2, seed=9)
        pert = PerturbConfig(rho=0.2, k=3)
        a, b = train_smf(ds, cfg, pert), train_smf(ds, cfg, pert)
        assert np.array_equal(a.model.U, b.model.U)
        assert np.array_equal(a.model.V, b.model.V)


def reference_sgd_step(U, V, ui, vi, r, config, perturb):
    """The SGD step as it was before the shared batch kernel: separate loss
    and gradient closures, each computing its own residual, and
    ``np.add.at`` scatters. Kept verbatim as the bitwise reference."""
    uniq_u, inv_u = np.unique(ui, return_inverse=True)
    uniq_v, inv_v = np.unique(vi, return_inverse=True)
    v_rows = V[vi]
    wd = config.weight_decay
    u_base = U[uniq_u]

    if perturb is not None and perturb.k > 0 and perturb.rho > 0.0:
        v_sq = float((V[uniq_v] ** 2).sum()) if wd > 0.0 else 0.0

        def loss_at(rows):
            res = r - np.einsum("ij,ij->i", rows[inv_u], v_rows)
            val = float(res @ res)
            if wd > 0.0:
                val += wd * (float((rows * rows).sum()) + v_sq)
            return val

        def grad_at(rows):
            res = r - np.einsum("ij,ij->i", rows[inv_u], v_rows)
            g = np.zeros_like(rows)
            np.add.at(g, inv_u, -2.0 * res[:, None] * v_rows)
            if wd > 0.0:
                g += 2.0 * wd * rows
            return g

        pert = find_delta(loss_at, grad_at, u_base, perturb)
        u_eval = u_base + pert.delta
    else:
        u_eval = u_base

    u_rows = u_eval[inv_u]
    resid = r - np.einsum("ij,ij->i", u_rows, v_rows)
    du = np.zeros_like(u_base)
    dv = np.zeros((uniq_v.size, U.shape[1]))
    np.add.at(du, inv_u, -2.0 * resid[:, None] * v_rows)
    np.add.at(dv, inv_v, -2.0 * resid[:, None] * u_rows)
    if wd > 0.0:
        du += 2.0 * wd * u_eval
        dv += 2.0 * wd * V[uniq_v]
    U[uniq_u] -= config.learning_rate * du
    V[uniq_v] -= config.learning_rate * dv


@pytest.fixture(scope="module")
def synthetic_source():
    scenario, _ = generate_synthetic(SyntheticSpec(users=200, items=80, seed=4))
    return scenario.source


def assert_matches_reference(ds, cfg, pert, monkeypatch):
    """train_mf and train_smf give the bits of the same training with ``reference_sgd_step``."""
    runs = [(train_mf(ds, cfg), train_smf(ds, cfg, pert))]
    with monkeypatch.context() as patch:
        patch.setattr(factorization, "_sgd_step", reference_sgd_step)
        runs.append((train_mf(ds, cfg), train_smf(ds, cfg, pert)))
    for new, ref in zip(*runs):
        assert same_bits(new.model.U, ref.model.U)
        assert same_bits(new.model.V, ref.model.V)
        assert new.loss_trace == ref.loss_trace


class TestKernelEquivalence:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("rho, k", [(0.05, 5), (0.3, 1)])
    def test_training_matches_reference_step(self, synthetic_source, monkeypatch,
                                             weight_decay, rho, k):
        cfg = TrainConfig(epochs=3, init_std=0.1, weight_decay=weight_decay, seed=2)
        assert_matches_reference(synthetic_source, cfg, PerturbConfig(rho=rho, k=k), monkeypatch)

    @pytest.mark.parametrize("batch_size", [1, 97])
    def test_edge_batch_sizes_match_reference_step(self, synthetic_source, monkeypatch,
                                                   batch_size):
        # 97 leaves a final partial batch; 1 makes every batch one rating
        ds = synthetic_source
        if batch_size == 1:
            ds = DomainDataset(ds.users, ds.items, ds.user_index[:500], ds.item_index[:500],
                               ds.rating[:500])
        else:
            assert ds.n_interactions % batch_size != 0
        cfg = TrainConfig(epochs=2, batch_size=batch_size, init_std=0.1, weight_decay=0.05,
                          seed=5)
        assert_matches_reference(ds, cfg, PerturbConfig(rho=0.1, k=3), monkeypatch)

    @pytest.mark.parametrize("shared", ["user", "item"])
    def test_single_row_batches_match_reference_step(self, monkeypatch, shared):
        # every rating of every batch shares one user (or one item)
        ratings = np.random.default_rng(8).uniform(1.0, 5.0, size=70)
        pair = (lambda j: ("u0", f"i{j}")) if shared == "user" else (lambda j: (f"u{j}", "i0"))
        rows = [(*pair(j), float(x)) for j, x in enumerate(ratings)]
        cfg = TrainConfig(epochs=3, batch_size=32, init_std=0.3, weight_decay=0.05, seed=6)
        assert_matches_reference(dataset(rows), cfg, PerturbConfig(rho=0.2, k=4), monkeypatch)

    @pytest.mark.parametrize("n_rows", [42, 43])
    def test_epoch_loss_is_bitwise_across_chunk_sizes(self, synthetic_source, monkeypatch,
                                                      n_rows):
        # 42 rows are a multiple of every chunk size tried, 43 of none but 1
        ds = synthetic_source
        ds = DomainDataset(ds.users, ds.items, ds.user_index[:n_rows], ds.item_index[:n_rows],
                           ds.rating[:n_rows])
        cfg = TrainConfig(epochs=3, batch_size=8, init_std=0.1, weight_decay=0.05, seed=3)
        pert = PerturbConfig(rho=0.1, k=2)
        runs = []
        for chunk in (factorization.CHUNK_ROWS, 1, 2, 7):
            monkeypatch.setattr(factorization, "CHUNK_ROWS", chunk)
            runs.append((train_mf(ds, cfg), train_smf(ds, cfg, pert)))
        for run in runs:
            for new, ref in zip(run, runs[0]):
                assert same_bits(new.model.U, ref.model.U)
                assert same_bits(new.model.V, ref.model.V)
                assert new.loss_trace == ref.loss_trace
                # the last entry is the one-shot loss of the returned model
                U, V = new.model.U, new.model.V
                resid = ds.rating - np.einsum("ij,ij->i", U[ds.user_index], V[ds.item_index])
                loss = factorization._objective(resid, cfg.weight_decay, U, V)
                assert new.loss_trace[-1] == loss

    @pytest.mark.parametrize("n_rows", [1, 7])
    def test_bincount_scatter_matches_add_at(self, n_rows):
        rng = np.random.default_rng(n_rows)
        ui = rng.integers(0, n_rows, size=300)
        vi = rng.integers(0, 11, size=300)
        r = rng.normal(3.0, 1.0, size=300)
        b = factorization._Batch(ui, vi, r, 4)
        u_rows = rng.normal(size=(300, 4))
        v_rows = rng.normal(size=(300, 4))
        resid = b.residual(u_rows, v_rows)
        du = np.zeros((b.uniq_u.size, 4))
        dv = np.zeros((b.uniq_v.size, 4))
        np.add.at(du, b.inv_u, -2.0 * resid[:, None] * v_rows)
        np.add.at(dv, b.inv_v, -2.0 * resid[:, None] * u_rows)
        assert same_bits(b.user_sums(-2.0 * resid[:, None] * v_rows), du)
        assert same_bits(b.item_sums(-2.0 * resid[:, None] * u_rows), dv)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.2])
    def test_ascent_gradient_at_unseen_point_matches_mf_grad(self, rng, weight_decay):
        m = model_from(rng.normal(size=(6, 3)), rng.normal(size=(5, 3)))
        batch = [(0, 1, 2.5), (4, 0, 4.0), (0, 3, 1.0), (2, 1, 3.3), (4, 4, 2.0)]
        ui, vi, r = (np.array(col) for col in zip(*batch))
        b = factorization._Batch(ui, vi, r, 3)
        v_touched = m.V[b.uniq_v]
        loss_at, grad_at, _ = factorization._ascent_pair(b, v_touched, v_touched[b.inv_v],
                                                         weight_decay)
        loss_at(m.U[b.uniq_u] + 0.5)
        g = mf_grad(m, batch, weight_decay=weight_decay)
        assert same_bits(grad_at(m.U[b.uniq_u]), g.user_grad)
        assert loss_at(m.U[b.uniq_u]) == mf_loss(m, batch, weight_decay=weight_decay)

    @pytest.mark.parametrize("idx", [
        [3],
        [4, 4, 4, 4, 4, 4, 4],
        list(range(12)),
        [0, 2, 2, 5, 7, 7, 7, 8],
        [9, 1, 9, 0, 3, 1, 1, 6, 0],
        np.random.default_rng(21).integers(0, 40, size=256).tolist(),
        np.random.default_rng(22).integers(0, 10**6, size=256).tolist(),
    ], ids=["one", "all-equal", "sorted-distinct", "sorted-repeats", "unsorted", "random",
            "sparse-large-ids"])
    def test_unique_inverse_matches_np_unique(self, idx):
        idx = np.array(idx, dtype=np.int64)
        uniq, inv = factorization._unique_inverse(idx)
        ref_uniq, ref_inv = np.unique(idx, return_inverse=True)
        assert same_bits(uniq, ref_uniq)
        assert same_bits(inv, ref_inv)


def step_pair(U, V, ui, vi, r, cfg, pert):
    """``(U, V)`` after one ``_sgd_step``, and after one ``reference_sgd_step``, from copies."""
    new, ref = (U.copy(), V.copy()), (U.copy(), V.copy())
    factorization._sgd_step(*new, ui, vi, r, cfg, pert)
    reference_sgd_step(*ref, ui, vi, r, cfg, pert)
    return new, ref


@pytest.fixture
def step_log(monkeypatch):
    """The pick of each ``find_delta`` that ``factorization`` calls (0 is the origin, k the
    last iterate) and the count of ``_Batch.residual`` calls."""
    log = {"picks": [], "residuals": 0}
    residual = factorization._Batch.residual

    def counting(self, u_rows, v_rows):
        log["residuals"] += 1
        return residual(self, u_rows, v_rows)

    def picking(loss_at, grad_at, origin, config):
        losses = []

        def kept(x):
            losses.append(loss_at(x))
            return losses[-1]

        out = find_delta(kept, grad_at, origin, config)
        log["picks"].append(losses.index(max(losses)))  # the first highest, as find_delta keeps
        return out

    monkeypatch.setattr(factorization._Batch, "residual", counting)
    monkeypatch.setattr(factorization, "find_delta", picking)
    return log


class TestReusedUpdate:
    """The update read from the ascent's kept pass has the bits of the reference step.

    A step costs k+1 residuals, one per ascent iterate: the update takes no pass of its
    own, also where the reference's ``u_base + delta`` misses the kept point's bytes.
    """

    @pytest.mark.parametrize("weight_decay", [0.0, 0.2])
    def test_middle_and_last_picks_match_reference(self, synthetic_source, step_log,
                                                   weight_decay):
        ds = synthetic_source
        rng = np.random.default_rng(7)
        U = rng.normal(0.0, 0.1, (ds.n_users, 10))
        V = rng.normal(0.0, 0.1, (ds.n_items, 10))
        cfg = TrainConfig(epochs=1, learning_rate=0.05, weight_decay=weight_decay)
        seen = set()
        for k in (5, 2, 1):
            pert = PerturbConfig(rho=0.05, k=k)
            for _ in range(6):
                sel = rng.choice(ds.n_interactions, 64, replace=False)
                before = step_log["residuals"]
                new, ref = step_pair(U, V, ds.user_index[sel], ds.item_index[sel],
                                     ds.rating[sel], cfg, pert)
                assert same_bits(new[0], ref[0]) and same_bits(new[1], ref[1])
                assert step_log["residuals"] - before == k + 1
                pick = step_log["picks"][-1]
                seen.add("last" if pick == k else "middle" if pick else "origin")
        assert seen == {"middle", "last"}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.2])
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_origin_pick_matches_reference(self, step_log, weight_decay, zero):
        # zero user rows and ratings: a zero gradient, so every iterate ties with the
        # origin and the origin is kept; -0.0 + 0.0 is +0.0, so at -0.0 rows the
        # reference updates from +0.0 rows, and the kept pass at -0.0 gives its bits
        rng = np.random.default_rng(3)
        U = rng.normal(size=(6, 4))
        V = rng.normal(size=(5, 4))
        U[[1, 4]] = zero
        ui, vi = np.array([1, 4, 1, 4, 1]), np.array([0, 2, 3, 3, 4])
        cfg = TrainConfig(epochs=1, learning_rate=0.05, weight_decay=weight_decay)
        k = 3
        new, ref = step_pair(U, V, ui, vi, np.zeros(5), cfg, PerturbConfig(rho=0.05, k=k))
        assert same_bits(new[0], ref[0]) and same_bits(new[1], ref[1])
        assert step_log["picks"] == [0]
        assert step_log["residuals"] == k + 1

    def test_training_computes_k_plus_1_residuals_per_step(self, synthetic_source, step_log):
        cfg = TrainConfig(epochs=2, batch_size=96, seed=3)
        k = 4
        train_smf(synthetic_source, cfg, PerturbConfig(rho=0.05, k=k))
        steps = cfg.epochs * -(-synthetic_source.n_interactions // cfg.batch_size)
        assert len(step_log["picks"]) == steps
        assert step_log["residuals"] == steps * (k + 1)


def reference_train(ds, config, perturb):
    """``_train`` with fresh arrays for every block of the epoch loss: U, V and the trace."""
    rng = np.random.default_rng(config.seed)
    U = rng.normal(0.0, config.init_std, (ds.n_users, config.dim))
    V = rng.normal(0.0, config.init_std, (ds.n_items, config.dim))
    ui, vi, r = ds.user_index, ds.item_index, ds.rating
    resid = np.empty(r.size)

    def step(sel):
        factorization._sgd_step(U, V, ui.take(sel), vi.take(sel), r.take(sel), config, perturb)

    def epoch_loss():
        for start in range(0, r.size, factorization.CHUNK_ROWS):
            part = slice(start, start + factorization.CHUNK_ROWS)
            resid[part] = r[part] - np.einsum("ij,ij->i", U.take(ui[part], axis=0),
                                              V.take(vi[part], axis=0))
        return factorization._objective(resid, config.weight_decay, U, V)

    return U, V, factorization._run_epochs(r.size, config, rng, step, epoch_loss, "model")


@pytest.fixture(scope="module")
def desk_source():
    """The source domain of the README's desk scenario: 60,000 ratings, 7 blocks and a part."""
    return generate_synthetic(SyntheticSpec())[0].source


class TestBlockBuffers:
    """Every epoch loss writes its blocks into buffers allocated once per training."""

    @pytest.mark.parametrize("blocks", [(0, 8191), (2, 0), (7, 1000)],
                             ids=["below-a-block", "two-blocks", "remainder"])
    def test_training_matches_fresh_block_reference(self, desk_source, blocks):
        n_rows = blocks[0] * factorization.CHUNK_ROWS + blocks[1]
        ds = DomainDataset(desk_source.users, desk_source.items, desk_source.user_index[:n_rows],
                           desk_source.item_index[:n_rows], desk_source.rating[:n_rows])
        assert factorization.CHUNK_ROWS == 8192 and ds.n_interactions == n_rows
        cfg = TrainConfig(epochs=2, init_std=0.1, weight_decay=0.05, seed=7)
        for pert in (PerturbConfig(rho=0.0, k=0), PerturbConfig(rho=0.05, k=3)):
            got = train_smf(ds, cfg, pert) if pert.k else train_mf(ds, cfg)
            U, V, trace = reference_train(ds, cfg, pert)
            assert same_bits(got.model.U, U) and same_bits(got.model.V, V)
            assert got.loss_trace == trace

    def test_second_training_does_not_fault_its_blocks_again(self, desk_source):
        """Fresh per-block arrays of 655 KB are mapped and unmapped by malloc at every block;
        a second 5-epoch training took 12,096 minor faults with fresh arrays, and about 640
        with the buffers."""
        cfg = TrainConfig(epochs=5, init_std=0.1, seed=1)
        train_mf(desk_source, cfg)
        assert minor_faults(lambda: train_mf(desk_source, cfg)) < 3_000


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = model_from(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
        cfg = TrainConfig(epochs=7, dim=3, seed=11)
        p = tmp_path / "m.npy"
        save_factor_model(model, p, cfg, PerturbConfig(rho=0.1, k=2))
        back, doc, digest = load_factor_model(p)
        assert digest == hashlib.sha256(p.read_bytes()).hexdigest()
        assert np.array_equal(back.U, model.U)
        assert np.array_equal(back.V, model.V)
        assert doc["config"]["seed"] == 11
        assert doc["perturb"]["rho"] == 0.1
        assert set(doc) == {"format_version", "kind", "d", "n_users", "n_items", "config",
                            "perturb"}

    def test_extreme_floats_round_trip_bitwise(self, tmp_path):
        edge = [-0.0, 5e-324, 1e308, -1e308]
        model = model_from([edge, edge[::-1]], [edge[1:] + edge[:1]])
        p = tmp_path / "m.npy"
        save_factor_model(model, p)
        back, _, _ = load_factor_model(p)
        assert back.U.tobytes() == model.U.tobytes()
        assert back.V.tobytes() == model.V.tobytes()
        assert np.signbit(back.U[0, 0])

    def test_input_digests_are_checked(self, tmp_path, rng):
        inputs = {"manifest": "a" * 64, "source_ratings": "b" * 64, "target_ratings": "c" * 64}
        p = tmp_path / "m.npy"
        save_factor_model(model_from(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))), p,
                          inputs=inputs)
        _, doc, _ = load_factor_model(p, inputs)
        assert doc["inputs"] == inputs and doc["format_version"] == 4
        for other in ({**inputs, "target_ratings": "d" * 64}, {}):
            with pytest.raises(ValidationError, match="stale factor checkpoint") as exc:
                load_factor_model(p, other)
            assert str(p) in str(exc.value)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_factor_model(tmp_path / "none.npy")
        (tmp_path / "dir.npy").mkdir()
        with pytest.raises(MissingInputError):
            load_factor_model(tmp_path / "dir.npy")

    def test_wrong_kind_rejected(self, tmp_path, rng):
        p = tmp_path / "m.npy"
        save_factor_model(model_from(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))), p)
        rewrite_header(p, kind="something")
        with pytest.raises(ValidationError, match="not a factor checkpoint"):
            load_factor_model(p)
        rewrite_header(p, kind="factor_model", format_version=2)
        with pytest.raises(ValidationError, match="not a factor checkpoint"):
            load_factor_model(p)

    def test_version_2_json_checkpoint_rejected(self, tmp_path, rng):
        model = model_from(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
        p = tmp_path / "m.npy"
        p.write_text(json.dumps({"format_version": 2, "kind": "factor_model", "d": 2,
                                 "n_users": 3, "n_items": 4, "U": model.U.tolist(),
                                 "V": model.V.tolist(), "config": None, "perturb": None}))
        with pytest.raises(ValidationError, match="malformed factor checkpoint") as exc:
            load_factor_model(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize("convert, message", [
        (lambda a: a.astype(np.float32), "array 1 is not 2-D f8"),
        (np.ravel, "array 1 is not 2-D f8"),
        (lambda a: a.astype(object), "Object arrays cannot be loaded"),
    ], ids=["float32", "1-D", "object"])
    def test_ill_typed_u_rejected(self, tmp_path, rng, convert, message):
        p = tmp_path / "m.npy"
        save_factor_model(model_from(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))), p)
        rewrite_record(p, 3, 1, convert)
        with pytest.raises(ValidationError, match=f"malformed factor checkpoint .*{message}"):
            load_factor_model(p)

    @pytest.mark.parametrize("keep", [0, 50, -1])
    def test_truncated_checkpoint_rejected(self, tmp_path, rng, keep):
        p = tmp_path / "m.npy"
        save_factor_model(model_from(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))), p)
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValidationError, match="malformed factor checkpoint"):
            load_factor_model(p)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        p = tmp_path / "m.npy"
        save_factor_model(model_from(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))), p)
        with open(p, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValidationError,
                           match="malformed factor checkpoint .*trailing bytes after array 2"):
            load_factor_model(p)

    @pytest.mark.parametrize("key", ["d", "n_users", "n_items"])
    @pytest.mark.parametrize("value", [3.9, "3", True])
    def test_metadata_numbers_are_strict(self, tmp_path, rng, key, value):
        # a 3 x 3 model, so a lenient int() of 3.9 or "3" would pass the shape check
        p = tmp_path / "m.npy"
        save_factor_model(model_from(rng.normal(size=(3, 3)), rng.normal(size=(3, 3))), p)
        rewrite_header(p, **{key: value})
        with pytest.raises(ValidationError, match=f"{key} must be a finite int") as exc:
            load_factor_model(p)
        assert str(p) in str(exc.value)
