from __future__ import annotations

import math
import weakref

import numpy as np
import pytest

import scdr.perturbation as perturbation
from scdr.errors import DivergenceError, ValidationError
from scdr.perturbation import (
    PerturbConfig,
    find_delta,
    memo_last_point,
    project_ball,
)


def quadratic(center):
    """L(x) = ||x - center||^2 and its gradient."""
    c = np.asarray(center, dtype=float)

    def loss_at(x):
        d = np.asarray(x) - c
        return float(np.sum(d * d))

    def grad_at(x):
        return 2.0 * (np.asarray(x) - c)

    return loss_at, grad_at


def single_triple(residual, v):
    """One-interaction rating loss over a perturbation of the user row."""
    v = np.asarray(v, dtype=float)

    def loss_at(delta_point):
        return float((residual - np.dot(delta_point, v)) ** 2)

    def grad_at(delta_point):
        return -2.0 * (residual - np.dot(delta_point, v)) * v

    return loss_at, grad_at


def disk_grid_max(loss_at, origin, rho, step=0.01):
    """Dense grid search over the 2-D disk of radius rho around origin."""
    best = loss_at(origin)
    offsets = np.arange(-rho, rho + step / 2, step)
    for dx in offsets:
        for dy in offsets:
            if dx * dx + dy * dy <= rho * rho:
                val = loss_at(origin + np.array([dx, dy]))
                if val > best:
                    best = val
    return best


class TestConfig:
    def test_alpha_default(self):
        assert PerturbConfig(rho=1.0, k=4).alpha == 0.25
        assert PerturbConfig(rho=1.0, k=0).alpha == 1.0
        assert PerturbConfig(rho=0.0, k=3).alpha == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            PerturbConfig(rho=-1.0, k=1)
        with pytest.raises(ValidationError):
            PerturbConfig(rho=1.0, k=-1)
        with pytest.raises(ValidationError):
            PerturbConfig(rho=1.0, k=1, alpha=0.0)


class TestPgdStep:
    """The projected sign step of ``find_delta``, and ``project_ball``."""

    def test_zero_gradient_fixed_point(self):
        origin = np.array([1.0, -2.0])
        seen = []
        find_delta(lambda x: seen.append(x) or 0.0, np.zeros_like, origin,
                   PerturbConfig(rho=1.0, k=1))
        assert len(seen) == 2 and np.array_equal(seen[1], origin)

    def test_sign_step_inside_ball(self):
        g = np.array([2.0, -3.0])
        pert = find_delta(lambda x: float(x @ g), lambda x: g, np.zeros(2),
                          PerturbConfig(rho=10.0, k=1, alpha=1.0))
        assert pert.delta.tolist() == [1.0, -1.0] and pert.achieved_loss == 5.0

    def test_projection_rescales(self):
        out = project_ball(np.array([3.0, 4.0]), np.zeros(2), 2.5)
        assert np.allclose(out, [1.5, 2.0], atol=1e-15)

    def test_projection_identity_inside(self):
        p = np.array([0.3, -0.1])
        assert np.array_equal(project_ball(p, np.zeros(2), 1.0), p)

    def test_projection_idempotent(self, rng):
        for _ in range(50):
            x = rng.normal(size=3) * 5
            o = rng.normal(size=3)
            rho = float(rng.uniform(0.1, 2.0))
            once = project_ball(x, o, rho)
            twice = project_ball(once, o, rho)
            assert np.allclose(once, twice, atol=1e-12, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            project_ball(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValidationError, match="gradient"):
            find_delta(lambda x: 0.0, lambda x: np.zeros(3), np.zeros(2),
                       PerturbConfig(rho=1.0, k=1))

    def test_batch_rows_projected_independently(self):
        origin = np.zeros((2, 2))
        points = np.array([[3.0, 4.0], [0.1, 0.0]])
        out = project_ball(points, origin, 2.5)
        assert np.allclose(out[0], [1.5, 2.0], atol=1e-15)
        assert np.array_equal(out[1], points[1])


def reference_project_rows(point, origin, rho):
    """The row-batch projection written with np.linalg.norm, as a bitwise reference."""
    diff = point - origin
    norms = np.linalg.norm(diff, axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.where(norms > rho, origin + diff * (rho / safe), point)


class TestProjectRows:
    # scale 0.01 leaves every row inside a 0.5 ball, 100 puts every row
    # outside; rows equal to the origin sit inside any ball
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("origin_rows", [False, True])
    def test_matches_norm_reference_bitwise(self, rng, scale, rho, origin_rows):
        origin = rng.normal(size=(40, 10))
        point = origin + scale * rng.normal(size=(40, 10))
        if origin_rows:
            point[::7] = origin[::7]
        inputs = point.copy(), origin.copy()
        out = project_ball(point, origin, rho)
        assert out.tobytes() == reference_project_rows(point, origin, rho).tobytes()
        # the inputs are read, never written
        assert (point.tobytes(), origin.tobytes()) == tuple(a.tobytes() for a in inputs)

    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_1d_point_is_one_row(self, rng, scale):
        origin = rng.normal(size=10)
        point = origin + scale * rng.normal(size=10)
        out = project_ball(point, origin, 0.5)
        assert out.shape == (10,)
        assert out.tobytes() == project_ball(point[None], origin[None], 0.5)[0].tobytes()
        assert np.linalg.norm(out - origin) <= 0.5 + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 10, 50])
    @pytest.mark.parametrize("scale", [0.0, 0.01, 1.0, 1e3])
    def test_a_sign_step_inside_the_ball_is_returned_as_is(self, rng, d, scale):
        # a sign step of alpha < rho / sqrt(d) is what find_delta's first step is at
        # the defaults of the sharpness probe; the margins stay above the rounding of
        # (origin + step) - origin at |origin| <= 1e3, so no row may be rescaled
        rho = float(rng.uniform(0.01, 1.0))
        for shrink in (1e-8, 1e-4, 0.1):
            alpha = rho / math.sqrt(d) * (1.0 - shrink)
            origin = rng.normal(size=(32, d)) * scale
            for _ in range(10):
                moved = rng.choice([-1.0, 1.0], size=origin.shape)
                moved *= alpha
                moved += origin
                assert project_ball(moved, origin, rho) is moved


class TestFindDelta:
    def test_k_zero_returns_origin(self):
        loss_at, grad_at = quadratic([5.0, 5.0])
        origin = np.array([1.0, 2.0])
        pert = find_delta(loss_at, grad_at, origin, PerturbConfig(rho=2.0, k=0))
        assert np.array_equal(pert.delta, np.zeros(2))
        assert pert.achieved_loss == loss_at(origin)

    def test_quadratic_ball_guarantees(self):
        loss_at, grad_at = quadratic([0.0, 0.0])
        origin = np.array([1.0, 0.0])
        pert = find_delta(loss_at, grad_at, origin,
                          PerturbConfig(rho=1.0, k=5, alpha=0.2))
        assert pert.achieved_loss >= 1.0
        assert np.linalg.norm(pert.delta) <= 1.0 + 1e-9

    def test_grid_search_oracle_single_triple(self, rng):
        # margins keep the sign-ascent path provably within 5% of the disk max
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            vnorm = rng.uniform(0.6, 1.2)
            v = vnorm * np.array([np.cos(theta), np.sin(theta)])
            residual = float(rng.choice([-1, 1])) * rng.uniform(5.0, 8.0)
            rho = float(rng.uniform(0.1, 0.3))
            loss_at, grad_at = single_triple(residual, v)
            pert = find_delta(loss_at, grad_at, np.zeros(2), PerturbConfig(rho=rho, k=5))
            oracle = disk_grid_max(loss_at, np.zeros(2), rho)
            assert pert.achieved_loss >= 0.95 * oracle
            assert np.linalg.norm(pert.delta) <= rho + 1e-9

    def test_invariants_random_instances(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            loss_at, grad_at = quadratic(rng.normal(size=d) * 3)
            origin = rng.normal(size=d)
            cfg = PerturbConfig(rho=float(rng.uniform(0, 2)), k=int(rng.integers(0, 7)))
            pert = find_delta(loss_at, grad_at, origin, cfg)
            assert np.linalg.norm(pert.delta) <= cfg.rho + 1e-9
            assert pert.achieved_loss >= loss_at(origin)

    def test_monotone_radius_on_fixed_instance(self):
        loss_at, grad_at = single_triple(6.0, np.array([1.0, 0.4]))
        achieved = []
        for rho in (0.1, 0.2, 0.4, 0.8):
            pert = find_delta(loss_at, grad_at, np.zeros(2),
                              PerturbConfig(rho=rho, k=5, alpha=0.2))
            achieved.append(pert.achieved_loss)
        assert all(b >= a for a, b in zip(achieved, achieved[1:]))

    def test_batch_origin(self):
        v = np.array([1.0, 0.5])
        ratings = np.array([4.0, 3.0])

        def loss_at(rows):
            res = ratings - rows @ v
            return float(res @ res)

        def grad_at(rows):
            res = ratings - rows @ v
            return -2.0 * res[:, None] * v[None, :]

        origin = np.zeros((2, 2))
        pert = find_delta(loss_at, grad_at, origin, PerturbConfig(rho=0.5, k=4))
        assert pert.delta.shape == (2, 2)
        assert np.all(np.linalg.norm(pert.delta, axis=1) <= 0.5 + 1e-9)
        assert pert.achieved_loss >= loss_at(origin)

    def test_non_finite_loss_aborts(self):
        def loss_at(x):
            return float("inf") if np.any(x != 0) else 1.0

        def grad_at(x):
            return np.ones_like(x)

        with pytest.raises(DivergenceError):
            find_delta(loss_at, grad_at, np.zeros(2), PerturbConfig(rho=1.0, k=2))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_origin_aborts_before_a_step(self, value):
        origin = np.zeros((2, 10))
        origin[1, 3] = value
        loss_at, grad_at = row_quadratic(np.ones_like(origin), np.ones_like(origin))
        seen = []
        with pytest.raises(DivergenceError, match="non-finite at the unperturbed origin"):
            find_delta(loss_at, recording(grad_at, seen), origin, PerturbConfig(rho=0.05, k=5))
        assert seen == []


class TestMemoLastPoint:
    def test_recomputes_only_for_a_new_object(self):
        calls = []
        f = memo_last_point(lambda x: calls.append(x) or float(x.sum()))
        a, b = np.ones(3), np.ones(3)
        assert f(a) == f(a) == 3.0
        assert len(calls) == 1
        assert f(b) == 3.0 and f(a) == 3.0
        assert len(calls) == 3

    def test_no_earlier_result_is_alive_while_fn_runs(self):
        # a result may hold a whole forward pass, so two alive at once double the peak
        class Result:
            pass

        earlier = []

        def fn(x):
            assert all(ref() is None for ref in earlier)
            result = Result()
            earlier.append(weakref.ref(result))
            return result

        f = memo_last_point(fn)
        for _ in range(3):
            f(np.zeros(2))
        assert len(earlier) == 3


def recording(fn, seen):
    """``fn`` keeping each argument it is called with and a copy taken at call time."""
    def call(x):
        seen.append((x, x.copy()))
        return fn(x)
    return call


def unchanged(seen):
    return all(x.tobytes() == copy.tobytes() for x, copy in seen)


class TestNoMutation:
    """``find_delta`` writes neither the origin nor any point it handed out.

    ``memo_last_point`` keys on the identity of the point, and the mapping's
    worst-case pick keeps the points themselves, so a step computed in place
    on a point already passed to ``loss_at`` or ``grad_at`` would corrupt
    both.
    """

    # alpha 1 moves each coordinate whose gradient is nonzero by 1; with a
    # zero gradient in 6 of the 10 coordinates of every other row, those rows
    # stay inside a 2.5 ball while the others leave it
    @pytest.mark.parametrize("rho, mixed", [(0.1, False), (50.0, False), (2.5, True)],
                             ids=["all-outside", "all-inside", "mixed"])
    def test_find_delta(self, rng, rho, mixed):
        origin = rng.normal(size=(12, 10))
        center = origin + rng.normal(size=origin.shape)
        if mixed:
            center[::2, 4:] = origin[::2, 4:]
        loss_at, grad_at = quadratic(center)
        before = origin.copy()
        seen = []
        pert = find_delta(recording(loss_at, seen), recording(grad_at, seen), origin,
                          PerturbConfig(rho=rho, k=4, alpha=1.0))
        assert origin.tobytes() == before.tobytes()
        assert len(seen) == 9 and unchanged(seen)
        assert all(x is not origin for x, _ in seen[2:])
        assert pert.achieved_loss >= loss_at(origin)


def row_quadratic(center, weights):
    """Per-row weighted quadratic loss, summed over rows, and its gradient; a 1-D point is one row."""
    c = np.asarray(center, dtype=float)
    w = np.asarray(weights, dtype=float)

    def loss_at(x):
        d = x - c
        return float((w * d * d).sum())

    def grad_at(x):
        return 2.0 * w * (x - c)

    return loss_at, grad_at


def counting_projection(monkeypatch):
    """Count the calls ``find_delta`` makes to ``project_ball``."""
    calls = []

    def counted(point, origin, rho):
        calls.append(point)
        return project_ball(point, origin, rho)

    monkeypatch.setattr(perturbation, "project_ball", counted)
    return calls


class TestProjection:
    @pytest.mark.parametrize("d, rho, k, alpha", [
        (10, 0.05, 5, None),  # alpha * sqrt(d) = 0.032 < rho: the first step stays inside
        (3, 1.0, 2, None),  # 0.87 < 1
        (10, 0.05, 2, None),  # 0.079 >= rho
        (1, 0.05, 1, None),  # alpha * sqrt(d) == rho exactly
        (10, 0.05, 5, 0.05),  # an explicit alpha as large as rho
        (10, 0.05, 0, None),
    ])
    def test_each_ascent_step_is_one_projection(self, rng, monkeypatch, d, rho, k, alpha):
        calls = counting_projection(monkeypatch)
        for shape in ((d,), (16, d)):
            calls.clear()
            origin = rng.normal(size=shape) * 0.1
            loss_at, grad_at = row_quadratic(origin + rng.normal(size=shape), np.ones(shape))
            find_delta(loss_at, grad_at, origin, PerturbConfig(rho=rho, k=k, alpha=alpha))
            assert len(calls) == k

    @pytest.mark.parametrize("shape", [(10,), (3,), (64, 10), (7, 1)], ids=str)
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 30.0])
    def test_matches_always_project_reference(self, rng, shape, scale):
        for trial in range(20):
            origin = rng.normal(size=shape) * scale
            if trial % 4 == 0:
                origin.flat[::3] = 0.0
                origin.flat[1::5] = -0.0
            center = origin + rng.normal(size=shape) * rng.choice([1e-3, 0.05, 1.0])
            loss_at, grad_at = row_quadratic(center, rng.uniform(0.5, 2.0, size=shape))
            rho = float(rng.choice([0.01, 0.05, 0.3]))
            k = int(rng.integers(1, 7))
            alpha = None if trial % 3 else float(rng.uniform(0.1, 1.2)) * rho / math.sqrt(k)
            cfg = PerturbConfig(rho=rho, k=k, alpha=alpha)
            seen, ref_seen = [], []
            got = find_delta(recording(loss_at, seen), grad_at, origin, cfg)
            delta, achieved = always_project_reference(recording(loss_at, ref_seen), grad_at,
                                                       origin, cfg)
            assert got.delta.tobytes() == delta.tobytes()
            assert got.achieved_loss == achieved
            assert [x.tobytes() for x, _ in seen] == [x.tobytes() for x, _ in ref_seen]


def always_project_reference(loss_at, grad_at, origin, config):
    """Projected sign ascent as the method states it: each step moves ``alpha`` along the
    gradient's sign and goes through ``reference_project_rows``; the first strictly highest
    loss, the origin's included, is kept. Returns the delta and that loss."""
    point = best_point = origin
    best_loss = loss_at(origin)
    for _ in range(config.k):
        point = reference_project_rows(point + config.alpha * np.sign(grad_at(point)), origin,
                                       config.rho)
        loss = loss_at(point)
        if loss > best_loss:
            best_point, best_loss = point, loss
    return best_point - origin, best_loss
