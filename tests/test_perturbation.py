from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest

import scdr.perturbation as perturbation
from scdr.errors import DivergenceError, ValidationError
from scdr.perturbation import (
    PerturbConfig,
    WorstCase,
    find_delta,
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
    def test_step_is_rho_over_k(self):
        # an ascent is set by its radius and step count alone
        assert [f.name for f in dataclasses.fields(PerturbConfig)] == ["rho", "k"]
        for rho, k in ((1.0, 4), (1.0, 0), (0.05, 1), (0.3, 5), (0.05, 3)):
            assert PerturbConfig(rho=rho, k=k).alpha == rho / max(k, 1)
        # a zero radius is a zero step: the ascent stays at the origin
        assert PerturbConfig(rho=0.0, k=3).alpha == 0.0
        loss_at, grad_at = quadratic([5.0, 5.0])
        origin = np.array([1.0, 2.0])
        pert = find_delta(loss_at, grad_at, origin, PerturbConfig(rho=0.0, k=3))
        assert pert.delta.tolist() == [0.0, 0.0] and pert.achieved_loss == loss_at(origin)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PerturbConfig(rho=-1.0, k=1)
        with pytest.raises(ValidationError):
            PerturbConfig(rho=1.0, k=-1)


class TestPgdStep:
    """The projected sign step of ``find_delta``, and ``project_ball``."""

    def test_zero_gradient_fixed_point(self):
        origin = np.array([1.0, -2.0])
        seen = []
        find_delta(lambda x: seen.append(x) or 0.0, np.zeros_like, origin,
                   PerturbConfig(rho=1.0, k=1))
        assert len(seen) == 2 and np.array_equal(seen[1], origin)

    def test_sign_step_inside_ball(self):
        # steps of rho / k = 1: the first, of norm sqrt(2) < rho, is not rescaled
        g = np.array([2.0, -3.0])
        seen = []
        find_delta(lambda x: seen.append(x) or float(x @ g), lambda x: g, np.zeros(2),
                   PerturbConfig(rho=2.0, k=2))
        assert seen[1].tolist() == [1.0, -1.0] and float(seen[1] @ g) == 5.0

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
        pert = find_delta(loss_at, grad_at, origin, PerturbConfig(rho=1.0, k=5))
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
            pert = find_delta(loss_at, grad_at, np.zeros(2), PerturbConfig(rho=rho, k=5))
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


class Pass:
    """A kernel pass at ``point``: its ``loss`` as given, and a gradient."""

    def __init__(self, point, loss):
        self.point, self.loss = point, loss

    @property
    def grad_u(self):
        return 2.0 * self.point


def scheduled(losses, built):
    """A pair's ``at``: the n-th pass it builds has the n-th of ``losses``; ``built`` keeps each."""
    losses = iter(losses)

    def at(point):
        made = Pass(point, next(losses))
        built.append(weakref.ref(made))
        return made

    return at


class TestWorstCase:
    def test_builds_a_pass_only_for_a_new_object(self):
        built = []
        a, b = np.ones(3), np.ones(3)
        pair = WorstCase(scheduled([3.0, 3.0, 3.0], built), a)
        assert pair.loss_at(a) == 3.0 and np.array_equal(pair.grad_at(a), 2.0 * a)
        assert len(built) == 1
        pair.grad_at(b)
        pair.loss_at(a)
        assert len(built) == 3

    @pytest.mark.parametrize("rows", [False, True], ids=["one-number", "per-row"])
    def test_no_earlier_pass_is_alive_while_at_runs(self, rows):
        # a pass may hold a whole forward pass, so two alive at once double the peak;
        # the kept pass of a one-number loss is the one exception
        built = []
        origin = np.zeros((2, 2))
        points = [origin, origin + 1.0, origin + 2.0]
        # per row, row 0 keeps the origin and row 1 moves to the last step: a mixed
        # pick, so best() builds a new pass
        losses = [np.array([2.0, 1.0]), np.array([1.0, 0.5]), np.array([0.0, 3.0]),
                  np.array([2.0, 3.0])] if rows else [1.0, 2.0, 0.5]
        at = scheduled(losses, built)

        def checked(point):
            kept = pair._kept
            assert all(ref() is None or ref() is kept for ref in built)
            return at(point)

        pair = WorstCase(checked, origin)
        for point in points:
            pair.loss_at(point)
            pair.grad_at(point)
        best = pair.best()
        assert len(built) == (4 if rows else 3)
        assert best is built[-1]() if rows else best is built[1]()

    def test_one_number_loss_keeps_the_pass_of_the_whole_iterate(self):
        built = []
        points = [np.full((2, 2), float(i)) for i in range(4)]
        pair = WorstCase(scheduled([1.0, 3.0, 3.0, 2.0], built), points[0])
        assert [pair.loss_at(p) for p in points] == [1.0, 3.0, 3.0, 2.0]
        # a tie does not replace the pick; the kept pass outlives the memo
        assert pair.point is points[1] and pair.loss == 3.0
        assert pair.best() is built[1]() and len(built) == 4

    def test_one_number_loss_keeps_the_origin_unless_beaten(self):
        built = []
        points = [np.full(3, float(i)) for i in range(3)]
        pair = WorstCase(scheduled([2.0, 1.0, 2.0], built), points[0])
        for p in points:
            pair.loss_at(p)
        assert pair.point is points[0] and pair.best() is built[0]()

    def test_per_row_loss_picks_each_row_and_keeps_no_pass(self):
        built = []
        points = [np.full((3, 2), float(i)) for i in range(3)]
        pair = WorstCase(scheduled([np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.0, 1.0]),
                                    np.array([1.5, 3.0, 0.0])], built), points[0])
        assert [pair.loss_at(p) for p in points] == [3.0, 3.0, 4.5]
        # row 0 moves to step 1, row 1 to step 2, and row 2 ties and keeps the origin
        assert np.array_equal(pair.point, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(pair.loss, [2.0, 3.0, 1.0])
        assert [ref() is None for ref in built] == [True, True, False]

    def test_best_is_the_held_pass_when_the_last_iterate_wins_every_row(self):
        built = []
        points = [np.full((2, 2), float(i)) for i in range(3)]
        pair = WorstCase(scheduled([np.array([1.0, 1.0]), np.array([0.0, 2.0]),
                                    np.array([2.0, 3.0])], built), points[0])
        for p in points:
            pair.loss_at(p)
        assert pair.point is points[2] and pair.best() is built[2]()
        assert len(built) == 3

    def test_pair_without_ascent_reads_the_origin_pass(self):
        # a trainer's zero-radius step runs no ascent and reads best() all the same
        for loss in (2.0, np.array([1.0, 2.0])):
            built, origin = [], np.zeros((2, 2))
            pair = WorstCase(scheduled([loss], built), origin)
            best = pair.best()
            assert best.point is origin and best is built[0]() and len(built) == 1

    def test_best_is_a_new_pass_at_a_mixed_pick(self):
        built = []
        points = [np.full((2, 2), float(i)) for i in range(2)]
        pair = WorstCase(scheduled([np.array([1.0, 1.0]), np.array([2.0, 0.0]),
                                    np.array([2.0, 1.0])], built), points[0])
        for p in points:
            pair.loss_at(p)
        best = pair.best()
        assert best is built[2]() and best.point is pair.point
        assert np.array_equal(best.point, [[1.0, 1.0], [0.0, 0.0]])


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

    ``WorstCase`` keys its memo on the identity of the point and its pick
    keeps the points themselves, so a step computed in place on a point
    already passed to ``loss_at`` or ``grad_at`` would corrupt both.
    """

    # a step moves each coordinate whose gradient is nonzero by rho / k, so a
    # row of 10 such coordinates moves sqrt(10) / k times rho: out of the ball
    # at k = 3 and inside it at k = 4; with a zero gradient in 6 of the 10
    # coordinates of every other row, those rows move 2/3 of rho at k = 3 and
    # stay inside while the others leave
    @pytest.mark.parametrize("rho, k, mixed",
                             [(0.1, 3, False), (50.0, 4, False), (2.5, 3, True)],
                             ids=["all-outside", "all-inside", "mixed"])
    def test_find_delta(self, rng, rho, k, mixed):
        origin = rng.normal(size=(12, 10))
        center = origin + rng.normal(size=origin.shape)
        if mixed:
            center[::2, 4:] = origin[::2, 4:]
        loss_at, grad_at = quadratic(center)
        before = origin.copy()
        seen = []
        pert = find_delta(recording(loss_at, seen), recording(grad_at, seen), origin,
                          PerturbConfig(rho=rho, k=k))
        assert origin.tobytes() == before.tobytes()
        assert len(seen) == 1 + 2 * k and unchanged(seen)
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
    @pytest.mark.parametrize("d, rho, k", [
        (10, 0.05, 5),  # alpha * sqrt(d) = 0.032 < rho: the first step stays inside
        (3, 1.0, 2),  # 0.87 < 1
        (10, 0.05, 2),  # 0.079 >= rho
        (1, 0.05, 1),  # alpha * sqrt(d) == rho exactly
        (10, 0.05, 1),  # alpha == rho: every row leaves the ball
        (10, 0.05, 0),
    ])
    def test_each_ascent_step_is_one_projection(self, rng, monkeypatch, d, rho, k):
        calls = counting_projection(monkeypatch)
        for shape in ((d,), (16, d)):
            calls.clear()
            origin = rng.normal(size=shape) * 0.1
            loss_at, grad_at = row_quadratic(origin + rng.normal(size=shape), np.ones(shape))
            find_delta(loss_at, grad_at, origin, PerturbConfig(rho=rho, k=k))
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
            # steps of rho / k: from a sphere-length step (k = 1) down to a twelfth of one
            cfg = PerturbConfig(rho=rho, k=int(rng.integers(1, 13)))
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
