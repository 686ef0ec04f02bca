import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from moprox import (
    ConfigError,
    ConvergenceError,
    InputError,
    InstanceSpec,
    NonsmoothTerm,
    ProblemInstance,
    SmoothEval,
    SolverConfig,
    Status,
    eval_smooth,
    gen_quadratic,
    generate_instance,
    quadratic_objective,
    solve,
)
import moprox.solver
import moprox.subproblem
from moprox.subproblem import (
    Metric,
    inner_minimize,
    model_values,
    project_simplex,
    solve_direction,
)

from conftest import grid_min_theta, simplex_projection_oracle, subdiff_residual


class TestProjectSimplex:
    def test_hand_case(self):
        out = project_simplex(np.array([0.9, 0.5, -0.2]))
        assert np.allclose(out, [0.7, 0.3, 0.0], atol=1e-14)

    def test_interior_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(v), v, atol=1e-14)

    def test_matches_support_enumeration_oracle(self):
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(100):
            m = int(rng.integers(1, 7))
            v = 3.0 * rng.standard_normal(m)
            got = project_simplex(v)
            want = simplex_projection_oracle(v)
            assert np.max(np.abs(got - want)) < 1e-12
            assert abs(got.sum() - 1.0) < 1e-12
            assert np.all(got >= 0.0)

    @pytest.mark.parametrize("v, want", [([1e16, -1e16], [1.0, 0.0]),
                                         ([1e20, 1e20], [0.5, 0.5]),
                                         ([1.7e308, -1.7e308], [1.0, 0.0])])
    def test_entries_2_pow_53_apart(self, v, want):
        # rounding fails every threshold test of the sorted entries; the
        # projection falls back to the entries shifted by their max, where
        # the last difference overflows without a RuntimeWarning
        assert project_simplex(np.array(v)).tolist() == want

    def test_rejects_bad_input(self):
        for v in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(InputError, match="project_simplex input has non-finite"):
                project_simplex(np.array(v))
        with pytest.raises(InputError):
            project_simplex(np.zeros((2, 2)))


class TestModelValues:
    def test_quadratic_model_by_hand(self, biquadratic):
        x = np.array([2.0])
        se = eval_smooth(biquadratic, x)
        # gradients at x=2 are (1, 3); Hessians are [[1]]
        d = np.array([-1.0])
        psi = model_values(d, se, biquadratic.nonsmooth, x)
        assert np.allclose(psi, [-0.5, -2.5])

    def test_vertex_step_by_hand(self, biquadratic):
        x = np.array([2.0])
        se = eval_smooth(biquadratic, x)
        # the exact inner step at weights (0, 1): weighted gradient 3,
        # curvature 1, so d = -3
        psi = model_values(np.array([-3.0]), se, biquadratic.nonsmooth, x)
        assert np.allclose(psi, [1.5, -4.5])

    def test_l1_shift_included(self, l1_scalar):
        x = np.array([3.0])
        se = eval_smooth(l1_scalar, x)
        d = np.array([-3.0])
        psi = model_values(d, se, l1_scalar.nonsmooth, x)
        # grad 3, curvature 1: 3*(-3) + 0.5*9 + (|0| - |3|) = -7.5
        assert np.allclose(psi, [-7.5])

    def test_indicator_gives_inf_outside(self):
        spec = InstanceSpec(family="quadratic_box", n=2, m=2, seed=1)
        prob = generate_instance(spec)
        x = np.zeros(2)
        se = eval_smooth(prob, x)
        psi = model_values(np.array([5.0, 0.0]), se, prob.nonsmooth, x)
        assert np.all(np.isinf(psi))

    def test_infeasible_base_point_rejected(self):
        spec = InstanceSpec(family="quadratic_box", n=2, m=2, seed=1)
        prob = generate_instance(spec)
        x = np.array([5.0, 0.0])
        se = eval_smooth(prob, x)
        with pytest.raises(InputError):
            model_values(np.zeros(2), se, prob.nonsmooth, x)

    @staticmethod
    def _exact_model(d, se, rho, x):
        dq = [Fraction(v) for v in d]
        xq = [Fraction(v) for v in x]
        shift = Fraction(rho) * (sum(abs(a + b) for a, b in zip(xq, dq))
                                 - sum(abs(a) for a in xq))
        out = []
        for g, H in zip(se.gradients, se.hessians):
            lin = sum(Fraction(gj) * dj for gj, dj in zip(g, dq))
            quad = sum(dj * Fraction(H[j, k]) * dk
                       for j, dj in enumerate(dq) for k, dk in enumerate(dq))
            out.append(lin + quad / 2 + shift)
        return out

    @pytest.mark.parametrize("seed", range(5))
    def test_correctly_rounded_at_large_base_point(self, seed):
        # a short step from a far point: the l1 shift cancels |x + d| - |x|
        # at |x| ~ 1e6, where float arithmetic loses about 4e-15 relative to
        # psi but stays within the gap floor's GAP_FLOOR eps64 S, S the sum
        # of the magnitudes that psi adds up
        spec = InstanceSpec(family="quadratic_l1", n=10, m=3, cond=100.0,
                            rho=0.1, seed=seed)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(seed))
        x = 1e6 * rng.standard_normal(10)
        d = 1e-3 * rng.standard_normal(10)
        se = eval_smooth(prob, x)
        psi = model_values(d, se, prob.nonsmooth, x)
        assert psi.dtype == np.float64
        exact = self._exact_model(d, se, prob.nonsmooth.rho, x)
        hd = np.einsum("ijk,k->ij", se.hessians, d)
        scale = (np.max(np.abs(se.gradients) @ np.abs(d) + 0.5 * np.abs(hd) @ np.abs(d))
                 + prob.nonsmooth.value(x + d) + prob.nonsmooth.value(x))
        floor = Fraction(moprox.subproblem.GAP_FLOOR * np.finfo(float).eps * scale)
        for got, want in zip(psi, exact):
            assert abs(Fraction(got) - want) <= floor

    def test_term_value_keeps_extended_precision(self):
        u = np.array([1.0, -2.0, 0.5], dtype=np.longdouble) + np.longdouble(2.0) ** -60
        l1 = NonsmoothTerm.scaled_l1(0.5).value(u)
        assert isinstance(l1, np.longdouble)
        assert l1 == np.longdouble(0.5) * np.sum(np.abs(u))
        assert l1 != 0.5 * float(np.sum(np.abs(u.astype(float))))
        box = NonsmoothTerm.box(-3.0 * np.ones(3), 3.0 * np.ones(3))
        assert box.value(u) == 0.0
        assert box.value(u + np.longdouble(3.0)) == np.inf


class TestHessianProducts:
    """Metric.hessian().products, the BLAS product H_i d, against exact arithmetic."""

    @staticmethod
    def _stack(n, m, rng):
        # each row at its own scale 2^-300 .. 2^300, a zero row, a row of
        # alternating signs, and a row near 2^1000
        H = rng.standard_normal((m, n, n)) * np.ldexp(1.0, rng.integers(-300, 301, (m, n, 1)))
        H[0, 0] = 0.0
        H[-1, 0] = 2.0 ** 30 * (-1.0) ** np.arange(n) * rng.uniform(1.0, 2.0, n)
        H[-1, -1] = 2.0 ** 997 * rng.standard_normal(n)
        return H

    @pytest.mark.parametrize("n, m", [(1, 3), (10, 3), (200, 1)])
    def test_within_2_pow_minus_62_of_exact(self, n, m):
        # a float64 product of n terms: within n eps64 (|H||d|)_j of exact
        rng = np.random.Generator(np.random.PCG64(n))
        H = self._stack(n, m, rng)
        se = SmoothEval(values=np.zeros(m), gradients=np.zeros((m, n)), hessians=H)
        directions = [np.zeros(n), rng.standard_normal(n),
                      2.0 ** -200 * rng.standard_normal(n) * rng.integers(0, 2, n)]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            products = Metric.hessian().products(se)
            got = [products(d) for d in directions]
        for d, hd in zip(directions, got):
            assert hd.dtype == np.float64 and hd.shape == (m, n)
            dq = [Fraction(v) for v in d]
            for i in range(m):
                for j in range(n):
                    row = [Fraction(v) for v in H[i, j]]
                    exact = sum(a * b for a, b in zip(row, dq))
                    scale = sum(abs(a * b) for a, b in zip(row, dq))
                    err = abs(Fraction(hd[i, j]) - exact)
                    assert err <= n * Fraction(np.finfo(float).eps) * scale, (i, j)


class TestInnerMinimize:
    def test_zero_term_solves_linear_system(self):
        spec = InstanceSpec(family="quadratic", n=4, m=2, cond=10.0, seed=9)
        prob = generate_instance(spec)
        x = np.zeros(4)
        se = eval_smooth(prob, x)
        lam = np.array([0.4, 0.6])
        d, _, _, _ = inner_minimize(lam, se, prob.nonsmooth, x)
        H = np.einsum("i,ijk->jk", lam, se.hessians)
        g = lam @ se.gradients
        assert np.max(np.abs(H @ d + g)) < 1e-9

    def test_l1_scalar_matches_soft_threshold(self, l1_scalar):
        x = np.array([3.0])
        se = eval_smooth(l1_scalar, x)
        d, _, _, _ = inner_minimize(np.array([1.0]), se, l1_scalar.nonsmooth, x)
        # argmin 3d + 0.5 d^2 + |3 + d| - 3 sits at the kink 3 + d = 0
        assert abs(d[0] + 3.0) < 1e-10

    def test_box_matches_stationarity_on_free_set(self):
        spec = InstanceSpec(family="quadratic_box", n=3, m=1, seed=4,
                            lo=-0.2, hi=0.2)
        prob = generate_instance(spec)
        x = np.zeros(3)
        se = eval_smooth(prob, x)
        d, _, _, _ = inner_minimize(np.array([1.0]), se, prob.nonsmooth, x)
        assert np.all(x + d <= 0.2 + 1e-12)
        assert np.all(x + d >= -0.2 - 1e-12)
        inside = np.abs(np.abs(x + d) - 0.2) > 1e-9
        if np.any(inside):
            resid = se.hessians[0] @ d + se.gradients[0]
            assert np.max(np.abs(resid[inside])) < 1e-8

    def test_zero_term_is_one_plain_cholesky_solve(self):
        spec = InstanceSpec(family="quadratic", n=12, m=3, cond=100.0, seed=5)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.standard_normal(12)
        se = eval_smooth(prob, x)
        lam = rng.dirichlet(np.ones(3))
        d, free, _, passes = inner_minimize(lam, se, prob.nonsmooth, x)
        M = np.tensordot(lam, se.hessians, axes=1)
        M = 0.5 * (M + M.T)
        want = cho_solve(cho_factor(M, lower=True), -(lam @ se.gradients))
        assert np.array_equal(d, want)
        assert free.all() and passes == 1

    @pytest.mark.parametrize("family", ["quadratic_l1", "quadratic_box"])
    @pytest.mark.parametrize("n", [3, 10, 50])
    @pytest.mark.parametrize("m", [2, 5])
    def test_exact_on_kinks_and_bounds(self, family, n, m):
        for seed in range(5):
            spec = InstanceSpec(family=family, n=n, m=m, cond=100.0, rho=0.1,
                                seed=seed)
            prob = generate_instance(spec)
            term = prob.nonsmooth
            rng = np.random.Generator(np.random.PCG64(100 + seed))
            x = 2.0 * rng.standard_normal(n)
            if family == "quadratic_l1":
                x[rng.random(n) < 0.3] = 0.0
            else:
                x = np.clip(x, spec.lo, spec.hi)
            se = eval_smooth(prob, x)
            lam = rng.dirichlet(np.ones(m))
            d, free, _, _ = inner_minimize(lam, se, term, x)
            v = lam @ se.gradients
            M = np.tensordot(lam, se.hessians, axes=1)
            resid = subdiff_residual(term, x + d, v + M @ d)
            assert resid <= 1e-13 * max(1.0, float(np.max(np.abs(v)))), (seed, resid)
            held = ~free
            if family == "quadratic_l1":
                assert np.all((x + d)[held] == 0.0)
            else:
                at_bound = (d == spec.lo - x) | (d == spec.hi - x)
                assert np.all(at_bound[held])

    @pytest.mark.parametrize("family", ["quadratic_l1", "quadratic_box"])
    @pytest.mark.parametrize("n", [3, 10, 50])
    @pytest.mark.parametrize("m", [2, 5])
    def test_warm_start_from_nearby_weights_saves_passes(self, family, n, m):
        # the inputs of test_exact_on_kinks_and_bounds, started from the
        # solution at nearby weights, as the direction solver's snaps are
        for seed in range(5):
            spec = InstanceSpec(family=family, n=n, m=m, cond=100.0, rho=0.1,
                                seed=seed)
            prob = generate_instance(spec)
            term = prob.nonsmooth
            rng = np.random.Generator(np.random.PCG64(100 + seed))
            x = 2.0 * rng.standard_normal(n)
            if family == "quadratic_l1":
                x[rng.random(n) < 0.3] = 0.0
            else:
                x = np.clip(x, spec.lo, spec.hi)
            se = eval_smooth(prob, x)
            lam = rng.dirichlet(np.ones(m))
            d, free, _, cold = inner_minimize(lam, se, term, x)
            d0, _, _, _ = inner_minimize(0.95 * lam + 0.05 / m, se, term, x)
            d_warm, free_warm, _, warm = inner_minimize(lam, se, term, x, d0=d0)
            assert warm <= cold, (seed, warm, cold)
            assert np.array_equal(free_warm, free) and np.array_equal(d_warm, d)

    @pytest.mark.parametrize("d0", [np.zeros(3), np.array([0.0, np.nan]),
                                    np.array([0.0, np.inf])])
    def test_rejects_bad_start(self, d0):
        spec = InstanceSpec(family="quadratic_l1", n=2, m=2, rho=0.1, seed=1)
        prob = generate_instance(spec)
        se = eval_smooth(prob, np.ones(2))
        with pytest.raises(InputError, match="d0 must be a finite vector"):
            inner_minimize(np.array([0.5, 0.5]), se, prob.nonsmooth, np.ones(2), d0=d0)

    def test_iteration_cap_raises(self, l1_scalar, monkeypatch):
        monkeypatch.setattr(moprox.subproblem, "MAX_INNER_PASSES", 1)
        x = np.array([3.0])
        se = eval_smooth(l1_scalar, x)
        with pytest.raises(ConvergenceError) as exc:
            inner_minimize(np.array([1.0]), se, l1_scalar.nonsmooth, x)
        assert exc.value.residual is not None

    def test_convergence_error_carries_payload(self):
        err = ConvergenceError("stopped early", residual=0.5)
        assert err.residual == 0.5


class TestSolveDirection:
    def test_biquadratic_hand_solution(self, biquadratic):
        res = solve_direction(biquadratic, np.array([2.0]), tol_gap=1e-12)
        assert abs(res.direction[0] + 1.0) < 1e-10
        assert res.theta == pytest.approx(-0.5, abs=1e-10)
        assert res.weights[0] == pytest.approx(1.0, abs=1e-8)
        assert res.gap <= 1e-12

    def test_critical_point_yields_zero_direction(self, biquadratic):
        res = solve_direction(biquadratic, np.array([0.0]), tol_gap=1e-12)
        assert np.linalg.norm(res.direction) < 1e-10
        assert res.theta == pytest.approx(0.0, abs=1e-12)

    def test_l1_scalar_exact(self, l1_scalar):
        res = solve_direction(l1_scalar, np.array([3.0]), tol_gap=1e-12)
        assert abs(res.direction[0] + 3.0) < 1e-10
        assert res.theta == pytest.approx(-7.5, abs=1e-10)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_single_objective_skips_dual_loop(self, l1_scalar):
        res = solve_direction(l1_scalar, np.array([3.0]), tol_gap=1e-12)
        assert res.dual_iters == 1

    def test_interior_dual_optimum_balanced(self):
        spec = InstanceSpec(family="quadratic", n=2, m=2, cond=10.0, seed=2)
        shifts = np.array([[1.0, 0.5], [-1.0, -0.5]])
        prob = gen_quadratic(spec, shifts=shifts)
        res = solve_direction(prob, np.zeros(2), tol_gap=1e-12)
        # between the two minima both objectives stay active
        assert np.all(res.weights > 0.05)
        se = eval_smooth(prob, np.zeros(2))
        psi = model_values(res.direction, se, prob.nonsmooth, np.zeros(2))
        assert abs(psi[0] - psi[1]) < 1e-8

    def test_theta_matches_grid_oracle(self):
        specs = [
            InstanceSpec(family="quadratic", n=2, m=2, cond=30.0, seed=21),
            InstanceSpec(family="quadratic_l1", n=2, m=3, cond=5.0, rho=0.3,
                         seed=22),
            InstanceSpec(family="quadratic_box", n=2, m=2, seed=23,
                         lo=-0.5, hi=0.5),
        ]
        rng = np.random.Generator(np.random.PCG64(77))
        for spec in specs:
            prob = generate_instance(spec)
            for _ in range(3):
                x = 0.4 * rng.standard_normal(2)
                if spec.family == "quadratic_box":
                    x = np.clip(x, spec.lo + 0.05, spec.hi - 0.05)
                res = solve_direction(prob, x, tol_gap=1e-12)
                want = grid_min_theta(prob, x)
                assert abs(res.theta - want) < 1e-4

    def test_descent_bound_on_random_states(self):
        rng = np.random.Generator(np.random.PCG64(88))
        for seed in range(6):
            spec = InstanceSpec(family="quadratic_l1", n=6, m=3, cond=100.0,
                                rho=0.2, seed=seed)
            prob = generate_instance(spec)
            x = rng.standard_normal(6)
            res = solve_direction(prob, x, tol_gap=1e-12)
            d2 = float(res.direction @ res.direction)
            assert res.theta <= -0.5 * prob.mu * d2 + 1e-10

    def test_dual_history_monotone(self):
        spec = InstanceSpec(family="quadratic", n=8, m=3, cond=1e3, seed=31)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(31))
        x = rng.standard_normal(8)
        res = solve_direction(prob, x, tol_gap=1e-12)
        hist = np.asarray(res.dual_history)
        assert hist.size >= 1
        slack = 1e-9 * np.maximum(1.0, np.abs(hist[:-1]))
        assert np.all(np.diff(hist) >= -slack)

    def test_weights_live_on_simplex(self):
        spec = InstanceSpec(family="quadratic", n=5, m=3, cond=50.0, seed=13)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(5):
            x = rng.standard_normal(5)
            res = solve_direction(prob, x, tol_gap=1e-12)
            assert abs(res.weights.sum() - 1.0) < 1e-9
            assert np.all(res.weights >= -1e-12)

    def test_gap_certificate_honest(self):
        # theta must be exactly the worst model value of the returned direction
        spec = InstanceSpec(family="quadratic_l1", n=4, m=2, cond=10.0,
                            rho=0.1, seed=3)
        prob = generate_instance(spec)
        x = np.array([1.0, -2.0, 0.5, 0.0])
        res = solve_direction(prob, x, tol_gap=1e-12)
        se = eval_smooth(prob, x)
        psi = model_values(res.direction, se, prob.nonsmooth, x)
        assert np.max(psi) == pytest.approx(res.theta, abs=1e-9)

    def test_one_factorization_per_pass(self, monkeypatch):
        # the face-Newton steps reuse the inner solve's factor
        real = moprox.subproblem._potrf
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(moprox.subproblem, "_potrf", counting)
        spec = InstanceSpec(family="quadratic", n=6, m=3, cond=10.0, seed=4)
        res = solve_direction(generate_instance(spec), np.zeros(6), tol_gap=1e-12)
        assert res.dual_iters > 1
        assert len(calls) == res.inner_iters

    def test_inner_cap_propagates(self, l1_scalar, monkeypatch):
        monkeypatch.setattr(moprox.subproblem, "MAX_INNER_PASSES", 1)
        with pytest.raises(ConvergenceError) as exc:
            solve_direction(l1_scalar, np.array([3.0]), tol_gap=1e-12)
        assert exc.value.residual is not None


class TestWarmStart:
    """solve_direction's starts: the dual weights, and each snap's active set."""

    def test_each_snap_starts_from_the_previous_snaps_direction(self, monkeypatch):
        real = moprox.subproblem.inner_minimize
        starts, results = [], []

        def recording(*args, d0=None, **kwargs):
            starts.append(d0)
            results.append(real(*args, d0=d0, **kwargs))
            return results[-1]

        monkeypatch.setattr(moprox.subproblem, "inner_minimize", recording)
        spec = InstanceSpec(family="quadratic_box", n=10, m=3, cond=100.0, seed=3)
        x = np.random.Generator(np.random.PCG64(3)).uniform(-1.0, 1.0, 10)
        res = solve_direction(generate_instance(spec), x, tol_gap=1e-12)
        assert res.dual_iters == len(starts) > 1
        assert starts[0] is None
        for start, previous in zip(starts[1:], results):
            assert np.array_equal(start, previous[0])

    @pytest.mark.parametrize("weights", [
        [0.5, 0.5],  # m = 3 wants three
        [0.5, 0.5, np.nan],
        [np.inf, 0.0, 0.0],
        [0.6, 0.6, -0.2],
        [0.5, 0.25, 0.24],
        [0.5, 0.25, 0.25 + 1e-12],
        [[1 / 3, 1 / 3, 1 / 3]],
        [-np.inf, 1.0, 1.0],
        [np.inf, -np.inf, 1.0],
        [np.inf, np.inf, np.inf],
        [1.0 + 8 * 3 * np.finfo(float).eps, 0.0, 0.0],
    ])
    def test_rejects_weights_off_the_simplex(self, weights):
        # one min (nan and -inf fail it) and one sum (+inf fails it) reject
        # what an entry-by-entry test would, with no RuntimeWarning
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        with pytest.raises(InputError) as exc:
            solve_direction(prob, np.ones(4), weights=weights)
        assert str(exc.value) == ("weights must be 3 finite nonnegative numbers summing "
                                  f"to 1, got {np.array(weights, dtype=float)!r}")

    @pytest.mark.parametrize("weights", [
        [0.0, 1.0, 0.0], [0.7, 0.2, 0.1], [-0.0, 1.0, 0.0],
        [1.0 + 2 * np.finfo(float).eps, 0.0, 0.0],  # within 4 m eps of summing to 1
    ])
    def test_accepts_weights_on_the_simplex(self, weights):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        res = solve_direction(prob, np.ones(4), weights=weights)
        assert res.weights.min() >= 0.0 and res.dual_iters >= 1

    @pytest.mark.parametrize("x", [[1.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])
    def test_rejects_a_nonfinite_point(self, x):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        with pytest.raises(InputError, match="point has non-finite entries"):
            solve_direction(prob, np.array(x))

    @pytest.mark.parametrize("tol_gap", [0.0, -1e-12, np.nan, np.inf])
    def test_rejects_a_bad_tol_gap(self, tol_gap):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        with pytest.raises(InputError, match="tol_gap must be finite and > 0"):
            solve_direction(prob, np.ones(4), tol_gap=tol_gap)

    @pytest.mark.parametrize("eps", [0.0, -1e-9, np.nan, np.inf, -np.inf])
    def test_rejects_a_bad_eps(self, eps):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        with pytest.raises(InputError) as exc:
            solve_direction(prob, np.ones(4), eps=eps)
        assert str(exc.value) == f"eps must be finite and > 0, got {eps}"

    def test_rejects_a_base_point_outside_the_box(self):
        # g(x) = +inf there
        prob = generate_instance(InstanceSpec(family="quadratic_box", n=4, m=3, seed=1))
        with pytest.raises(InputError) as exc:
            solve_direction(prob, np.full(4, 2.0))
        assert str(exc.value) == "base point lies outside the domain of the nonsmooth term"

    def test_rejects_a_smooth_eval_without_hessians_under_the_hessian_metric(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        x = np.ones(4)
        se = eval_smooth(prob, x, hessians=False)
        with pytest.raises(InputError, match="smooth_eval has no Hessians"):
            solve_direction(prob, x, smooth_eval=se)
        # the scaled-identity metric reads no Hessians
        res = solve_direction(prob, x, smooth_eval=se, metric=Metric.scaled_identity(2.0))
        assert res.direction.shape == (4,)

    def test_rejects_a_smooth_eval_of_another_instance(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        x = np.ones(4)
        for m, n, part in ((2, 4, r"values have shape \(2,\), expected \(3,\)"),
                           (3, 5, r"gradients have shape \(3, 5\), expected \(3, 4\)")):
            other = generate_instance(InstanceSpec(family="quadratic", n=n, m=m, seed=1))
            se = eval_smooth(other, np.ones(n))
            with pytest.raises(InputError, match=part + " for m=3, n=4"):
                solve_direction(prob, x, smooth_eval=se)
        se = eval_smooth(prob, x)
        cut = SmoothEval(values=se.values, gradients=se.gradients,
                         hessians=se.hessians[:, :3, :3])
        with pytest.raises(InputError, match=r"hessians have shape \(3, 3, 3\)"):
            solve_direction(prob, x, smooth_eval=cut)

    def test_model_values_rejects_a_smooth_eval_without_hessians(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        x = np.ones(4)
        se = eval_smooth(prob, x, hessians=False)
        with pytest.raises(InputError, match="smooth_eval has no Hessians"):
            model_values(np.zeros(4), se, prob.nonsmooth, x)

    def test_accepts_a_vertex_and_rounded_sums(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=3, seed=1))
        for weights in ([0.0, 1.0, 0.0], [0.7, 0.2, 0.1]):  # the latter sums to 1 - 1 ulp
            res = solve_direction(prob, np.ones(4), tol_gap=1e-12, weights=weights)
            assert res.gap <= 1e-12

    @pytest.mark.parametrize("family", ["quadratic", "quadratic_l1", "quadratic_box"])
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_one_step_weights_certify_the_next_point(self, family, m):
        # quadratic termination: grad f_i(x1) = grad f_i(x0) + H_i d0 at
        # x1 = x0 + d0, so the weights of the first subproblem solve the second
        for seed in range(2):
            spec = InstanceSpec(family=family, n=10, m=m, cond=100.0, rho=0.1, seed=seed)
            prob = generate_instance(spec)
            x0 = 2.0 * np.random.Generator(np.random.PCG64(seed)).standard_normal(10)
            if family == "quadratic_box":
                x0 = np.clip(x0, spec.lo, spec.hi)
            res0 = solve_direction(prob, x0, tol_gap=1e-12)
            x1 = x0 + res0.direction
            warm = solve_direction(prob, x1, tol_gap=1e-12, weights=res0.weights)
            assert warm.dual_iters == 1, seed
            assert np.linalg.norm(warm.direction) < 1e-9
            cold = solve_direction(prob, x1, tol_gap=1e-12)
            assert cold.dual_iters > 1, seed


class TestDualTrialRule:
    """The dual loop's trials: where they stop, and the projected Newton step."""

    @pytest.mark.parametrize("family", ["logsumexp", "quadratic_box"])
    @pytest.mark.parametrize("m", [3, 8])
    def test_stops_at_the_first_certifying_snap(self, family, m, monkeypatch):
        # along whole solves, no snap follows one whose gap reaches tol_gap,
        # whether the trial that made it was accepted or not
        snaps, directions = [], []  # [weights, psi] per snap; (result, snaps) per solve
        real_inner = moprox.subproblem.inner_minimize
        real_certificate = moprox.subproblem._model_values_hi
        real_direction = moprox.solver.solve_direction

        def inner(weights, *args, **kwargs):
            snaps.append([np.array(weights, dtype=float)])
            return real_inner(weights, *args, **kwargs)

        def certificate(*args):
            psi, hd = real_certificate(*args)
            snaps[-1].append(psi)
            return psi, hd

        def direction(*args, **kwargs):
            snaps.clear()
            res = real_direction(*args, **kwargs)
            directions.append((res, list(snaps)))
            return res

        monkeypatch.setattr(moprox.subproblem, "inner_minimize", inner)
        monkeypatch.setattr(moprox.subproblem, "_model_values_hi", certificate)
        monkeypatch.setattr(moprox.solver, "solve_direction", direction)
        records = 0
        for seed in range(6):
            spec = InstanceSpec(family=family, n=10, m=m, seed=seed,
                                cond=1.0 if family == "logsumexp" else 100.0)
            rng = np.random.Generator(np.random.PCG64(seed))
            x0 = (rng.uniform(spec.lo, spec.hi, 10) if family == "quadratic_box"
                  else 2.0 * rng.standard_normal(10))
            trace = solve(generate_instance(spec), SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
            assert trace.status is Status.CRITICAL_REACHED
            records += len(trace.records)
        assert len(directions) == records
        for res, direction_snaps in directions:
            assert res.dual_iters == len(direction_snaps)
            certified = [psi.max() - w @ psi <= 1e-12 for w, psi in direction_snaps]
            if any(certified):
                assert certified.index(True) == len(certified) - 1
            assert np.all(np.diff(res.dual_history) >= 0.0)

    def test_projected_newton_step_cuts_the_snaps(self):
        # the full face-Newton step, projected, drops at once the weights a
        # cut-back to the simplex boundary would drop one snap at a time; the
        # cut-back alone took 48 snaps here
        iters = 0
        for seed in range(6):
            spec = InstanceSpec(family="quadratic_l1", n=10, m=8, cond=100.0, rho=0.1,
                                seed=seed)
            x0 = 2.0 * np.random.Generator(np.random.PCG64(seed)).standard_normal(10)
            res = solve_direction(generate_instance(spec), x0, tol_gap=1e-12)
            assert res.gap <= 1e-12 and not res.message
            iters += res.dual_iters
        assert iters <= 36


class TestSingularFaces:
    """Faces whose Newton system is singular: more indices than free coordinates + 1."""

    CFG = SolverConfig(eps=1e-9, tol_gap=1e-12)

    @staticmethod
    def _a01_run(family, m, cond, seed, start):
        # an n = 2 cell of the A01 whole grid, solved from PCG64(start)
        spec = InstanceSpec(family=family, n=2, m=m, cond=cond,
                            rho=0.1 if family == "quadratic_l1" else 0.0, seed=seed)
        rng = np.random.Generator(np.random.PCG64(start))
        x0 = (rng.uniform(spec.lo, spec.hi, 2) if family == "quadratic_box"
              else 2.0 * rng.standard_normal(2))
        return solve(generate_instance(spec), TestSingularFaces.CFG, x0)

    def test_a01_grid_run_1072_ends_within_20_snaps(self):
        # m = 8 on n = 2: the LU solve with its lstsq fallback took 283 snaps
        trace = self._a01_run("quadratic_box", 8, 1e2, 127, 8127)
        assert trace.status is Status.CRITICAL_REACHED
        assert trace.snaps <= 20

    @pytest.mark.parametrize("m, seed, start", [(4, 63, 32063), (5, 72, 56072)])
    def test_flat_faces_do_not_cycle_at_equal_phi(self, m, seed, start):
        # accepting every trial with equal phi cycled on these flat faces
        # until MAX_DUAL_ITERS; a tie is accepted only when the gap falls
        trace = self._a01_run("quadratic_l1", m, 1.0, seed, start)
        assert trace.status is Status.CRITICAL_REACHED, trace.message

    def test_duplicated_objectives_end_critical(self, monkeypatch):
        # rows (f0, f1, f1, f2): a face holding both copies of f1 has an
        # exactly singular Newton system, which the pivoted Cholesky solves
        # on its leading rank pivots (the LU solve raised there 68 times)
        ranks = []
        real = moprox.subproblem._pstrf

        def pstrf(a, **kwargs):
            out = real(a, **kwargs)
            ranks.append((out[2], a.shape[0]))
            return out

        monkeypatch.setattr(moprox.subproblem, "_pstrf", pstrf)
        base = gen_quadratic(InstanceSpec("quadratic", n=2, m=3, cond=10.0, seed=4))
        f = base.smooth
        prob = dataclasses.replace(base, m=4, smooth=(f[0], f[1], f[1], f[2]))
        for seed in range(50):
            x0 = 2.0 * np.random.Generator(np.random.PCG64(seed)).standard_normal(2)
            trace = solve(prob, self.CFG, x0)
            assert trace.status is Status.CRITICAL_REACHED, (seed, trace.message)
        assert sum(rank < size for rank, size in ranks) > 0

    def test_a_zero_face_system_takes_no_step(self, monkeypatch):
        # x_0 is held at its bound and the objectives agree on the free x_1,
        # so both rows of Q are zero and the 1x1 face system has rank 0; the
        # Newton step is zero, and the best vertex, weight on f_0, certifies
        ranks = []
        real = moprox.subproblem._pstrf

        def pstrf(a, **kwargs):
            out = real(a, **kwargs)
            ranks.append(out[2])
            return out

        monkeypatch.setattr(moprox.subproblem, "_pstrf", pstrf)
        eye = np.eye(2)
        smooth = tuple(quadratic_objective(eye, np.array([b0, 0.0])) for b0 in (10.0, 20.0))
        prob = ProblemInstance(n=2, m=2, smooth=smooth,
                               nonsmooth=NonsmoothTerm.box(-np.ones(2), np.ones(2)), mu=1.0)
        res = solve_direction(prob, np.array([0.5, 0.0]), tol_gap=1e-12)
        assert ranks == [0]
        assert res.gap <= 1e-12 and not res.message
        assert np.array_equal(res.weights, [1.0, 0.0])
        assert np.array_equal(res.direction, [0.5, 0.0])


class TestScaledIdentityMetric:
    """The closed form under ell I against the dense path fed an ell I stack."""

    @staticmethod
    def _case(family, n, m, seed):
        spec = InstanceSpec(family=family, n=n, m=m, cond=100.0,
                            rho=0.1 if family == "quadratic_l1" else 0.0, seed=seed)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        x = 2.0 * rng.standard_normal(n)
        if family == "quadratic_l1":
            x[rng.random(n) < 0.3] = 0.0
        elif family == "quadratic_box":
            x = np.clip(x, spec.lo, spec.hi)
        se = eval_smooth(prob, x)
        ell = prob.lip_grad
        # the dense reference: every Hessian replaced by a broadcast ell I
        dense = SmoothEval(values=se.values, gradients=se.gradients,
                           hessians=np.broadcast_to(ell * np.eye(n), (m, n, n)))
        return prob, x, se, dense, ell, rng

    @pytest.mark.parametrize("family", ["quadratic", "quadratic_l1", "quadratic_box"])
    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("m", [2, 5])
    def test_matches_dense_path(self, family, n, m):
        for seed in range(5):
            prob, x, se, dense, ell, rng = self._case(family, n, m, seed)
            metric = Metric.scaled_identity(ell)
            term = prob.nonsmooth
            lam = rng.dirichlet(np.ones(m))
            d, free, _, passes = metric.minimize(lam, se, term, x)
            d_ref, free_ref, _, _ = inner_minimize(lam, dense, term, x)
            assert passes == 1
            assert np.array_equal(free, free_ref), seed
            assert np.max(np.abs(d - d_ref)) <= 1e-12 * max(1.0, np.linalg.norm(d_ref))

            res = solve_direction(prob, x, tol_gap=1e-12, smooth_eval=se, metric=metric)
            ref = solve_direction(prob, x, tol_gap=1e-12, smooth_eval=dense)
            scale = max(1.0, float(np.linalg.norm(ref.direction)))
            assert np.max(np.abs(res.direction - ref.direction)) <= 1e-12 * scale, seed
            assert abs(res.theta - ref.theta) <= 1e-13 * max(1.0, abs(ref.theta)), seed
            assert res.inner_iters == res.dual_iters

    def test_hessians_not_read(self):
        prob, x, se, _, ell, _ = self._case("quadratic_l1", 10, 3, 0)
        nan_hessians = SmoothEval(values=se.values, gradients=se.gradients,
                                  hessians=np.full_like(se.hessians, np.nan))
        metric = Metric.scaled_identity(ell)
        want = solve_direction(prob, x, tol_gap=1e-12, smooth_eval=se, metric=metric)
        got = solve_direction(prob, x, tol_gap=1e-12, smooth_eval=nan_hessians,
                              metric=metric)
        assert np.array_equal(got.direction, want.direction)
        assert got.theta == want.theta

    def test_start_is_ignored(self):
        prob, x, se, _, ell, rng = self._case("quadratic_box", 10, 3, 1)
        metric = Metric.scaled_identity(ell)
        lam = rng.dirichlet(np.ones(3))
        want = metric.minimize(lam, se, prob.nonsmooth, x)
        got = metric.minimize(lam, se, prob.nonsmooth, x, d0=5.0 * rng.standard_normal(10))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_rejects_bad_ell(self):
        for ell in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                Metric.scaled_identity(ell)
