import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import moprox.solver
import moprox.subproblem
from moprox import (
    ConfigError,
    ConvergenceError,
    InputError,
    InstanceSpec,
    LineSearchError,
    NonsmoothTerm,
    ProblemInstance,
    SmoothObjective,
    SolverConfig,
    Status,
    armijo_backtrack,
    criticality_measure,
    eval_full,
    generate_instance,
    solve,
)
from moprox.subproblem import DirectionResult, Metric, solve_direction
from moprox.zoo import attach_nonsmooth, gen_quadratic, quadratic_objective

from conftest import min_norm_residual


def _single_quadratic(a=1.0, b=0.0):
    return ProblemInstance(
        n=1, m=1,
        smooth=(quadratic_objective(np.array([[a]]), np.array([b])),),
        nonsmooth=NonsmoothTerm.zero(), mu=a)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.variant == "newton"
        # the Armijo fraction and ratio are constants, not settings
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "eps", "max_outer", "tol_gap", "variant", "ell"]
        assert (moprox.solver.SIGMA, moprox.solver.GAMMA) == (0.1, 0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(eps=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(variant="secant")
        with pytest.raises(ConfigError):
            SolverConfig(variant="gradient")
        with pytest.raises(ConfigError):
            SolverConfig(variant="gradient", ell=-1.0)
        assert SolverConfig(variant="gradient", ell=2.0).ell == 2.0


    @pytest.mark.parametrize("kwargs, field", [
        ({"eps": 0.0}, "eps"), ({"eps": np.nan}, "eps"), ({"tol_gap": 0.0}, "tol_gap"),
        ({"max_outer": -1}, "max_outer"), ({"tol_gap": np.inf}, "tol_gap"),
        ({"variant": "secant"}, "variant"), ({"variant": "gradient"}, "ell"),
    ])
    def test_errors_name_their_field(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            SolverConfig(**kwargs)
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field} must ")

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_outer": 10.0}, "max_outer must be an integer, got 10.0"),
        ({"max_outer": True}, "max_outer must be an integer, got True"),
        ({"max_outer": "100"}, "max_outer must be an integer, got '100'"),
        ({"eps": "1e-9"}, "eps must be a real number, got '1e-9'"),
        ({"tol_gap": None}, "tol_gap must be a real number, got None"),
        ({"variant": "gradient", "ell": "2"}, "ell must be a real number, got '2'"),
    ])
    def test_rejects_wrong_types(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            SolverConfig(**kwargs)
        assert str(exc.value) == message


class TestArmijoBacktrack:
    def test_full_step_accepted_on_exact_model(self):
        # f(x) = 0.5 x^2, x = 1, d = -1, theta = -0.5: decrease -0.5 <= -0.05
        prob = _single_quadratic()
        t = armijo_backtrack(prob, np.array([1.0]), np.array([-1.0]), -0.5,
                             sigma=0.1, gamma=0.5)
        assert t == 1.0

    def test_halving_hand_case(self):
        # f(x) = 0.5 x^2, x = 1, d = -2: full step gives 0 decrease, t = 0.5
        # lands at the minimum with decrease -0.5 <= 0.5 * 0.1 * (-0.5)
        prob = _single_quadratic()
        t = armijo_backtrack(prob, np.array([1.0]), np.array([-2.0]), -0.5,
                             sigma=0.1, gamma=0.5)
        assert t == 0.5

    def test_componentwise_not_scalarized(self):
        # second objective has its minimum at x = 0.75, so t = 1 and t = 0.5
        # overshoot it and raise F_2 even though F_1 drops a lot; only
        # t = 0.25 satisfies the decrease test for both components
        smooth = (quadratic_objective(np.array([[10.0]]), np.array([0.0])),
                  quadratic_objective(np.array([[8.0]]), np.array([6.0])))
        prob = ProblemInstance(n=1, m=2, smooth=smooth,
                               nonsmooth=NonsmoothTerm.zero(), mu=8.0)
        x = np.array([1.0])
        d = np.array([-1.0])
        t = armijo_backtrack(prob, x, d, -0.5, sigma=0.1, gamma=0.5)
        assert t == 0.25
        f_x = eval_full(prob, x)
        f_t = eval_full(prob, x + t * d)
        assert np.all(f_t - f_x <= t * 0.1 * (-0.5))
        # the scalarized sum would have accepted the full step
        f_1 = eval_full(prob, x + d)
        assert (f_1 - f_x).sum() <= 0.1 * (-0.5)

    def test_keep_holds_the_accepted_point_and_its_power(self):
        # the componentwise case above, with d = -1.1, halves twice; keep
        # ends with the point evaluated at the accepted step, to the bit, and
        # the power of gamma
        smooth = (quadratic_objective(np.array([[10.0]]), np.array([0.0])),
                  quadratic_objective(np.array([[8.0]]), np.array([6.0])))
        prob = ProblemInstance(n=1, m=2, smooth=smooth,
                               nonsmooth=NonsmoothTerm.zero(), mu=8.0)
        x, d = np.array([1.0]), np.array([-1.1])
        k = []
        t = armijo_backtrack(prob, x, d, -0.5, sigma=0.1, gamma=moprox.solver.GAMMA, keep=k)
        assert len(k) == 4 and k[3] >= 2
        assert k[2].tobytes() == (x + t * d).tobytes()
        assert t == moprox.solver.GAMMA ** k[3]
        assert k[1].tobytes() == eval_full(prob, k[2]).tobytes()

    def test_infeasible_trial_backtracks(self):
        box = NonsmoothTerm.box(np.array([0.0]), np.array([2.0]))
        prob = ProblemInstance(
            n=1, m=1,
            smooth=(quadratic_objective(np.array([[1.0]]), np.array([0.0])),),
            nonsmooth=box, mu=1.0)
        # full step leaves the box; halved step stays inside
        t = armijo_backtrack(prob, np.array([1.0]), np.array([-1.5]), -0.4,
                             sigma=0.1, gamma=0.5)
        assert t <= 0.5

    def test_zero_direction_rejected(self):
        prob = _single_quadratic()
        with pytest.raises(InputError, match="line search requires a nonzero direction"):
            armijo_backtrack(prob, np.array([1.0]), np.array([0.0]), -0.5,
                             sigma=0.1, gamma=0.5)

    def test_nonnegative_theta_rejected(self):
        prob = _single_quadratic()
        with pytest.raises(InputError, match="line search requires theta < 0"):
            armijo_backtrack(prob, np.array([1.0]), np.array([-1.0]), 0.0,
                             sigma=0.1, gamma=0.5)

    @pytest.mark.parametrize("theta", [np.nan, -np.inf, np.inf])
    def test_nonfinite_theta_rejected(self, theta):
        prob = _single_quadratic()
        with pytest.raises(InputError) as exc:
            armijo_backtrack(prob, np.array([1.0]), np.array([-1.0]), theta,
                             sigma=0.1, gamma=0.5)
        assert str(exc.value) == f"line search requires theta < 0, got {theta}"

    @pytest.mark.parametrize("f_x", [[np.nan], [np.inf], [-np.inf]])
    def test_nonfinite_values_at_x_rejected(self, f_x):
        prob = _single_quadratic()
        with pytest.raises(InputError,
                           match="line search requires finite objective values at x"):
            armijo_backtrack(prob, np.array([1.0]), np.array([-1.0]), -0.5,
                             sigma=0.1, gamma=0.5, f_x=np.array(f_x))

    @pytest.mark.parametrize("f_x", [1.0, [1.0, 1.0], [[1.0]]])
    def test_values_at_x_of_another_shape_rejected(self, f_x):
        # the acceptance test pairs F(x + t d) with F(x) objective by objective
        prob = _single_quadratic()
        with pytest.raises(InputError, match=r"requires f_x of shape \(1,\)"):
            armijo_backtrack(prob, np.array([1.0]), np.array([-1.0]), -0.5,
                             sigma=0.1, gamma=0.5, f_x=f_x)

    @pytest.mark.parametrize("x", [[np.nan], [np.inf]])
    def test_nonfinite_point_rejected(self, x):
        prob = _single_quadratic()
        with pytest.raises(InputError, match="point has non-finite entries"):
            armijo_backtrack(prob, np.array(x), np.array([-1.0]), -0.5,
                             sigma=0.1, gamma=0.5)

    def test_exhaustion_raises(self):
        # ascent direction never satisfies the decrease test
        prob = _single_quadratic()
        with pytest.raises(LineSearchError):
            armijo_backtrack(prob, np.array([1.0]), np.array([1.0]), -0.5,
                             sigma=0.1, gamma=0.5)


class TestSolveNewton:
    def test_biquadratic_one_step(self, biquadratic):
        # from x = 2 the exact direction is -1 with theta = -0.5; the full
        # step lands at the critical point x = 1 (unweighted optimum of f_1)
        cfg = SolverConfig(eps=1e-10, tol_gap=1e-12)
        tr = solve(biquadratic, cfg, np.array([2.0]))
        assert tr.status is Status.CRITICAL_REACHED
        assert tr.steps_taken == 1
        assert tr.records[0].step == 1.0
        assert tr.records[0].theta == pytest.approx(-0.5, abs=1e-10)
        assert tr.final_x[0] == pytest.approx(1.0, abs=1e-10)
        # terminal record carries the certificate of the last subproblem
        assert tr.records[-1].step == 0.0
        assert tr.records[-1].direction_norm < 1e-10

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-np.ones(4), np.ones(4))])
    def test_start_outside_the_box_rejected_before_iteration_0(self, lo, hi):
        base = generate_instance(InstanceSpec(family="quadratic", n=4, m=2, seed=1))
        prob = attach_nonsmooth(base, NonsmoothTerm.box(lo, hi))
        cfg = SolverConfig(eps=1e-9, tol_gap=1e-12)
        with pytest.raises(InputError, match=r"x0\[2\] = 1\.5 is not in \[-1\.0, 1\.0\]"):
            solve(prob, cfg, np.array([0.5, 1.0, 1.5, -3.0]))
        # within a few ulps of a bound counts as inside, as for the term's value
        tr = solve(prob, cfg, np.array([0.5, 1.0 + 1e-16, 0.0, -1.0]))
        assert tr.status is Status.CRITICAL_REACHED

    def test_quadratic_single_objective_newton_exact(self):
        spec = InstanceSpec(family="quadratic", n=6, m=1, cond=100.0, seed=2)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(2))
        tr = solve(prob, SolverConfig(eps=1e-10, tol_gap=1e-13),
                   rng.standard_normal(6))
        assert tr.status is Status.CRITICAL_REACHED
        assert tr.steps_taken == 1

    def test_componentwise_decrease_along_trace(self):
        spec = InstanceSpec(family="quadratic_l1", n=8, m=2, cond=100.0,
                            rho=0.2, seed=14)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(14))
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12),
                   2.0 * rng.standard_normal(8))
        assert tr.status is Status.CRITICAL_REACHED
        objs = np.array([r.objectives for r in tr.records])
        assert np.all(np.diff(objs, axis=0) <= 1e-12)

    def test_theta_strong_convexity_bound_on_trace(self):
        spec = InstanceSpec(family="quadratic", n=5, m=3, cond=1e3, seed=8)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(8))
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12),
                   rng.standard_normal(5))
        for rec in tr.records:
            if rec.step > 0.0:
                assert rec.theta <= -0.5 * prob.mu * rec.direction_norm ** 2 + 1e-10

    def test_max_outer_zero_reports_cap(self, biquadratic):
        tr = solve(biquadratic, SolverConfig(max_outer=1), np.array([5.0]))
        assert tr.status is Status.MAX_ITERS

    def test_start_at_critical_point(self, biquadratic):
        tr = solve(biquadratic, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   np.array([0.0]))
        assert tr.status is Status.CRITICAL_REACHED
        assert tr.steps_taken == 0
        assert len(tr.records) == 1
        assert tr.message == ""

    def test_subproblem_failure_recorded_not_raised(self, l1_scalar, monkeypatch):
        monkeypatch.setattr(moprox.subproblem, "MAX_INNER_PASSES", 1)
        cfg = SolverConfig(eps=1e-10, tol_gap=1e-12)
        tr = solve(l1_scalar, cfg, np.array([3.0]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message != ""
        assert np.isnan(tr.records[-1].theta)

    def test_line_search_failure_recorded_not_raised(self):
        # the oracle reports the gradient of 0.5 x^2 with the wrong sign, so
        # the direction it predicts to descend ascends at every trial step
        wrong_sign = SmoothObjective(fn=lambda x: (0.5 * float(x @ x), -x, np.eye(1)))
        prob = ProblemInstance(n=1, m=1, smooth=(wrong_sign,),
                               nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        tr = solve(prob, SolverConfig(eps=1e-10, tol_gap=1e-12), np.array([2.0]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message.startswith("no step of the form gamma^j")
        last = tr.records[-1]
        assert last.step == 0.0
        assert np.isfinite(last.direction_norm) and last.direction_norm > 0.0
        assert last.theta < 0.0

    def test_weights_recorded_on_simplex(self):
        spec = InstanceSpec(family="quadratic", n=4, m=3, cond=10.0, seed=5)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(5))
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12),
                   rng.standard_normal(4))
        for rec in tr.records:
            if rec.step > 0.0:
                assert abs(rec.weights.sum() - 1.0) < 1e-9

    def test_iterates_reconstructs_path(self, biquadratic):
        tr = solve(biquadratic, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   np.array([4.0]))
        pts = tr.iterates()
        assert pts.shape == (len(tr.records), 1)
        assert pts[0, 0] == 4.0
        assert np.array_equal(pts[-1], tr.final_x)


class TestSolveGradientVariant:
    def test_direction_is_scaled_negative_gradient(self):
        # single smooth objective: d = -grad f / ell exactly
        prob = _single_quadratic(a=2.0, b=0.0)
        cfg = SolverConfig(variant="gradient", ell=8.0, eps=1e-12,
                           tol_gap=1e-13, max_outer=1)
        x0 = np.array([1.0])
        tr = solve(prob, cfg, x0)
        rec = tr.records[0]
        grad = 2.0 * x0[0]
        step_vec = tr.iterates()[1] - tr.iterates()[0]
        assert rec.step == 1.0
        assert step_vec[0] == pytest.approx(-grad / 8.0, abs=1e-12)

    def test_matches_newton_when_hessian_is_ell_identity(self):
        # f = 0.5 * ell * ||x||^2 - b'x makes both metrics identical
        ell = 3.0
        prob = ProblemInstance(
            n=2, m=1,
            smooth=(quadratic_objective(ell * np.eye(2), np.array([1.0, -2.0])),),
            nonsmooth=NonsmoothTerm.zero(), mu=ell)
        x0 = np.array([2.0, 2.0])
        tr_n = solve(prob, SolverConfig(eps=1e-12, tol_gap=1e-13), x0)
        tr_g = solve(prob, SolverConfig(variant="gradient", ell=ell, eps=1e-12,
                                        tol_gap=1e-13), x0)
        assert tr_n.steps_taken == tr_g.steps_taken == 1
        assert np.allclose(tr_n.final_x, tr_g.final_x, atol=1e-12)

    def test_slower_than_newton_on_ill_conditioned(self):
        spec = InstanceSpec(family="quadratic", n=10, m=2, cond=100.0, seed=6)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(6))
        x0 = rng.standard_normal(10)
        tr_n = solve(prob, SolverConfig(eps=1e-8, tol_gap=1e-12), x0)
        tr_g = solve(prob, SolverConfig(variant="gradient", ell=prob.lip_grad,
                                        eps=1e-8, tol_gap=1e-12,
                                        max_outer=2000), x0)
        assert tr_n.status is Status.CRITICAL_REACHED
        assert tr_g.status is Status.CRITICAL_REACHED
        assert tr_g.steps_taken > 5 * tr_n.steps_taken

    def test_precision_limit_stops_as_critical(self):
        # near the critical point the unit-step decrease bound falls below one
        # ulp of F; the run must stop there as critical, not fail the search
        spec = InstanceSpec(family="quadratic", n=10, m=2, cond=100.0, seed=5)
        prob = generate_instance(spec)
        x0 = 2.0 * np.random.Generator(np.random.PCG64(1005)).standard_normal(10)
        tr = solve(prob, SolverConfig(variant="gradient", ell=prob.lip_grad,
                                      eps=1e-9, tol_gap=1e-12, max_outer=2000), x0)
        assert tr.status is Status.CRITICAL_REACHED, tr.message
        last = tr.records[-1]
        assert last.direction_norm == 0.0 and last.theta == 0.0
        assert tr.message.startswith("stopped at the precision limit")
        assert "sigma*theta" in tr.message and "eps_mach" in tr.message
        assert criticality_measure(prob, tr.final_x, tol_gap=1e-12) <= 1e-5

    def test_descent_bound_uses_ell_modulus(self):
        spec = InstanceSpec(family="quadratic", n=6, m=2, cond=50.0, seed=9)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(9))
        ell = prob.lip_grad
        tr = solve(prob, SolverConfig(variant="gradient", ell=ell, eps=1e-7,
                                      tol_gap=1e-12, max_outer=2000),
                   rng.standard_normal(6))
        for rec in tr.records:
            if rec.step > 0.0:
                assert rec.theta <= -0.5 * ell * rec.direction_norm ** 2 + 1e-10


class TestOracleSweeps:
    def test_one_sweep_per_step(self):
        # with ell >= L every unit step passes the Armijo test, so the
        # oracles are swept once at the start and once per accepted step
        spec = InstanceSpec(family="quadratic", n=6, m=3, cond=10.0, seed=3)
        prob = generate_instance(spec)
        calls = [0] * prob.m

        def counting(i, fn):
            def oracle(x):
                calls[i] += 1
                return fn(x)
            return SmoothObjective(oracle)

        prob = dataclasses.replace(prob, smooth=tuple(
            counting(i, obj.fn) for i, obj in enumerate(prob.smooth)))
        x0 = np.random.Generator(np.random.PCG64(3)).standard_normal(6)
        tr = solve(prob, SolverConfig(variant="gradient", ell=prob.lip_grad, eps=1e-6,
                                      tol_gap=1e-12, max_outer=2000), x0)
        assert tr.status is Status.CRITICAL_REACHED
        steps = [r.step for r in tr.records[:-1]]
        assert len(steps) > 10 and all(t == 1.0 for t in steps)
        assert calls == [len(steps) + 1] * prob.m

    @pytest.mark.parametrize("variant, max_outer", [("newton", 500), ("gradient", 12)])
    def test_one_g_and_one_f_per_point(self, variant, max_outer, monkeypatch):
        # g is evaluated at x0, at the base point of each direction solve, at
        # each snap's x + d and at each Armijo trial; an accepted trial's F is
        # the next iterate's, so no iterate after x0 evaluates g or F again.
        # A run stopped by max_outer evaluates F once at its last point.
        real, calls = NonsmoothTerm.value, [0]

        def counting(self, x):
            calls[0] += 1
            return real(self, x)

        monkeypatch.setattr(NonsmoothTerm, "value", counting)
        prob = generate_instance(InstanceSpec(family="quadratic_l1", n=10, m=2,
                                              cond=100.0, rho=0.1, seed=3))
        extra = {"ell": prob.lip_grad} if variant == "gradient" else {}
        cfg = SolverConfig(variant=variant, max_outer=max_outer, **extra)
        x0 = 2.0 * np.random.Generator(np.random.PCG64(3)).standard_normal(10)
        tr = solve(prob, cfg, x0)
        stopped = tr.status is Status.MAX_ITERS
        assert tr.status is (Status.MAX_ITERS if variant == "gradient"
                             else Status.CRITICAL_REACHED)
        directions = len(tr.records) - stopped
        trials = sum(r.halvings + 1 for r in tr.records if r.step > 0.0)
        assert len(tr.records) > 1 + stopped  # an iterate after x0
        assert calls[0] == 1 + directions + tr.snaps + trials + stopped
        monkeypatch.undo()
        for r in tr.records:
            assert eval_full(prob, r.x).tobytes() == r.objectives.tobytes()

    @pytest.mark.parametrize("variant", ["newton", "gradient"])
    def test_nonfinite_gradient_at_accepted_point(self, variant):
        # f(x) = 0.5 x^2 with a nan gradient below x = 0.75: the first step
        # (to 0 or 0.5) is judged on values only and accepted; the kept
        # gradient fails its check at the next iteration
        def oracle(x):
            grad = x.copy() if x[0] >= 0.75 else np.full(1, np.nan)
            return 0.5 * float(x @ x), grad, np.eye(1)

        prob = ProblemInstance(n=1, m=1, smooth=(SmoothObjective(oracle),),
                               nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        extra = {"variant": "gradient", "ell": 2.0} if variant == "gradient" else {}
        tr = solve(prob, SolverConfig(eps=1e-10, tol_gap=1e-12, **extra), np.array([1.0]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message == "smooth objective 0 returned non-finite output"
        assert len(tr.records) == 2
        first, last = tr.records
        assert first.step == 1.0
        x1 = 0.5 if variant == "gradient" else 0.0
        assert last.k == 1 and last.step == 0.0
        assert last.x[0] == pytest.approx(x1, abs=1e-15)
        assert last.objectives[0] == 0.5 * last.x[0] ** 2
        assert np.isnan(last.direction_norm) and np.isnan(last.theta)
        assert np.isnan(last.gap) and np.all(np.isnan(last.weights))

    @pytest.mark.parametrize("variant", ["newton", "gradient"])
    def test_nonfinite_value_at_the_first_trial(self, variant):
        # f(x) = 0.5 x^2 with a nan value away from the start x0 = 1: the
        # first Armijo trial fails its check, and the run ends at k = 0
        def oracle(x):
            value = 0.5 * float(x @ x) if x[0] == 1.0 else float("nan")
            return value, x.copy(), np.eye(1)

        prob = ProblemInstance(n=1, m=1, smooth=(SmoothObjective(oracle),),
                               nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        extra = {"variant": "gradient", "ell": 2.0} if variant == "gradient" else {}
        tr = solve(prob, SolverConfig(eps=1e-10, tol_gap=1e-12, **extra), np.array([1.0]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message == "smooth objective 0 returned non-finite value"
        (last,) = tr.records
        assert last.k == 0 and last.step == 0.0 and last.halvings == 0
        assert last.x[0] == 1.0 and last.objectives[0] == 0.5
        assert last.direction_norm > 0.0 and last.theta < 0.0

    @pytest.mark.parametrize("variant", ["newton", "gradient"])
    def test_nonfinite_objective_at_the_iterate(self, variant):
        # f = 0 is finite everywhere, but g = ||x||_1 overflows to inf at
        # x0 = (1e308, 1e308); the guard reports it, with no RuntimeWarning
        prob = ProblemInstance(
            n=2, m=1, smooth=(SmoothObjective(lambda x: (0.0, np.zeros(2), np.eye(2))),),
            nonsmooth=NonsmoothTerm.scaled_l1(1.0), mu=1.0)
        extra = {"variant": "gradient", "ell": 1.0} if variant == "gradient" else {}
        tr = solve(prob, SolverConfig(**extra), np.array([1e308, 1e308]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message == "objective values at the current iterate are not finite"
        (last,) = tr.records
        assert last.k == 0 and last.step == 0.0 and np.isnan(last.direction_norm)

    @pytest.mark.parametrize("variant", ["newton", "gradient"])
    def test_overflowing_sum_at_the_iterate(self, variant):
        # f = 1e308 and g = ||x||_1 = 1e308 at x0 = (1e308, 0) are each
        # finite, but their sum overflows: +inf with no RuntimeWarning, which
        # the guard reports, and eval_full returns as it is
        prob = ProblemInstance(
            n=2, m=1, smooth=(SmoothObjective(lambda x: (1e308, np.zeros(2), np.eye(2))),),
            nonsmooth=NonsmoothTerm.scaled_l1(1.0), mu=1.0)
        x0 = np.array([1e308, 0.0])
        assert eval_full(prob, x0).tolist() == [np.inf]
        extra = {"variant": "gradient", "ell": 1.0} if variant == "gradient" else {}
        tr = solve(prob, SolverConfig(**extra), x0)
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message == "objective values at the current iterate are not finite"
        (last,) = tr.records
        assert last.k == 0 and last.objectives.tolist() == [np.inf]

    def test_nan_value_at_the_start_records_nan_objectives(self):
        # the failed record's objectives come from eval_full, which raises
        # on the nan value too; the record then holds a nan row
        prob = ProblemInstance(
            n=2, m=2, smooth=(SmoothObjective(lambda x: (np.nan, np.zeros(2), np.eye(2))),
                              SmoothObjective(lambda x: (0.0, np.zeros(2), np.eye(2)))),
            nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        tr = solve(prob, SolverConfig(), np.array([0.3, 0.2]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message == "smooth objective 0 returned non-finite output"
        (last,) = tr.records
        assert last.k == 0 and np.isnan(last.objectives).all() and last.objectives.size == 2


class TestWarmStart:
    def test_dual_loop_starts_from_the_last_accepted_weights(self, monkeypatch):
        real = moprox.solver.solve_direction
        starts, results = [], []

        def recording(*args, **kwargs):
            starts.append(kwargs.get("weights"))
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(moprox.solver, "solve_direction", recording)
        spec = InstanceSpec(family="quadratic_l1", n=10, m=3, cond=100.0, rho=0.1, seed=2)
        prob = generate_instance(spec)
        x0 = 2.0 * np.random.Generator(np.random.PCG64(2)).standard_normal(10)
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
        assert tr.status is Status.CRITICAL_REACHED and len(results) == 2
        assert starts[0] is None
        for start, previous in zip(starts[1:], results):
            assert np.array_equal(start, previous.weights)
        # quadratic termination: the first direction's weights certify x1
        assert results[1].dual_iters == 1

    @pytest.mark.parametrize("variant", ["newton", "gradient"])
    def test_no_state_carried_between_solves(self, variant):
        specs = [InstanceSpec(family="quadratic_box", n=8, m=3, cond=100.0, seed=s)
                 for s in (5, 6)]
        probs = [generate_instance(spec) for spec in specs]
        x0 = np.random.Generator(np.random.PCG64(5)).uniform(-1.0, 1.0, 8)
        extra = {"variant": "gradient", "ell": probs[0].lip_grad} if variant == "gradient" else {}
        cfg = SolverConfig(eps=1e-9, tol_gap=1e-12, **extra)
        first = solve(probs[0], cfg, x0)
        solve(probs[1], cfg, x0)
        again = solve(probs[0], cfg, x0)
        assert len(first.records) == len(again.records)
        for a, b in zip(first.records, again.records):
            for field in dataclasses.fields(a):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name),
                                      equal_nan=True), field.name


class TestScalarBoxBounds:
    @pytest.mark.parametrize("variant", ["newton", "gradient"])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_scalar_bounds_match_length_n_bounds(self, m, variant):
        # length-1 bounds broadcast against every point of an n = 10 problem
        n = 10
        base = generate_instance(InstanceSpec(family="quadratic", n=n, m=m, cond=10.0,
                                              seed=m))
        config = SolverConfig(eps=1e-9, tol_gap=1e-12, variant=variant,
                              ell=base.lip_grad, max_outer=2000)
        x0 = np.clip(2.0 * np.random.Generator(np.random.PCG64(m)).standard_normal(n),
                     -0.3, 0.3)
        traces = [solve(attach_nonsmooth(base, term), config, x0)
                  for term in (NonsmoothTerm.box(-0.3, 0.3),
                               NonsmoothTerm.box(-0.3 * np.ones(n), 0.3 * np.ones(n)))]
        scalar, full = traces
        assert scalar.status is Status.CRITICAL_REACHED
        assert np.any(np.abs(scalar.final_x) == 0.3)  # the box is active
        assert (scalar.status, scalar.message) == (full.status, full.message)
        assert len(scalar.records) == len(full.records)
        for a, b in zip(scalar.records, full.records):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name),
                                      equal_nan=True), (a.k, f.name)


class TestHardCells:
    """n = 50 quadratic_l1 cells of the m-grid sweep (README config, starts
    2 N(0, I) from PCG64(1000 + seed)) whose direction solves stopped just
    above the gap tolerance."""

    @staticmethod
    def _case(m, seed):
        spec = InstanceSpec(family="quadratic_l1", n=50, m=m, cond=100.0, rho=0.1,
                            seed=seed)
        x0 = 2.0 * np.random.Generator(np.random.PCG64(1000 + seed)).standard_normal(50)
        return generate_instance(spec), x0, SolverConfig(eps=1e-9, tol_gap=1e-12)

    @pytest.mark.parametrize("m,seed", [(2, 21), (3, 21), (4, 21), (8, 14)])
    def test_reaches_criticality(self, m, seed):
        prob, x0, cfg = self._case(m, seed)
        tr = solve(prob, cfg, x0)
        assert tr.status is Status.CRITICAL_REACHED, tr.message

    def test_critical_at_the_one_step_point(self):
        prob, x0, cfg = self._case(3, 21)
        x1 = solve(prob, dataclasses.replace(cfg, max_outer=1), x0).final_x
        tr = solve(prob, cfg, x1)
        assert tr.status is Status.CRITICAL_REACHED, tr.message
        assert len(tr.records) == 1 and tr.records[0].k == 0


class TestGapFloor:
    """Starts and objective scales where model values are too large for a
    gap of tol_gap = 1e-12 to be resolved in float64: the gap is certified
    at the floor GAP_FLOOR eps64 S instead, and the runs end critical."""

    # (start base, cell index) of the 8,100-run A01 sweep, the 135 cells of
    # test_a01_whole_grid_one_step_termination from starts PCG64(base +
    # index) for base = 1000, 2000, ..., 60000, that ended
    # subproblem_failure at k = 0 under a gap test of tol_gap alone; all
    # have cond = 1e4
    SWEEP_CELLS = [(2000, 35), (2000, 128), (10000, 116), (12000, 2), (14000, 11),
                   (17000, 131), (21000, 107), (21000, 116), (28000, 83), (33000, 38),
                   (34000, 56), (35000, 107), (36000, 101), (37000, 119), (40000, 101),
                   (48000, 110), (56000, 110), (57000, 92)]

    @pytest.mark.parametrize("base,index", SWEEP_CELLS)
    def test_a01_sweep_cells_end_in_one_step(self, base, index):
        cells = list(itertools.product(("zero", "l1", "box"), (2, 3, 4, 5, 8), (2, 10, 50),
                                       (1.0, 1e2, 1e4)))
        kind, m, n, cond = cells[index]
        family = {"zero": "quadratic", "l1": "quadratic_l1", "box": "quadratic_box"}[kind]
        spec = InstanceSpec(family=family, n=n, m=m, cond=cond,
                            rho=0.1 if kind == "l1" else 0.0, seed=index)
        rng = np.random.Generator(np.random.PCG64(base + index))
        x0 = (rng.uniform(spec.lo, spec.hi, spec.n) if kind == "box"
              else 2.0 * rng.standard_normal(spec.n))
        tr = solve(generate_instance(spec), SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
        assert spec.cond == 1e4
        assert tr.status is Status.CRITICAL_REACHED, tr.message
        assert len(tr.records) == 2 and tr.records[0].step == 1.0

    @pytest.mark.parametrize("term", ["zero", "l1"])
    @pytest.mark.parametrize("m", [3, 8])
    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_shifted_quadratics_end_critical(self, scale, m, term):
        # shifts of scale 1e4 and 1e6 put gradients, and so model values,
        # that far above 1; at the final point the min-norm element of the
        # convex hull of the gradients plus the term's subdifferential is
        # checked independently
        for seed in range(4):
            rng = np.random.default_rng(seed)
            shifts = scale * rng.standard_normal((m, 5))
            x0 = rng.standard_normal(5)
            prob = gen_quadratic(InstanceSpec("quadratic", n=5, m=m, cond=100, seed=seed),
                                 shifts)
            if term == "l1":
                prob = attach_nonsmooth(prob, NonsmoothTerm.scaled_l1(1.0))
            tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
            assert tr.status is Status.CRITICAL_REACHED, (seed, tr.message)
            assert min_norm_residual(prob, tr.final_x) <= 1e-9, seed


class TestFailuresEndTheTrace:
    def test_indefinite_user_hessian(self):
        # f = (x1^2 - x2^2) / 2 breaks the mu > 0 promise; the first
        # Cholesky of the weighted Hessian fails, and the run records it
        H = np.diag([1.0, -1.0])
        prob = ProblemInstance(
            n=2, m=1, smooth=(SmoothObjective(lambda x: (0.5 * float(x @ H @ x), H @ x, H)),),
            nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        tr = solve(prob, SolverConfig(), np.array([0.3, 0.2]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message == "weighted Hessian is not positive definite (potrf info 2)"
        (last,) = tr.records
        assert last.objectives.tolist() == [0.5 * (0.3 ** 2 - 0.2 ** 2)]
        assert np.isnan(last.theta) and last.snaps == 0

    def test_shifts_of_scale_1e9_return_a_trace(self):
        # shifts of scale 1e9 put the supergradient step's proposals about
        # 2^53 apart; project_simplex shifts them by their max, and the gap,
        # certified at float64's resolution of model values near 1e18,
        # lets the run end in one full step (quadratic termination)
        rng = np.random.default_rng(3)
        shifts = 1e9 * rng.standard_normal((3, 5))
        x0 = rng.standard_normal(5)
        spec = InstanceSpec("quadratic", n=5, m=3, cond=100, seed=3)
        prob = attach_nonsmooth(gen_quadratic(spec, shifts), NonsmoothTerm.scaled_l1(1.0))
        tr = solve(prob, SolverConfig(), x0)
        assert tr.status is Status.CRITICAL_REACHED, tr.message
        assert len(tr.records) == 2
        assert tr.records[0].step == 1.0


def _overflowing_trial():
    # an iterate near 1e153 whose unit-step trial x + d overflows the
    # smooth value: the sweep raises at t = 1 and the run ends there
    prob = ProblemInstance(n=1, m=1, smooth=(quadratic_objective([[4.0]], [0.0]),),
                           nonsmooth=NonsmoothTerm.zero(), mu=4.0)
    config = SolverConfig(eps=1e-9, tol_gap=1e-12, variant="gradient", ell=0.3)
    return prob, config, np.array([1e153]), "smooth objective 0 returned non-finite value"


def _overflowing_forcing_bound():
    # ell = 1e-150 makes ||d|| near 2e151, so the forcing bound's ||d||^4
    # overflows; the direction certifies, and no step passes the test
    smooth = tuple(quadratic_objective([[4.0]], [b]) for b in (1.0, -1.0))
    prob = ProblemInstance(n=1, m=2, smooth=smooth, nonsmooth=NonsmoothTerm.zero(), mu=4.0)
    config = SolverConfig(variant="gradient", ell=1e-150)
    return prob, config, np.array([5.0]), "no step of the form gamma^j"


def _trace_bytes(trace) -> list:
    """Status, message and every record field of trace, as bytes."""
    out = [trace.status.value.encode(), trace.message.encode()]
    for r in trace.records:
        for f in dataclasses.fields(r):
            out.append(np.asarray(getattr(r, f.name)).tobytes())
    return out


class TestWarningsFilter:
    @pytest.mark.parametrize("case", [_overflowing_trial, _overflowing_forcing_bound])
    def test_the_filter_does_not_change_the_trace(self, case):
        prob, config, x0, message = case()
        traces = []
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                traces.append(solve(prob, config, x0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            traces.append(solve(prob, config, x0))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        first = _trace_bytes(traces[0])
        assert all(_trace_bytes(tr) == first for tr in traces[1:])
        assert traces[0].status is Status.SUBPROBLEM_FAILURE
        assert traces[0].message.startswith(message)


class TestDualBoundStop:
    @staticmethod
    def _quadratic():
        prob = generate_instance(InstanceSpec(family="quadratic", n=10, m=3, cond=100.0,
                                              seed=4))
        x0 = 2.0 * np.random.Generator(np.random.PCG64(1004)).standard_normal(10)
        return prob, x0

    def test_certifies_a_critical_point(self):
        # no direction solve reaches a gap of 1e-300; at the critical point
        # x1 the dual value alone shows ||d*|| <= eps
        prob, x0 = self._quadratic()
        x1 = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), x0).final_x
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-300), x1)
        assert tr.status is Status.CRITICAL_REACHED
        (rec,) = tr.records
        assert (rec.direction_norm, rec.theta, rec.gap, rec.step) == (0.0, 0.0, 0.0, 0.0)
        assert abs(rec.weights.sum() - 1.0) < 1e-12
        assert tr.message.startswith("certified critical by the dual bound: phi = ")
        assert "-mu*eps^2/2" in tr.message

    def test_far_from_critical_still_fails(self, monkeypatch):
        # a start whose dual optimum one dual iteration does not reach (from
        # PCG64(1004) the projected Newton step reaches it; see below)
        monkeypatch.setattr(moprox.subproblem, "MAX_DUAL_ITERS", 1)
        prob, _ = self._quadratic()
        x0 = 2.0 * np.random.Generator(np.random.PCG64(1002)).standard_normal(10)
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-300), x0)
        assert tr.status is Status.SUBPROBLEM_FAILURE
        assert tr.message.startswith("direction subproblem stopped with duality gap")

    def test_one_dual_iteration_reaches_a_vertex_optimum(self, monkeypatch):
        # the projected full Newton step lands on the optimal vertex, where
        # the cut-back to the simplex boundary drops one weight per snap; the
        # full step then ends the solve (quadratic termination)
        monkeypatch.setattr(moprox.subproblem, "MAX_DUAL_ITERS", 1)
        prob, x0 = self._quadratic()
        tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
        assert tr.status is Status.CRITICAL_REACHED
        assert len(tr.records) == 2
        assert tr.records[0].gap == 0.0 and tr.records[0].weights.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("variant,modulus", [("newton", 2.0), ("gradient", 8.0)])
    def test_bound_uses_the_metric_modulus(self, variant, modulus):
        # mu = 2 for the problem, ell = 8 for the gradient metric: eps puts
        # -modulus*eps^2/2 just below, then just above, the first dual value
        prob = generate_instance(InstanceSpec(family="quadratic", n=10, m=3, cond=100.0,
                                              mu=2.0, seed=4))
        x0 = 2.0 * np.random.Generator(np.random.PCG64(1004)).standard_normal(10)
        metric = Metric.hessian() if variant == "newton" else Metric.scaled_identity(8.0)
        phi0 = solve_direction(prob, x0, tol_gap=1e-12, metric=metric).dual_history[0]
        eps = 1.01 * np.sqrt(-2.0 * phi0 / modulus)
        res = solve_direction(prob, x0, tol_gap=1e-300, metric=metric, eps=eps)
        assert res.dual_iters == 1 and not np.any(res.direction)
        assert f">= {-0.5 * modulus * eps ** 2:.3e} = -mu*eps^2/2" in res.message
        eps = 0.99 * np.sqrt(-2.0 * phi0 / modulus)
        res = solve_direction(prob, x0, tol_gap=1e-300, metric=metric, eps=eps)
        assert res.dual_iters > 1

    def test_bound_stops_the_dual_loop_early(self, monkeypatch):
        # at the critical point no gap reaches 1e-300 with the gap floor
        # off; given eps the dual loop stops on the bound instead of running
        # until it stalls
        monkeypatch.setattr(moprox.subproblem, "GAP_FLOOR", 0)
        prob, x0 = self._quadratic()
        x1 = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), x0).final_x
        res = solve_direction(prob, x1, tol_gap=1e-300, eps=1e-9)
        assert not np.any(res.direction) and (res.theta, res.gap) == (0.0, 0.0)
        assert res.message.startswith("certified critical by the dual bound: phi = ")
        snaps = []
        certificate = moprox.subproblem._model_values_hi
        monkeypatch.setattr(moprox.subproblem, "_model_values_hi",
                            lambda *args: snaps.append(1) or certificate(*args))
        with pytest.raises(ConvergenceError):
            solve_direction(prob, x1, tol_gap=1e-300)
        assert res.dual_iters < len(snaps)

    def test_bound_leaves_a_non_critical_direction_unchanged(self):
        prob, x0 = self._quadratic()
        plain = solve_direction(prob, x0, tol_gap=1e-12)
        bounded = solve_direction(prob, x0, tol_gap=1e-12, eps=1e-9)
        assert np.linalg.norm(plain.direction) > 1.0 and plain.message == ""
        for field in dataclasses.fields(DirectionResult):
            a, b = getattr(plain, field.name), getattr(bounded, field.name)
            assert type(a) is type(b)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


class TestCostCounts:
    def test_records_carry_snaps_passes_and_halvings(self, monkeypatch):
        real = moprox.solver.solve_direction
        results = []

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(moprox.solver, "solve_direction", recording)
        spec = InstanceSpec(family="quadratic_l1", n=10, m=3, cond=100.0, rho=0.1, seed=2)
        prob = generate_instance(spec)
        # ell below the curvature: unit steps overshoot, so the line search halves
        cfg = SolverConfig(eps=1e-6, variant="gradient", ell=prob.lip_grad / 4,
                           max_outer=2000)
        x0 = 2.0 * np.random.Generator(np.random.PCG64(2)).standard_normal(10)
        tr = solve(prob, cfg, x0)
        assert tr.status is Status.CRITICAL_REACHED
        assert [(r.snaps, r.passes) for r in tr.records] == [
            (res.dual_iters, res.inner_iters) for res in results]
        for r in tr.records:
            assert r.step == (0.5 ** r.halvings if r.step > 0.0 else 0.0)
            assert r.step > 0.0 or r.halvings == 0
        assert tr.halvings > 0
        assert (tr.snaps, tr.passes, tr.halvings) == tuple(
            sum(getattr(r, f) for r in tr.records) for f in ("snaps", "passes", "halvings"))

    def test_failed_direction_solve_records_no_cost(self, l1_scalar, monkeypatch):
        monkeypatch.setattr(moprox.subproblem, "MAX_INNER_PASSES", 1)
        tr = solve(l1_scalar, SolverConfig(), np.array([3.0]))
        assert tr.status is Status.SUBPROBLEM_FAILURE
        last = tr.records[-1]
        assert (last.snaps, last.passes, last.halvings) == (0, 0, 0)
