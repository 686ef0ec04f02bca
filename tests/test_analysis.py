import dataclasses

import numpy as np
import pytest

import moprox.subproblem
from moprox import (
    ConvergenceError,
    InputError,
    InstanceSpec,
    InsufficientDataError,
    SmoothObjective,
    SolverConfig,
    Status,
    check_descent_bound,
    check_fundamental_inequality_quadratic,
    check_quadratic_termination,
    criticality_measure,
    decreasing_tail,
    estimate_order,
    eval_full,
    eval_smooth,
    generate_instance,
    iterate_errors,
    refine_reference,
    solve,
    tau_bracket,
    tau_check,
    tau_sequence,
)


def _quad_trace(seed=4, n=6, m=2, cond=100.0, eps=1e-10):
    spec = InstanceSpec(family="quadratic", n=n, m=m, cond=cond, seed=seed)
    prob = generate_instance(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    tr = solve(prob, SolverConfig(eps=eps, tol_gap=1e-13), rng.standard_normal(n))
    return prob, tr


class TestCriticality:
    def test_zero_at_critical_point(self, biquadratic):
        assert criticality_measure(biquadratic, np.array([0.0])) < 1e-12

    def test_positive_away_from_criticality(self, biquadratic):
        assert criticality_measure(biquadratic, np.array([2.0])) == pytest.approx(1.0, abs=1e-9)

    def test_refine_reference_lands_on_solution(self):
        spec = InstanceSpec(family="quadratic", n=4, m=1, cond=10.0, seed=3)
        prob = generate_instance(spec)
        x_star = refine_reference(prob, np.ones(4), eps=1e-12)
        assert criticality_measure(prob, x_star) < 1e-10

    def test_refine_reference_raises_when_not_critical(self, biquadratic):
        cfg = SolverConfig(eps=1e-14, tol_gap=1e-13, max_outer=1)
        with pytest.raises(ConvergenceError):
            refine_reference(biquadratic, np.array([40.0]), config=cfg)


class TestErrorSequences:
    def test_iterate_errors_shape_and_values(self, biquadratic):
        tr = solve(biquadratic, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   np.array([3.0]))
        errs = iterate_errors(tr, np.array([1.0]))
        assert errs.shape == (len(tr.records),)
        assert errs[0] == pytest.approx(2.0)
        assert errs[-1] < 1e-9

    def test_decreasing_tail_hand_case(self):
        errs = [5.0, 10.0, 8.0, 4.0, 2.0, 1.0, 1e-20]
        # the run above the floor is [10, 8, 4, 2, 1]; window keeps last 4
        tail = decreasing_tail(errs, noise_floor=1e-15)
        assert np.allclose(tail, [8.0, 4.0, 2.0, 1.0])

    def test_decreasing_tail_needs_four_points(self):
        with pytest.raises(InsufficientDataError):
            decreasing_tail([3.0, 2.0, 1.0])
        with pytest.raises(InsufficientDataError):
            decreasing_tail([1e-18, 1e-19, 1e-20, 1e-21], noise_floor=1e-15)

    def test_decreasing_tail_rejects_matrix(self):
        with pytest.raises(InputError):
            decreasing_tail(np.zeros((3, 3)))

    def test_estimate_order_linear_sequence(self):
        errs = 0.5 ** np.arange(1, 16)
        q, c = estimate_order(errs)
        assert q == pytest.approx(1.0, abs=1e-6)
        assert c == pytest.approx(0.5, rel=1e-6)

    def test_estimate_order_quadratic_sequence(self):
        errs = np.array([10.0 ** -(2.0 ** k) for k in range(1, 6)])
        q, _ = estimate_order(errs)
        assert q == pytest.approx(2.0, abs=1e-6)

    def test_estimate_order_superlinear_sequence(self):
        # e_{k+1} = e_k^1.5 exactly
        errs = 2.0 ** -(1.5 ** np.arange(1, 10))
        q, c = estimate_order(errs)
        assert q == pytest.approx(1.5, abs=1e-8)
        assert c == pytest.approx(1.0, rel=1e-6)


class TestTauDiagnostics:
    def test_bracket_frozen_values(self):
        # mu = 1, eps = 0.1: root = sqrt(0.19), denominator 0.9
        root = np.sqrt(0.19)
        lo, hi = tau_bracket(1.0, 0.1, 0.1)
        assert lo == pytest.approx((1.0 - root) / 0.9, abs=1e-12)
        assert hi == pytest.approx((1.0 + root) / 0.9, abs=1e-12)

    def test_bracket_collapses_to_one(self):
        lo, hi = tau_bracket(2.0, 1e-12, 0.1)
        assert lo == pytest.approx(1.0, abs=1e-5)
        assert hi == pytest.approx(1.0, abs=1e-5)

    def test_bracket_rejects_eps_out_of_range(self):
        with pytest.raises(InputError):
            tau_bracket(1.0, 0.95, 0.1)
        with pytest.raises(InputError):
            tau_bracket(1.0, 0.0, 0.1)

    def test_tau_sequence_first_step_ratio(self, biquadratic):
        # the biquadratic solve from 3.0 steps straight to the solution at
        # 1.0, so the first ratio covers the whole error: tau = 1 exactly
        tr = solve(biquadratic, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   np.array([3.0]))
        ks, taus = tau_sequence(tr, np.array([1.0]))
        assert ks[0] == 0
        assert taus[0] == pytest.approx(1.0, abs=1e-10)

    def test_tau_check_passes_on_newton_run(self):
        prob, tr = _quad_trace(seed=12, n=8, m=2, cond=1e3)
        assert tr.status is Status.CRITICAL_REACHED
        x_star = refine_reference(prob, tr.final_x, eps=1e-13)
        verdicts = tau_check(tr, x_star, prob.mu, 0.5 * prob.mu)
        assert all(v.passed for v in verdicts if v.applicable)

    def test_tau_check_not_applicable_without_unit_tail(self):
        # weakly regularized soft-max from a far start backtracks; truncate
        # the run while the step is still below one
        spec = InstanceSpec(family="logsumexp", n=10, m=2, mu=0.01, seed=0)
        prob = generate_instance(spec)
        x0 = 6.0 * np.random.Generator(np.random.PCG64(500)).standard_normal(10)
        tr = solve(prob, SolverConfig(eps=1e-12, tol_gap=1e-13, max_outer=2), x0)
        assert tr.records[1].step < 1.0
        verdicts = tau_check(tr, np.zeros(10), prob.mu, 0.5 * prob.mu)
        assert all(not v.applicable for v in verdicts)

    def test_tau_check_not_applicable_without_measurable_ratios(self):
        # Newton's unit step solves a quadratic at once, so the tail is the
        # one step from the start; measured from the start itself its error
        # is 0, below the floor, and no ratio is left
        prob, tr = _quad_trace()
        assert [r.step for r in tr.records[:-1]] == [1.0]
        in_bracket, near_one = tau_check(tr, tr.records[0].x, prob.mu, 0.5 * prob.mu)
        assert in_bracket.passed and not in_bracket.applicable
        assert in_bracket.detail == "no measurable ratios"
        assert not near_one.applicable

    def test_tau_check_fails_outside_the_bracket(self):
        # under ell I every step on a quadratic is a unit step, but each
        # shrinks the slow error component only by 1 - mu/ell, so the ratios
        # sit near mu/ell = 1/cond, below the bracket's lower end
        spec = InstanceSpec(family="quadratic", n=6, m=2, cond=100.0, seed=7)
        prob = generate_instance(spec)
        x0 = np.random.Generator(np.random.PCG64(7)).standard_normal(6)
        cfg = SolverConfig(variant="gradient", ell=prob.lip_grad, eps=1e-9, tol_gap=1e-12)
        tr = solve(prob, cfg, x0)
        assert all(r.step == 1.0 for r in tr.records[:-1])
        x_star = refine_reference(prob, tr.final_x, eps=1e-13)
        in_bracket, _ = tau_check(tr, x_star, prob.mu, 0.5 * prob.mu)
        assert in_bracket.name == "tau_in_bracket[eps=0.5]"
        assert in_bracket.applicable and not in_bracket.passed
        assert in_bracket.margin < 0.0
        assert in_bracket.detail == "final ratio outside the bracket"


class TestCheckFunctions:
    def test_quadratic_termination_passes_on_quadratic(self):
        spec = InstanceSpec(family="quadratic", n=6, m=2, cond=100.0, seed=7)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(7))
        batch = rng.standard_normal((5, 6))
        v = check_quadratic_termination(prob, SolverConfig(eps=1e-9, tol_gap=1e-12),
                                        batch)
        assert v.passed
        assert v.margin > 0.0

    def test_quadratic_termination_fails_on_gradient_metric(self):
        # the scaled-identity metric does not finish a conditioned quadratic
        # in one step, so the one-step criticality check must fail
        spec = InstanceSpec(family="quadratic", n=6, m=2, cond=1e4, seed=7)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(7))
        batch = rng.standard_normal((3, 6))
        cfg = SolverConfig(variant="gradient", ell=prob.lip_grad, eps=1e-9,
                           tol_gap=1e-12)
        v = check_quadratic_termination(prob, cfg, batch)
        assert not v.passed

    def test_quadratic_termination_fails_on_a_solver_failure(self, l1_scalar, monkeypatch):
        monkeypatch.setattr(moprox.subproblem, "MAX_INNER_PASSES", 1)
        v = check_quadratic_termination(l1_scalar, SolverConfig(eps=1e-10, tol_gap=1e-12),
                                        [np.array([3.0])])
        assert not v.passed and v.margin == -np.inf
        assert v.detail.startswith("start 0: solver failed: ")

    def test_quadratic_termination_fails_when_no_step_is_taken(self):
        # a start at the solution is already critical, so there is no first step
        prob, tr = _quad_trace(seed=7)
        v = check_quadratic_termination(prob, SolverConfig(eps=1e-9, tol_gap=1e-12),
                                        [tr.final_x])
        assert not v.passed and v.margin == -np.inf
        assert v.detail == "start 0: no step was taken"

    def test_quadratic_termination_fails_on_a_partial_first_step(self):
        # weakly regularized soft-max from a far start backtracks at once
        spec = InstanceSpec(family="logsumexp", n=10, m=2, mu=0.01, seed=0)
        prob = generate_instance(spec)
        x0 = 6.0 * np.random.Generator(np.random.PCG64(500)).standard_normal(10)
        v = check_quadratic_termination(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), [x0])
        assert not v.passed and v.margin == -1.0
        assert v.detail.startswith("start 0: first step ") and v.detail.endswith(" != 1")

    def test_descent_bound_not_applicable_without_directions(self):
        # with max_outer = 0 the only record carries no direction
        prob = generate_instance(InstanceSpec(family="quadratic", n=4, m=2, seed=1))
        tr = solve(prob, SolverConfig(max_outer=0), np.ones(4))
        v = check_descent_bound(tr, prob.mu)
        assert v.passed and not v.applicable
        assert v.detail == "no usable records"

    def test_descent_bound_on_real_trace(self):
        prob, tr = _quad_trace(seed=15)
        v = check_descent_bound(tr, prob.mu)
        assert v.passed and v.applicable

    def test_descent_bound_flags_violation(self, biquadratic):
        tr = solve(biquadratic, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   np.array([2.0]))
        # demanding a modulus far above the true one must fail:
        # theta = -0.5, ||d|| = 1 and mu = 10 would need theta <= -5
        v = check_descent_bound(tr, 10.0)
        assert not v.passed
        with pytest.raises(InputError):
            check_descent_bound(tr, 0.0)

    def test_fundamental_inequality_on_quadratic(self):
        prob, tr = _quad_trace(seed=16, n=4, m=2, cond=10.0)
        rng = np.random.Generator(np.random.PCG64(16))
        probes = tr.final_x + rng.standard_normal((10, 4))
        v = check_fundamental_inequality_quadratic(tr, prob, probes)
        assert v.passed and v.applicable

    def test_fundamental_inequality_sweeps_each_probe_once(self):
        # gradient steps with ell = L are all unit steps; U consecutive unit
        # steps and P probes take U + 1 iterate sweeps and P probe sweeps,
        # and the margin is the float a sweep per probe and step gives
        spec = InstanceSpec(family="quadratic", n=4, m=3, cond=10.0, seed=7)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(7))
        tr = solve(prob, SolverConfig(variant="gradient", ell=prob.lip_grad,
                                      max_outer=6), rng.standard_normal(4))
        unit = [i for i, r in enumerate(tr.records[:-1]) if r.step == 1.0]
        probes = tr.final_x + rng.standard_normal((5, 4))
        assert len(unit) == 6

        calls = [0] * prob.m

        def counting(i, fn):
            def oracle(x):
                calls[i] += 1
                return fn(x)
            return SmoothObjective(oracle)

        counted = dataclasses.replace(prob, smooth=tuple(
            counting(i, obj.fn) for i, obj in enumerate(prob.smooth)))
        v = check_fundamental_inequality_quadratic(tr, counted, probes)
        assert calls == [len(unit) + 1 + len(probes)] * prob.m

        worst = np.inf
        for i in unit:
            lam = tr.records[i].weights
            a_lam = np.tensordot(lam, eval_smooth(prob, tr.records[i].x).hessians, axes=1)
            x_next = tr.records[i + 1].x
            f_next = float(lam @ eval_full(prob, x_next))
            for z in probes:
                diff = x_next - z
                margin = (float(lam @ eval_full(prob, z))
                          - 0.5 * float(diff @ (a_lam @ diff))) - f_next
                worst = min(worst, margin)
        assert v.margin == worst

    def test_fundamental_inequality_not_applicable_without_unit_steps(self, biquadratic):
        tr = solve(biquadratic, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   np.array([0.0]))
        v = check_fundamental_inequality_quadratic(tr, biquadratic, np.zeros((1, 1)))
        assert not v.applicable
