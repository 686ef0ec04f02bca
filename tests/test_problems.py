import numpy as np
import pytest

from moprox import (
    ConfigError,
    EvaluationError,
    InputError,
    InstanceSpec,
    NonsmoothTerm,
    ProblemInstance,
    SmoothObjective,
    eval_full,
    eval_smooth,
    generate_instance,
)
from moprox.zoo import logsumexp_objective, quadratic_objective

from conftest import fd_gradient, fd_hessian, subdiff_residual


RNG = np.random.Generator(np.random.PCG64(101))

# every entry point to the oracle sweep
ENTRY_POINTS = ("evaluate", "eval_smooth", "eval_full")


def _hessian_through(entry, fn, n):
    # the Hessian of oracle fn at the origin, read through one entry point
    x = np.zeros(n)
    if entry == "evaluate":
        return SmoothObjective(fn).evaluate(x)[2]
    prob = ProblemInstance(n=n, m=1, smooth=(SmoothObjective(fn),),
                           nonsmooth=NonsmoothTerm.zero(), mu=1.0)
    if entry == "eval_smooth":
        return eval_smooth(prob, x).hessians[0]
    keep = []
    eval_full(prob, x, keep)
    return keep[0].hessians[0]


class TestSmoothObjective:
    def test_quadratic_oracle_matches_finite_differences(self):
        A = np.array([[2.0, 0.5], [0.5, 1.5]])
        b = np.array([1.0, -2.0])
        obj = quadratic_objective(A, b)
        x = np.array([0.3, -0.7])
        v, g, H = obj.evaluate(x)
        assert v == pytest.approx(0.5 * x @ A @ x - b @ x)
        assert np.max(np.abs(g - fd_gradient(obj.evaluate, x))) < 1e-5
        assert np.max(np.abs(H - fd_hessian(obj.evaluate, x))) < 1e-4

    def test_logsumexp_oracle_matches_finite_differences(self):
        rows = RNG.standard_normal((4, 3))
        offsets = RNG.standard_normal(4)
        center = RNG.standard_normal(3)
        obj = logsumexp_objective(rows, offsets, 1.0, center)
        x = RNG.standard_normal(3)
        _, g, H = obj.evaluate(x)
        assert np.max(np.abs(g - fd_gradient(obj.evaluate, x))) < 1e-5
        assert np.max(np.abs(H - fd_hessian(obj.evaluate, x))) < 1e-4

    def test_logsumexp_no_overflow_at_large_arguments(self):
        obj = logsumexp_objective(np.array([[10.0]]), np.array([0.0]), 1.0,
                                  np.array([0.0]))
        v, g, H = obj.evaluate(np.array([100.0]))
        assert np.isfinite(v) and np.all(np.isfinite(g)) and np.all(np.isfinite(H))

    def test_hessian_symmetrized_at_boundary(self):
        def fn(x):
            return 0.0, np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]])

        for entry in ENTRY_POINTS:
            H = _hessian_through(entry, fn, 2)
            assert np.array_equal(H, H.T), entry
            assert H[0, 1] == 1.0, entry

    def test_bad_oracle_shapes_rejected(self):
        def fn(x):
            return 0.0, np.zeros(3), np.eye(2)

        for entry in ENTRY_POINTS:
            with pytest.raises(EvaluationError, match=r"gradient \(3,\) / hessian \(2, 2\)"):
                _hessian_through(entry, fn, 2)


class TestNonsmoothTerm:
    def test_terms_compare_and_hash_by_value(self):
        a = NonsmoothTerm.box(-np.ones(3), np.ones(3))
        b = NonsmoothTerm.box(-np.ones(3), np.ones(3))
        eq = a == b
        assert isinstance(eq, bool) and eq
        assert hash(a) == hash(b)
        assert a != NonsmoothTerm.box(-np.ones(3), 2.0 * np.ones(3))
        assert a != NonsmoothTerm.box(-1.0, 1.0)  # bounds of another length
        assert hash(NonsmoothTerm.box(-1.0, 1.0)) == hash(NonsmoothTerm.box([-1.0], [1.0]))
        assert NonsmoothTerm.box(-0.0, 1.0) == NonsmoothTerm.box(0.0, 1.0)
        assert hash(NonsmoothTerm.box(-0.0, 1.0)) == hash(NonsmoothTerm.box(0.0, 1.0))
        assert NonsmoothTerm.scaled_l1(0.5) == NonsmoothTerm.scaled_l1(0.5)
        assert NonsmoothTerm.scaled_l1(0.5) != NonsmoothTerm.scaled_l1(0.25)
        assert NonsmoothTerm.zero() != NonsmoothTerm.scaled_l1(0.0)
        assert len({a, b, NonsmoothTerm.zero(), NonsmoothTerm.zero()}) == 2

    def test_zero_term(self):
        t = NonsmoothTerm.zero()
        x = RNG.standard_normal(4)
        assert t.value(x) == 0.0
        assert np.array_equal(t.prox(x, 2.0), x)

    def test_l1_value_and_prox_closed_form(self):
        t = NonsmoothTerm.scaled_l1(0.5)
        assert t.value(np.array([1.0, -2.0, 0.0])) == pytest.approx(1.5)
        # soft threshold with c*rho = 1
        out = t.prox(np.array([3.0, -0.5, 1.0, -4.0]), 2.0)
        assert np.allclose(out, [2.0, 0.0, 0.0, -3.0])

    def test_l1_zero_weight_is_identity_prox(self):
        t = NonsmoothTerm.scaled_l1(0.0)
        v = RNG.standard_normal(5)
        assert np.array_equal(t.prox(v, 1.0), v)

    def test_box_value_inf_outside(self):
        t = NonsmoothTerm.box(-np.ones(2), np.ones(2))
        assert t.value(np.array([0.5, -1.0])) == 0.0
        assert t.value(np.array([1.5, 0.0])) == np.inf

    def test_box_value_tolerates_ulp_excursions(self):
        t = NonsmoothTerm.box(-np.ones(1), np.ones(1))
        x = np.array([1.0 + np.finfo(float).eps])
        assert t.value(x) == 0.0

    def test_l1_value_overflows_to_inf_without_a_warning(self):
        # a finite point whose l1 norm exceeds the float64 range; the suite
        # turns any RuntimeWarning into an error
        t = NonsmoothTerm.scaled_l1(1.0)
        x = np.array([1e308, 1e308])
        assert t.value(x) == np.inf
        zero = SmoothObjective(lambda x: (0.0, np.zeros(2), np.eye(2)))
        prob = ProblemInstance(n=2, m=2, smooth=(zero, zero), nonsmooth=t, mu=1.0)
        assert (eval_full(prob, x) == np.inf).all()

    def test_box_value_agrees_with_outside(self):
        # the inside fast path and the slack test give one verdict, also a
        # few ulps around the bounds, beyond them and at nan
        lo, hi = np.array([-1.0, 0.0, -3e300]), np.array([1.0, 2.0, 1e-300])
        t = NonsmoothTerm.box(lo, hi)
        near = [np.nextafter(b, s * np.inf) for b in (*lo, *hi) for s in (1, -1)]
        for c in [*lo, *hi, *near, 0.0, 5.0, -5.0, np.nan]:
            for point in (np.clip(np.full(3, c), lo, hi), np.full(3, c)):
                for p in (point, point.astype(np.longdouble)):
                    want = np.inf if t.outside(p).any() else 0.0
                    assert t.value(p) == want

    def test_box_prox_clips(self):
        t = NonsmoothTerm.box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        out = t.prox(np.array([-3.0, 5.0]), 0.7)
        assert np.array_equal(out, [-1.0, 2.0])

    @pytest.mark.parametrize("term", [
        NonsmoothTerm.scaled_l1(0.8),
        NonsmoothTerm.box(-np.ones(6), np.ones(6)),
    ])
    def test_prox_firmly_nonexpansive(self, term):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            a = 3.0 * rng.standard_normal(6)
            b = 3.0 * rng.standard_normal(6)
            pa = term.prox(a, 1.3)
            pb = term.prox(b, 1.3)
            lhs = float(np.dot(pa - pb, pa - pb))
            rhs = float(np.dot(a - b, pa - pb))
            assert lhs <= rhs + 1e-12

    def test_prox_requires_positive_step(self):
        with pytest.raises(InputError):
            NonsmoothTerm.zero().prox(np.zeros(2), 0.0)
        with pytest.raises(InputError):
            NonsmoothTerm.scaled_l1(1.0).prox(np.zeros(2), -1.0)

    @pytest.mark.parametrize("term", [NonsmoothTerm.zero(), NonsmoothTerm.scaled_l1(1.0),
                                      NonsmoothTerm.box(-1.0, 1.0)])
    @pytest.mark.parametrize("step", [0.0, np.nan, np.inf, -np.inf])
    def test_prox_rejects_a_bad_step_by_name(self, term, step):
        with pytest.raises(InputError) as exc:
            term.prox(np.zeros(2), step)
        assert str(exc.value) == f"prox step must be finite and > 0, got {step}"

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            NonsmoothTerm.scaled_l1(-0.1)
        with pytest.raises(ConfigError):
            NonsmoothTerm.box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ConfigError):
            NonsmoothTerm.box(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ConfigError, match="^box bounds must have matching shapes$"):
            NonsmoothTerm.box(np.zeros(2), np.ones(1))

    def test_subdiff_residual_l1(self):
        t = NonsmoothTerm.scaled_l1(1.0)
        # at u > 0 the subdifferential is {rho}; residual |r + rho|
        assert subdiff_residual(t, np.array([2.0]), np.array([-1.0])) == pytest.approx(0.0)
        assert subdiff_residual(t, np.array([2.0]), np.array([0.5])) == pytest.approx(1.5)
        # at u = 0 the subdifferential is [-rho, rho]
        assert subdiff_residual(t, np.array([0.0]), np.array([0.7])) == pytest.approx(0.0)
        assert subdiff_residual(t, np.array([0.0]), np.array([1.7])) == pytest.approx(0.7)

    def test_subdiff_residual_box(self):
        t = NonsmoothTerm.box(-np.ones(1), np.ones(1))
        # interior: subdifferential {0}
        assert subdiff_residual(t, np.array([0.2]), np.array([0.4])) == pytest.approx(0.4)
        # residual is dist(-r, normal cone); the upper cone [0, inf) absorbs r <= 0
        assert subdiff_residual(t, np.array([1.0]), np.array([-2.0])) == pytest.approx(0.0)
        assert subdiff_residual(t, np.array([1.0]), np.array([3.0])) == pytest.approx(3.0)

    def test_pieces_per_term(self):
        u = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
        a, b, slope = NonsmoothTerm.zero().pieces(u)
        assert np.all(a == -np.inf) and np.all(b == np.inf) and np.all(slope == 0.0)
        a, b, slope = NonsmoothTerm.scaled_l1(0.3).pieces(u)
        np.testing.assert_array_equal(a, [-np.inf, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(b, [0.0, 0.0, np.inf, np.inf, np.inf])
        np.testing.assert_array_equal(slope, [-0.3, 0.0, 0.3, 0.3, 0.3])
        # on or beyond a bound: the single point of that bound
        a, b, slope = NonsmoothTerm.box(-1.0, 1.0).pieces(u)
        np.testing.assert_array_equal(a, [-1.0, -1.0, -1.0, 1.0, 1.0])
        np.testing.assert_array_equal(b, [-1.0, 1.0, 1.0, 1.0, 1.0])
        assert np.all(slope == 0.0)

    def test_kink_excess_and_entered_piece(self):
        r = np.array([-2.0, 0.5, 3.0])
        excess, a, b, slope = NonsmoothTerm.scaled_l1(1.0).kink(np.zeros(3), r, np.arange(3))
        np.testing.assert_array_equal(excess, [1.0, -0.5, 2.0])
        np.testing.assert_array_equal(a, [0.0, -np.inf, -np.inf])
        np.testing.assert_array_equal(b, [np.inf, 0.0, 0.0])
        np.testing.assert_array_equal(slope, [1.0, -1.0, -1.0])
        # the normal cone is (-inf, 0] at lo and [0, inf) at hi
        box = NonsmoothTerm.box(np.array([-1.0, -2.0, -3.0]), np.array([1.0, 2.0, 3.0]))
        excess, a, b, slope = box.kink(np.array([-1.0, 2.0]), np.array([-2.0, -2.0]),
                                       np.array([0, 1]))
        np.testing.assert_array_equal(excess, [2.0, -2.0])
        np.testing.assert_array_equal(a, [-1.0, -2.0])
        np.testing.assert_array_equal(b, [1.0, 2.0])
        assert np.all(slope == 0.0)

    def test_domain_serves_scalar_and_per_coordinate_bounds(self):
        assert NonsmoothTerm.scaled_l1(1.0).domain(3) == (-np.inf, np.inf)
        lo, hi = NonsmoothTerm.box(-1.0, 2.0).domain(np.array([0, 4]))
        np.testing.assert_array_equal(lo, [-1.0, -1.0])
        np.testing.assert_array_equal(hi, [2.0, 2.0])
        box = NonsmoothTerm.box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        assert tuple(map(float, box.domain(1))) == (-2.0, 2.0)


def _quad_instance(m=2, n=3, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    smooth = []
    for _ in range(m):
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        smooth.append(quadratic_objective(A, rng.standard_normal(n)))
    return ProblemInstance(n=n, m=m, smooth=tuple(smooth),
                           nonsmooth=NonsmoothTerm.zero(), mu=1.0)


class TestProblemInstance:
    def test_nonsmooth_must_be_one_term_of_matching_length(self):
        base = _quad_instance()
        zero = NonsmoothTerm.zero()
        with pytest.raises(ConfigError, match="one NonsmoothTerm"):
            ProblemInstance(n=base.n, m=2, smooth=base.smooth, nonsmooth=(zero, zero),
                            mu=1.0)
        with pytest.raises(ConfigError, match="length 1 or n=3"):
            ProblemInstance(n=base.n, m=2, smooth=base.smooth,
                            nonsmooth=NonsmoothTerm.box(-np.ones(2), np.ones(2)), mu=1.0)
        for bound in (0.5, 0.5 * np.ones(3)):
            ProblemInstance(n=base.n, m=2, smooth=base.smooth,
                            nonsmooth=NonsmoothTerm.box(-bound, bound), mu=1.0)

    def test_count_and_mu_validation(self):
        base = _quad_instance()
        with pytest.raises(ConfigError):
            ProblemInstance(n=base.n, m=3, smooth=base.smooth, nonsmooth=base.nonsmooth,
                            mu=1.0)
        with pytest.raises(ConfigError):
            ProblemInstance(n=base.n, m=2, smooth=base.smooth, nonsmooth=base.nonsmooth,
                            mu=0.0)

    @pytest.mark.parametrize("fields, message", [
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"m": 0, "smooth": ()}, "m must be >= 1, got 0"),
        ({"lip_grad": -1.0}, "lip_grad must be finite and >= 0, got -1.0"),
    ])
    def test_dimension_and_lip_grad_guards(self, fields, message):
        base = _quad_instance()
        kwargs = dict(n=base.n, m=2, smooth=base.smooth, nonsmooth=base.nonsmooth, mu=1.0)
        with pytest.raises(ConfigError) as info:
            ProblemInstance(**{**kwargs, **fields})
        assert str(info.value) == message

    def test_eval_smooth_stacks_and_validates(self):
        prob = _quad_instance()
        x = RNG.standard_normal(3)
        se = eval_smooth(prob, x)
        assert se.values.shape == (2,)
        assert se.gradients.shape == (2, 3)
        assert se.hessians.shape == (2, 3, 3)
        v0, g0, H0 = prob.smooth[0].evaluate(x)
        assert se.values[0] == v0
        assert np.array_equal(se.gradients[0], g0)
        assert np.array_equal(se.hessians[0], H0)

    def test_eval_smooth_rejects_nonfinite_oracle(self):
        def bad(x):
            return np.inf, np.zeros(1), np.eye(1)

        prob = ProblemInstance(n=1, m=1, smooth=(SmoothObjective(bad),),
                               nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        with pytest.raises(EvaluationError) as exc:
            eval_smooth(prob, np.zeros(1))
        assert exc.value.objective_index == 0

    def test_stacked_symmetrization_matches_per_objective(self):
        # 0.5 * (H + H') over the stack gives each objective's 0.5 * (h + h')
        hesses = RNG.standard_normal((3, 4, 4))
        prob = ProblemInstance(n=4, m=3, smooth=tuple(
            SmoothObjective(lambda x, h=h: (0.0, np.zeros(4), h)) for h in hesses),
            nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        x = np.zeros(4)
        se = eval_smooth(prob, x)
        for i, h in enumerate(hesses):
            assert np.array_equal(se.hessians[i], 0.5 * (h + h.T))
            assert np.array_equal(prob.smooth[i].evaluate(x)[2], se.hessians[i])

    @pytest.mark.parametrize("entry, bad_gradient, index, part", [
        ("eval_smooth", False, 1, "output"), ("eval_full", False, 1, "value"),
        ("eval_smooth", True, 1, "output"), ("eval_full", True, 2, "value"),
    ])
    def test_first_nonfinite_objective_is_named(self, entry, bad_gradient, index, part):
        # objective 1 has a nan value (or, with bad_gradient, a nan gradient
        # only) and objective 2 an inf value; eval_full checks values only
        def oracle(value, grad):
            return SmoothObjective(lambda x: (value, grad, np.eye(2)))

        fine = np.zeros(2)
        one = oracle(0.0, np.full(2, np.nan)) if bad_gradient else oracle(np.nan, fine)
        prob = ProblemInstance(n=2, m=3, smooth=(oracle(0.0, fine), one, oracle(np.inf, fine)),
                               nonsmooth=NonsmoothTerm.zero(), mu=1.0)
        evaluate = eval_smooth if entry == "eval_smooth" else eval_full
        with pytest.raises(EvaluationError) as exc:
            evaluate(prob, np.zeros(2))
        assert exc.value.objective_index == index
        assert str(exc.value) == f"smooth objective {index} returned non-finite {part}"

    @pytest.mark.parametrize("entry", ["eval_smooth", "eval_full"])
    @pytest.mark.parametrize("x", [[0.0, np.nan, 0.0], [-np.inf, 0.0, 0.0]])
    def test_nonfinite_point_rejected(self, entry, x):
        evaluate = eval_smooth if entry == "eval_smooth" else eval_full
        with pytest.raises(InputError, match="point has non-finite entries"):
            evaluate(_quad_instance(), np.array(x))

    def test_eval_full_adds_indicator(self):
        prob = _quad_instance()
        box = NonsmoothTerm.box(-0.5 * np.ones(3), 0.5 * np.ones(3))
        prob = ProblemInstance(n=3, m=2, smooth=prob.smooth, nonsmooth=box, mu=1.0)
        inside = eval_full(prob, np.zeros(3))
        assert np.all(np.isfinite(inside))
        outside = eval_full(prob, np.ones(3))
        assert np.all(np.isinf(outside))

    def test_eval_full_evaluates_g_once(self, monkeypatch):
        prob = _quad_instance(m=3)
        prob = ProblemInstance(n=3, m=3, smooth=prob.smooth,
                               nonsmooth=NonsmoothTerm.scaled_l1(0.5), mu=1.0)
        calls = []
        value = NonsmoothTerm.value

        def counted(term, x):
            calls.append(1)
            return value(term, x)

        monkeypatch.setattr(NonsmoothTerm, "value", counted)
        x = RNG.standard_normal(3)
        full = eval_full(prob, x)
        assert len(calls) == 1
        g = 0.5 * np.sum(np.abs(x))
        assert np.array_equal(full, eval_smooth(prob, x).values + g)

    def test_point_validation(self):
        prob = _quad_instance()
        with pytest.raises(InputError):
            eval_full(prob, np.zeros(4))
        with pytest.raises(InputError):
            eval_full(prob, np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(InputError):
            eval_full(prob, np.zeros((3, 1)))


def _stacked(hesses):
    """An instance whose objectives are the rows of one stacked oracle returning hesses."""
    m, n, _ = hesses.shape

    def oracle(x, hessians):
        return np.zeros(m), np.zeros((m, n)), hesses if hessians else None

    smooth = tuple(SmoothObjective(fn=lambda x, i=i: tuple(out[i] for out in oracle(x, True)),
                                   stack=(oracle, i, m)) for i in range(m))
    prob = ProblemInstance(n=n, m=m, smooth=smooth, nonsmooth=NonsmoothTerm.zero(), mu=1.0)
    assert prob.oracle is oracle  # one call per sweep
    return prob


def _symmetric_stack(m=3, n=4):
    h = RNG.standard_normal((m, n, n))
    return h + h.transpose(0, 2, 1)


class TestSweepContract:
    """An exactly symmetric float64 C-order stack passes through; any other is copied."""

    def test_symmetric_stack_passes_through_read_only(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=5, m=3, cond=10.0))
        x = RNG.standard_normal(5)
        A = prob.oracle(x, True)[2]
        before = A.copy()
        assert prob.oracle(2.0 * x, True)[2] is A
        assert all(np.array_equal(h, h.T) for h in A)
        keep = []
        eval_full(prob, x, keep)
        for hesses in (eval_smooth(prob, x).hessians, keep[0].hessians):
            assert np.shares_memory(hesses, A)
            assert not hesses.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                hesses[0, 0, 0] = 0.0
        assert not prob.smooth[0].evaluate(x)[2].flags.writeable
        assert A.flags.writeable
        assert A.tobytes() == before.tobytes()

    def test_asymmetric_stack_is_symmetrized_into_a_new_buffer(self):
        h = RNG.standard_normal((3, 4, 4))
        before = h.copy()
        se = eval_smooth(_stacked(h), np.zeros(4))
        assert not np.shares_memory(se.hessians, h)
        assert not se.hessians.flags.writeable
        assert se.hessians.tobytes() == (0.5 * (before + before.transpose(0, 2, 1))).tobytes()
        assert h.tobytes() == before.tobytes()

    def test_symmetric_stack_not_in_c_order_is_copied(self):
        h = np.asfortranarray(_symmetric_stack())
        assert not h.flags.c_contiguous
        se = eval_smooth(_stacked(h), np.zeros(4))
        assert not np.shares_memory(se.hessians, h)
        assert se.hessians.flags.c_contiguous and not se.hessians.flags.writeable
        assert np.array_equal(se.hessians, h)

    @pytest.mark.parametrize("index, entry", [(1, np.nan), (2, np.inf), (2, np.nan),
                                              (0, -np.inf)])
    def test_nonfinite_symmetric_stack_names_the_objective(self, index, entry):
        # placed symmetrically: an inf stack still equals its transpose and
        # passes through, a nan one does not; both fail the finiteness check
        h = _symmetric_stack()
        h[index, 0, 1] = h[index, 1, 0] = entry
        with pytest.raises(EvaluationError) as exc:
            eval_smooth(_stacked(h), np.zeros(4))
        assert exc.value.objective_index == index
        assert str(exc.value) == f"smooth objective {index} returned non-finite output"

    def test_symmetric_entry_near_the_float_limit_stays_finite(self):
        # 0.5 * (h + h') would overflow h + h' to inf and reject a finite oracle
        h = np.tile(np.eye(2), (2, 1, 1))
        h[1, 0, 1] = h[1, 1, 0] = 1.5e308
        se = eval_smooth(_stacked(h), np.zeros(2))
        assert np.isfinite(se.hessians).all()
        assert se.hessians[1, 0, 1] == 1.5e308
