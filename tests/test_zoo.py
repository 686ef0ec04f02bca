import numpy as np
import pytest

from moprox import (
    ConfigError,
    InstanceSpec,
    NonsmoothTerm,
    SmoothObjective,
    attach_nonsmooth,
    eval_smooth,
    gen_quadratic,
    generate_instance,
    logsumexp_objective,
    quadratic_objective,
)
from moprox.zoo import FAMILIES

from conftest import fd_gradient, fd_hessian


class TestInstanceSpec:
    def test_families_frozen(self):
        assert FAMILIES == ("quadratic", "quadratic_l1", "quadratic_box",
                            "logsumexp")

    def test_validation(self):
        with pytest.raises(ConfigError):
            InstanceSpec(family="cubic", n=2, m=1)
        with pytest.raises(ConfigError):
            InstanceSpec(family="quadratic", n=0, m=1)
        with pytest.raises(ConfigError):
            InstanceSpec(family="quadratic", n=2, m=0)
        with pytest.raises(ConfigError):
            InstanceSpec(family="quadratic", n=2, m=1, cond=0.5)
        with pytest.raises(ConfigError):
            InstanceSpec(family="quadratic", n=2, m=1, mu=0.0)
        with pytest.raises(ConfigError):
            InstanceSpec(family="quadratic_l1", n=2, m=1, rho=-1.0)
        with pytest.raises(ConfigError):
            InstanceSpec(family="quadratic_box", n=2, m=1, lo=1.0, hi=-1.0)

    @pytest.mark.parametrize("kwargs, field", [
        ({"family": "cubic"}, "family"),
        ({"n": 0, "m": 0}, "n"),
        ({"m": 0}, "m"),
        ({"cond": 0.5}, "cond"),
        ({"family": "logsumexp", "cond": 2.0}, "cond"),
        ({"mu": 0.0}, "mu"),
        ({"rho": -1.0}, "rho"),
        ({"lo": 1.0, "hi": -1.0}, "lo"),
        ({"seed": -1}, "seed"),
        ({"cond": 10 ** 400}, "cond"),
    ])
    def test_errors_name_their_field(self, kwargs, field):
        spec = {"family": "quadratic", "n": 2, "m": 1, **kwargs}
        with pytest.raises(ConfigError) as exc:
            InstanceSpec(**spec)
        assert exc.value.field == field
        assert str(exc.value) == f"{field} {exc.value.detail}"

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 4.5}, "n must be an integer, got 4.5"),
        ({"m": "4"}, "m must be an integer, got '4'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"cond": "100"}, "cond must be a real number, got '100'"),
        ({"mu": None}, "mu must be a real number, got None"),
        ({"rho": False}, "rho must be a real number, got False"),
        ({"lo": [0.0]}, "lo must be a real number, got [0.0]"),
    ])
    def test_rejects_wrong_types(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            InstanceSpec(**{"family": "quadratic_box", "n": 2, "m": 1, **kwargs})
        assert str(exc.value) == message

    def test_accepts_numpy_scalars(self):
        spec = InstanceSpec(family="quadratic", n=np.int64(3), m=2, cond=np.float64(10.0),
                            seed=np.uint32(7))
        assert generate_instance(spec).n == 3

    def test_logsumexp_rejects_cond(self):
        # gen_logsumexp_reg never reads cond, so a cond sweep would repeat
        # one instance; only the default cond = 1 is accepted
        with pytest.raises(ConfigError, match="cond"):
            InstanceSpec(family="logsumexp", n=2, m=1, cond=100.0)
        assert InstanceSpec(family="logsumexp", n=2, m=1, cond=1.0).cond == 1.0


class TestGenQuadratic:
    def test_deterministic(self):
        spec = InstanceSpec(family="quadratic", n=5, m=2, cond=100.0, seed=17)
        a = generate_instance(spec)
        b = generate_instance(spec)
        x = np.linspace(-1.0, 1.0, 5)
        ea, eb = eval_smooth(a, x), eval_smooth(b, x)
        assert np.array_equal(ea.values, eb.values)
        assert np.array_equal(ea.gradients, eb.gradients)
        assert np.array_equal(ea.hessians, eb.hessians)

    def test_spectrum_pinned_to_mu_and_cond(self):
        spec = InstanceSpec(family="quadratic", n=8, m=3, cond=1e4, mu=2.0,
                            seed=1)
        prob = generate_instance(spec)
        se = eval_smooth(prob, np.zeros(8))
        for H in se.hessians:
            eigs = np.linalg.eigvalsh(H)
            assert eigs.min() == pytest.approx(2.0, rel=1e-10)
            assert eigs.max() == pytest.approx(2.0e4, rel=1e-10)
            assert np.all(eigs >= 2.0 - 1e-8)

    def test_scalar_instance_hessian_is_mu(self):
        spec = InstanceSpec(family="quadratic", n=1, m=2, mu=3.0, seed=0)
        prob = generate_instance(spec)
        se = eval_smooth(prob, np.zeros(1))
        assert np.allclose(se.hessians, 3.0)
        assert prob.lip_grad == 3.0

    def test_lip_grad_matches_top_eigenvalue(self):
        spec = InstanceSpec(family="quadratic", n=6, m=2, cond=50.0, seed=11)
        prob = generate_instance(spec)
        se = eval_smooth(prob, np.zeros(6))
        top = max(np.linalg.eigvalsh(H).max() for H in se.hessians)
        assert top <= prob.lip_grad * (1.0 + 1e-10)

    def test_explicit_shifts_set_minima(self):
        spec = InstanceSpec(family="quadratic", n=1, m=2, mu=1.0, seed=0)
        prob = gen_quadratic(spec, shifts=np.array([[1.0], [-1.0]]))
        se = eval_smooth(prob, np.array([2.0]))
        assert np.allclose(se.gradients[:, 0], [1.0, 3.0])
        # each objective is minimized at its shift
        for i, shift in enumerate((1.0, -1.0)):
            _, g, _ = prob.smooth[i].evaluate(np.array([shift]))
            assert abs(g[0]) < 1e-12


    def test_shifts_of_the_wrong_shape(self):
        spec = InstanceSpec(family="quadratic", n=5, m=3, cond=100.0, seed=3)
        with pytest.raises(ConfigError) as info:
            gen_quadratic(spec, shifts=np.zeros((3, 4)))
        assert str(info.value) == "shifts must have shape (3, 5), got (3, 4)"


class TestGenLogsumexp:
    def test_oracles_match_finite_differences(self):
        spec = InstanceSpec(family="logsumexp", n=4, m=2, mu=1.0, seed=5)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.standard_normal(4)
        for obj in prob.smooth:
            _, g, H = obj.evaluate(x)
            assert np.max(np.abs(g - fd_gradient(obj.evaluate, x))) < 1e-5
            assert np.max(np.abs(H - fd_hessian(obj.evaluate, x))) < 1e-3

    def test_curvature_between_mu_and_lip_grad(self):
        spec = InstanceSpec(family="logsumexp", n=5, m=2, mu=0.7, seed=9)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(5):
            x = 2.0 * rng.standard_normal(5)
            se = eval_smooth(prob, x)
            for H in se.hessians:
                eigs = np.linalg.eigvalsh(H)
                assert eigs.min() >= 0.7 - 1e-9
                assert eigs.max() <= prob.lip_grad + 1e-9

    def test_build_calls_no_oracle(self, monkeypatch):
        calls = []
        evaluate = SmoothObjective.evaluate

        def counted(self, x):
            calls.append(1)
            return evaluate(self, x)

        monkeypatch.setattr(SmoothObjective, "evaluate", counted)
        prob = generate_instance(InstanceSpec(family="logsumexp", n=100, m=8, seed=1))
        assert len(calls) == 0
        prob.smooth[0].evaluate(np.zeros(100))
        assert len(calls) == 1

    def test_deterministic(self):
        spec = InstanceSpec(family="logsumexp", n=3, m=2, mu=1.0, seed=8)
        x = np.array([0.3, -0.2, 0.9])
        ea = eval_smooth(generate_instance(spec), x)
        eb = eval_smooth(generate_instance(spec), x)
        assert np.array_equal(ea.values, eb.values)


class TestLogsumexpHessians:
    # newton_smooth's four logsumexp cells, n = 100 and m = 2, 3, 5, 8: the
    # instance seed and start of replica 0 of cells 0 to 3, drawn as
    # perfbench/workloads.py draws them from its POOL_SEED
    POOL_SEED = 230810140

    @pytest.mark.parametrize("scale", [1.0, 50.0])  # 50x the start: p concentrates
    @pytest.mark.parametrize("cell, m", enumerate([2, 3, 5, 8]))
    def test_pool_cells_are_exactly_symmetric_and_pass_uncopied(self, cell, m, scale):
        seed, start = (int(s) for s in np.random.SeedSequence(
            [self.POOL_SEED, 0, cell]).generate_state(2))
        prob = generate_instance(InstanceSpec(family="logsumexp", n=100, m=m, seed=seed))
        x = scale * 2.0 * np.random.Generator(np.random.PCG64(start)).standard_normal(100)
        returned, oracle = [], prob.oracle

        def capturing(x, hessians):
            out = oracle(x, hessians)
            returned.append(out[2])
            return out

        object.__setattr__(prob, "oracle", capturing)
        hesses = eval_smooth(prob, x).hessians
        assert np.shares_memory(hesses, returned[0])
        rng = np.random.Generator(np.random.PCG64(seed))  # gen_logsumexp_reg's draws
        for h in hesses:
            assert (h == h.T).all()
            rows = 0.9 * rng.standard_normal((5, 100))
            t = rows @ x + 0.5 * rng.standard_normal(5)
            rng.standard_normal(100)  # the center
            p = np.exp(t - t.max())
            p /= p.sum()
            mean_row = rows.T @ p
            # the earlier formula R'diag(p)R - r r' + mu I, symmetrized
            old = (rows * p[:, None]).T @ rows - np.outer(mean_row, mean_row) + np.eye(100)
            old = 0.5 * (old + old.T)
            tol = 16.0 * np.finfo(float).eps * ((rows ** 2).sum(axis=0).max() + 1.0)
            assert np.abs(h - old).max() <= tol
            assert np.linalg.eigvalsh(h).min() >= 1.0 - 1e-12


class TestObjectiveConstructors:
    @pytest.mark.parametrize("A, b, field", [
        (np.eye(3), np.ones(4), "b"),
        (np.ones((3, 4)), np.ones(3), "A"),
        (np.ones(3), np.ones(3), "A"),
    ])
    def test_quadratic_shapes_that_do_not_fit(self, A, b, field):
        with pytest.raises(ConfigError) as exc:
            quadratic_objective(A, b)
        assert exc.value.field == field

    @pytest.mark.parametrize("rows, offsets, mu, center, field", [
        (np.ones((5, 3)), np.ones(4), 1.0, np.zeros(3), "offsets"),
        (np.ones((5, 3)), np.ones(5), 1.0, np.zeros(4), "center"),
        (np.ones(3), np.ones(1), 1.0, np.zeros(3), "rows"),
        (np.ones((0, 3)), np.ones(0), 1.0, np.zeros(3), "rows"),
        (np.ones((5, 3)), np.ones(5), -1.0, np.zeros(3), "mu"),
        (np.ones((5, 3)), np.ones(5), np.inf, np.zeros(3), "mu"),
    ])
    def test_logsumexp_arguments_that_do_not_fit(self, rows, offsets, mu, center, field):
        with pytest.raises(ConfigError) as exc:
            logsumexp_objective(rows, offsets, mu, center)
        assert exc.value.field == field

    def test_fitting_arguments_evaluate(self):
        v, g, h = quadratic_objective(2.0 * np.eye(3), np.ones(3)).evaluate(np.ones(3))
        assert (v, g.tolist(), h.tolist()) == (0.0, [1.0] * 3, (2.0 * np.eye(3)).tolist())
        # mu = 0 is allowed: the objective alone need not be strongly convex
        v, g, h = logsumexp_objective(np.eye(2), np.zeros(2), 0.0, np.zeros(2)).evaluate(
            np.zeros(2))
        assert v == np.log(2.0)
        assert g.tolist() == [0.5, 0.5]
        assert np.allclose(h, [[0.25, -0.25], [-0.25, 0.25]], rtol=0.0, atol=1e-15)


class TestDispatchAndAttach:
    def test_quadratic_gets_zero_terms(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=2, m=2, seed=0))
        assert prob.nonsmooth.kind == NonsmoothTerm.KIND_ZERO

    def test_l1_family_carries_rho(self):
        prob = generate_instance(
            InstanceSpec(family="quadratic_l1", n=2, m=2, rho=0.3, seed=0))
        assert prob.nonsmooth.kind == NonsmoothTerm.KIND_L1
        assert prob.nonsmooth.rho == 0.3

    def test_box_family_carries_bounds(self):
        prob = generate_instance(
            InstanceSpec(family="quadratic_box", n=3, m=2, seed=0,
                         lo=-0.25, hi=0.75))
        t = prob.nonsmooth
        assert t.kind == NonsmoothTerm.KIND_BOX
        assert np.allclose(t.lo, -0.25)
        assert np.allclose(t.hi, 0.75)

    def test_attach_nonsmooth_uniform_replace(self):
        prob = generate_instance(InstanceSpec(family="quadratic", n=2, m=3, seed=0))
        term = NonsmoothTerm.scaled_l1(0.9)
        out = attach_nonsmooth(prob, term)
        assert out.nonsmooth is term
        with pytest.raises(ConfigError):
            attach_nonsmooth(prob, "l1")
