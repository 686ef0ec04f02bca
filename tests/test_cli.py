import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moprox
import moprox.cli
from moprox.cli import derive_x0, main, read_trace_csv
from moprox.zoo import generate_instance


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _base_solve_config(**overrides):
    cfg = {
        "instance": {"family": "quadratic", "n": 4, "m": 2, "cond": 100.0,
                     "seed": 3},
        "solver": {"eps": 1e-9, "tol_gap": 1e-12},
        "run": {"x0": {"seed": 3, "scale": 2.0}},
    }
    cfg.update(overrides)
    return cfg


class TestSolveVerb:
    def test_solve_writes_roundtrip_csv(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json", _base_solve_config())
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=critical_reached" in out
        data = read_trace_csv(tmp_path / "trace.csv")
        assert set(data) == {"k", "t", "theta", "dnorm", "gap",
                             "F_1", "F_2", "x_1", "x_2", "x_3", "x_4"}
        assert data["k"][0] == 0
        assert data["t"][-1] == 0.0
        assert data["dnorm"][-1] < 1e-9

    def test_solve_deterministic_bytes(self, tmp_path):
        cfg_path = _write_config(tmp_path / "cfg.json", _base_solve_config())
        main(["solve", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg_path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_summary_line_gives_the_solve_cost(self, tmp_path, capsys):
        cfg = _base_solve_config()
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        spec = moprox.InstanceSpec(**cfg["instance"])
        x0 = derive_x0(cfg, spec)
        trace = moprox.solve(moprox.generate_instance(spec),
                             moprox.SolverConfig(**cfg["solver"]), x0)
        assert trace.snaps > 0 and trace.passes >= trace.snaps
        assert (f"snaps={trace.snaps} passes={trace.passes} halvings={trace.halvings} "
                in capsys.readouterr().out)

    def test_rewrite_over_longer_file_leaves_no_tail(self, tmp_path):
        cfg_path = _write_config(tmp_path / "cfg.json", _base_solve_config())
        main(["solve", "--config", cfg_path, "--out", str(tmp_path / "a")])
        fresh = (tmp_path / "a" / "trace.csv").read_bytes()
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "trace.csv").write_bytes(b"stale\n" * (len(fresh) // 3))
        main(["solve", "--config", cfg_path, "--out", str(tmp_path / "b")])
        assert (tmp_path / "b" / "trace.csv").read_bytes() == fresh

    def test_explicit_x0_list(self, tmp_path):
        cfg = _base_solve_config()
        cfg["run"] = {"x0": [1.0, -1.0, 0.5, 0.0], "trace_csv": "run.csv"}
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        data = read_trace_csv(tmp_path / "run.csv")
        assert np.allclose(
            [data["x_1"][0], data["x_2"][0], data["x_3"][0], data["x_4"][0]],
            [1.0, -1.0, 0.5, 0.0])

    def test_seed_override_changes_instance_and_start(self, tmp_path):
        cfg = _base_solve_config()
        del cfg["run"]["x0"]
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        main(["solve", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg_path, "--out", str(tmp_path / "b"),
              "--seed-override", "9"])
        a = read_trace_csv(tmp_path / "a" / "trace.csv")
        b = read_trace_csv(tmp_path / "b" / "trace.csv")
        assert not np.array_equal(a["x_1"], b["x_1"])

    def test_iteration_cap_exit_code(self, tmp_path):
        cfg = _base_solve_config()
        cfg["solver"] = {"eps": 1e-9, "tol_gap": 1e-12, "max_outer": 1,
                         "variant": "gradient"}
        cfg["instance"]["cond"] = 1e4
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_box_default_start_clipped_into_box(self, tmp_path, capsys):
        cfg = {"instance": {"family": "quadratic_box", "n": 10, "m": 2,
                            "cond": 100.0, "seed": 0}}
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert "status=critical_reached" in capsys.readouterr().out
        data = read_trace_csv(tmp_path / "trace.csv")
        x0 = np.array([data[f"x_{j + 1}"][0] for j in range(10)])
        assert np.all(np.abs(x0) <= 1.0)

    def test_gradient_ell_filled_from_instance(self, tmp_path, capsys):
        cfg = _base_solve_config()
        cfg["solver"] = {"eps": 1e-6, "tol_gap": 1e-10, "variant": "gradient",
                         "max_outer": 5000}
        cfg["instance"] = {"family": "quadratic_l1", "n": 4, "m": 2,
                           "cond": 10.0, "rho": 0.1, "seed": 3}
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert "status=critical_reached" in capsys.readouterr().out


class TestConfigErrors:
    @pytest.mark.parametrize("mangle, needle", [
        (lambda c: c["solver"].update(sigma=2.0), "unknown key solver.sigma"),
        (lambda c: c["solver"].update(bogus=1), "solver.bogus"),
        (lambda c: c["instance"].update(cond=0.5), "instance.cond"),
        (lambda c: c["instance"].pop("family"), "instance.family"),
        (lambda c: c["run"].update(x0="origin"), "run.x0"),
        (lambda c: c["solver"].update(max_inner_iters=100), "unknown key solver.max_inner_iters"),
        (lambda c: c["solver"].update(max_halvings=30), "unknown key solver.max_halvings"),
        (lambda c: c["run"]["x0"].update(scale="abc"),
         "run.x0.scale must be a real number, got 'abc'"),
        (lambda c: c["run"]["x0"].update(scale=True),
         "run.x0.scale must be a real number, got True"),
        (lambda c: c["solver"].update(max_dual_iters=2000), "unknown key solver.max_dual_iters"),
        (lambda c: c["run"]["x0"].update(scale=10 ** 400),
         "run.x0.scale must be finite, got an integer too large for a float"),
        (lambda c: c["run"].update(x0=[10 ** 400, 0, 0, 0]), "run.x0 entries must be numbers"),
        (lambda c: c["instance"].update(seed=-5), "instance.seed must be >= 0, got -5"),
        (lambda c: c["run"]["x0"].update(seed=-1), "run.x0.seed must be >= 0, got -1"),
        (lambda c: c["solver"].update(eps=10 ** 400),
         "solver.eps must be finite, got an integer too large for a float"),
        (lambda c: c["instance"].update(cond=10 ** 400),
         "instance.cond must be finite, got an integer too large for a float"),
        (lambda c: c["run"].update(x0=[True, 0.5, 0, 0]),
         "run.x0 entries must be numbers, got True"),
        (lambda c: c["run"].update(x0=["1.5", 0.5, 0, 0]),
         "run.x0 entries must be numbers, got '1.5'"),
    ])
    def test_dotted_paths_and_exit_64(self, tmp_path, capsys, mangle, needle):
        cfg = _base_solve_config()
        mangle(cfg)
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 64
        assert needle in capsys.readouterr().err

    def test_negative_seed_override_exit_64(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json", _base_solve_config())
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path),
                     "--seed-override", "-5"])
        assert code == 64
        assert capsys.readouterr().err == "config error: instance.seed must be >= 0, got -5\n"

    @pytest.mark.parametrize("key, value", [("tol", 1e-6), ("starts", 3)])
    def test_removed_check_knobs_exit_64(self, tmp_path, capsys, key, value):
        cfg = _base_solve_config(checks={"names": ["descent_bound"], key: value})
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["check", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == f"config error: unknown key checks.{key}\n"

    @pytest.mark.parametrize("section, mangle, message", [
        ("instance", {"n": 4.5}, "instance.n must be an integer, got 4.5"),
        ("instance", {"n": "4"}, "instance.n must be an integer, got '4'"),
        ("solver", {"eps": "1e-9"}, "solver.eps must be a real number, got '1e-9'"),
    ])
    def test_wrong_types_exit_64_with_field_path(self, tmp_path, capsys, section, mangle,
                                                  message):
        cfg = _base_solve_config()
        cfg[section].update(mangle)
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("instance, message", [
        ({"family": "quadratic_box", "lo": 1.0, "hi": 0.0},
         "instance.lo must be < hi for the box, got [1.0, 0.0]"),
        ({"n": 0, "m": 0}, "instance.n must be >= 1, got 0"),
    ])
    def test_field_path_independent_of_hash_seed(self, tmp_path, instance, message):
        cfg = _base_solve_config()
        cfg["instance"].update(instance)
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        src = str(Path(moprox.__file__).resolve().parents[1])
        errs = []
        for hash_seed in ("0", "1"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-m", "moprox.cli", "solve", "--config",
                                   cfg_path, "--out", str(tmp_path)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 64
            errs.append(proc.stderr)
        assert errs[0] == errs[1] == f"config error: {message}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 64

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 64

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer of more than
        # sys.get_int_max_str_digits() digits
        p = tmp_path / "cfg.json"
        p.write_text('{"instance": {"seed": ' + "1" * 5000 + "}}")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 64
        assert "config error: config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["solve", "bench"])
    @pytest.mark.parametrize("name", ["", 3, None])
    def test_bad_trace_name_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                      verb, name):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(moprox.cli, "solve", no_solve)
        cfg = _base_solve_config()
        cfg["run"].update(trace_csv=name, sweep={"seeds": [0, 1]})
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main([verb, "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == (
            f"config error: run.trace_csv must be a nonempty string, got {name!r}\n")

    def test_bad_verb_usage(self, tmp_path):
        assert main(["tune", "--config", "x.json"]) == 64

    @pytest.mark.parametrize("verb, mangle, message", [
        ("solve", lambda c: [1, 2], "config root must be a JSON object"),
        ("solve", lambda c: c.update(instance=3), "config section instance must be an object"),
        ("bench", lambda c: c["run"].update(sweep=[1]), "run.sweep must be an object"),
        ("solve", lambda c: c.update(instance={"family": "quadratic", "m": 2}),
         "missing required key instance.n or instance.m"),
        ("solve", lambda c: c.update(instance={"family": "quadratic", "n": 4}),
         "missing required key instance.n or instance.m"),
        ("solve", lambda c: c["instance"].update(family="cubic"),
         f"instance.family must be one of {', '.join(moprox.zoo.FAMILIES)}, got 'cubic'"),
        ("solve", lambda c: c["run"]["x0"].update(scale=float("inf")),
         "run.x0.scale must be finite, got inf"),
        ("solve", lambda c: c["run"].update(x0=[1.0, 2.0]),
         "run.x0 must be a list of 4 numbers or an object with seed/scale, got shape (2,)"),
        ("solve", lambda c: c["run"].update(x0=[float("nan"), 0.0, 0.0, 0.0]),
         "run.x0 has non-finite entries"),
        ("bench", lambda c: c["run"].update(sweep={"cond": []}),
         "run.sweep.cond must be a nonempty list"),
        ("bench", lambda c: c["run"].update(sweep={"seeds": []}),
         "run.sweep.seeds must be a nonempty list"),
        ("check", lambda c: c.update(checks={}), "missing required key checks.names"),
        ("check", lambda c: c.update(checks={"names": "descent_bound"}),
         "checks.names must be a list"),
        # InstanceSpec tests the family, after the missing keys
        ("solve", lambda c: c.update(instance={"family": "cubic", "n": 4}),
         "missing required key instance.n or instance.m"),
    ])
    def test_guard_messages_exit_64(self, tmp_path, capsys, verb, mangle, message):
        # mangle edits the config in place or returns its replacement; json
        # writes inf and nan as Infinity and NaN, which json.loads reads back
        cfg = _base_solve_config()
        cfg_path = _write_config(tmp_path / "cfg.json", mangle(cfg) or cfg)
        assert main([verb, "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json", _base_solve_config())
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 64
        assert capsys.readouterr().err.startswith("io error: ")

    def test_gradient_variant_without_any_ell(self):
        with pytest.raises(moprox.ConfigError) as info:
            moprox.cli.build_solver_config({"solver": {"variant": "gradient"}},
                                           default_ell=None)
        assert str(info.value) == ("solver.ell is required for the gradient variant when "
                                   "the instance records no gradient Lipschitz constant")

    def test_an_unknown_solver_field_names_its_section(self):
        # SolverConfig's own TypeError names no field, so the error names
        # the section alone
        with pytest.raises(moprox.ConfigError) as info:
            moprox.cli.build_solver_config({"solver": {"sigma": 0.1}})
        assert info.value.field is None
        assert str(info.value).startswith("solver: ")
        assert str(info.value).endswith("unexpected keyword argument 'sigma'")


class TestBenchVerb:
    def _bench_config(self):
        return {
            "instance": {"family": "quadratic", "n": 6, "m": 2, "seed": 0},
            "solver": {"eps": 1e-5, "tol_gap": 1e-10, "max_outer": 3000},
            "run": {"sweep": {"cond": [5.0, 50.0], "seeds": [0, 1]}},
        }

    def test_bench_table_shape_and_content(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json", self._bench_config())
        code = main(["bench", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 conds x 2 seeds x 2 solvers
        assert len(rows) == 8
        newton = [r for r in rows if r["solver"] == "newton"]
        gradient = [r for r in rows if r["solver"] == "gradient"]
        assert all(int(r["iters"]) == 1 for r in newton)
        by_cond = {float(r["cond"]): int(r["iters"]) for r in gradient
                   if r["seed"] == "0"}
        assert by_cond[50.0] > by_cond[5.0] > 1
        assert all(r["status"] == "critical_reached" for r in rows)

    def test_bench_table_gives_snaps_and_passes(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json", self._bench_config())
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "bench.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["family", "cond", "seed", "solver", "status", "iters",
                                     "snaps", "passes", "final_dnorm", "wall_ms"]
        # a run of k steps solves k + 1 directions, each with at least one
        # snap, and each snap takes at least one pass
        assert all(int(r["passes"]) >= int(r["snaps"]) >= int(r["iters"]) + 1
                   for r in rows)

    def test_bench_cap_exits_two_with_status(self, tmp_path, capsys):
        cfg = self._bench_config()
        cfg["solver"]["max_outer"] = 1
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(r["status"] == "max_iters" for r in rows)

    def test_bench_rejects_cond_sweep_for_logsumexp(self, tmp_path, capsys):
        cfg = self._bench_config()
        cfg["instance"]["family"] = "logsumexp"
        cfg["run"]["sweep"]["cond"] = [1.0, 100.0]
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert "run.sweep.cond must be 1 for logsumexp" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_bench_rejects_non_numeric_seed(self, tmp_path, capsys):
        cfg = self._bench_config()
        cfg["run"]["sweep"]["seeds"] = ["x"]
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert ("config error: run.sweep.seed must be an integer, got 'x'"
                in capsys.readouterr().err)
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("key, values, message", [
        ("cond", ["10"], "run.sweep.cond must be a real number, got '10'"),
        ("seeds", [4.5], "run.sweep.seed must be an integer, got 4.5"),
        ("seeds", [0, True], "run.sweep.seed must be an integer, got True"),
    ])
    def test_bench_rejects_wrong_sweep_types(self, tmp_path, capsys, key, values, message):
        # entries reach InstanceSpec uncoerced, so "10" is not read as 10.0
        cfg = self._bench_config()
        cfg["run"]["sweep"][key] = values
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_bench_builds_each_instance_once(self, tmp_path, monkeypatch):
        built = []

        def counted(spec):
            built.append((spec.cond, spec.seed))
            return generate_instance(spec)

        monkeypatch.setattr(moprox.cli, "generate_instance", counted)
        cfg_path = _write_config(tmp_path / "cfg.json", self._bench_config())
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert sorted(built) == [(5.0, 0), (5.0, 1), (50.0, 0), (50.0, 1)]
        with open(tmp_path / "bench.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 8

    def test_bench_requires_sweep(self, tmp_path, capsys):
        cfg = self._bench_config()
        del cfg["run"]["sweep"]
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert "run.sweep" in capsys.readouterr().err


class TestCheckVerb:
    def _check_config(self, names, **knobs):
        checks = {"names": names}
        checks.update(knobs)
        return {
            "instance": {"family": "quadratic", "n": 5, "m": 2, "cond": 100.0,
                         "seed": 4},
            "solver": {"eps": 1e-10, "tol_gap": 1e-13},
            "run": {"x0": {"seed": 4, "scale": 2.0}},
            "checks": checks,
        }

    def test_quadratic_checks_pass(self, tmp_path, capsys):
        cfg = self._check_config([
            "quadratic_termination", "descent_bound",
            "fundamental_ineq_quadratic"])
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        code = main(["check", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "checks.txt").read_text()
        assert "quadratic_termination: PASS" in report
        assert "descent_bound: PASS" in report
        assert "fundamental_ineq_quadratic: PASS" in report
        assert "FAIL" not in report

    def test_termination_starts_clipped_into_the_box(self, tmp_path):
        # solve() rejects a start outside the box, so the drawn starts of
        # quadratic_termination are clipped as run.x0 draws are
        cfg = self._check_config(["quadratic_termination"])
        cfg["instance"]["family"] = "quadratic_box"
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["check", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert "quadratic_termination: PASS" in (tmp_path / "checks.txt").read_text()

    def test_explicit_start_outside_the_box_exits_3(self, tmp_path, capsys):
        cfg = _base_solve_config()
        cfg["instance"]["family"] = "quadratic_box"
        cfg["run"]["x0"] = [0.5, 2.0, 0.0, 0.0]
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 3
        assert "x0[1] = 2.0 is not in [-1.0, 1.0]" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_rate_checks_pass_on_multistep_run(self, tmp_path):
        # rate diagnostics need a run with a real tail; the regularized
        # soft-max family converges over a dozen iterations
        cfg = {
            "instance": {"family": "logsumexp", "n": 10, "m": 2, "mu": 1.0,
                         "seed": 0},
            "solver": {"eps": 1e-12, "tol_gap": 1e-13},
            "run": {"x0": {"seed": 500, "scale": 3.0}},
            "checks": {"names": ["order_fit", "tau_bracket", "descent_bound"]},
        }
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        code = main(["check", "--config", cfg_path, "--out", str(tmp_path)])
        report = (tmp_path / "checks.txt").read_text()
        assert code == 0, report
        assert "order_fit: PASS" in report
        assert "FAIL" not in report

    def test_failing_check_exits_one(self, tmp_path):
        # an order fit needs a usable tail; a one-step quadratic solve
        # cannot supply one, and the verdict counts as a failure
        cfg = self._check_config(["order_fit"])
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        code = main(["check", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 1
        assert "order_fit: FAIL" in (tmp_path / "checks.txt").read_text()

    def test_inapplicable_check_is_skipped(self, tmp_path):
        # a one-step quadratic run spans too few error magnitudes for the
        # final tau test: it is reported SKIP and does not fail the verb
        cfg = {"instance": {"family": "quadratic", "n": 3, "m": 2},
               "checks": {"names": ["tau_bracket", "descent_bound"]}}
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["check", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        report = (tmp_path / "checks.txt").read_text()
        assert ("final_tau_near_one: SKIP margin=0 errors span fewer than four orders "
                "of magnitude\n") in report
        assert "FAIL" not in report

    def test_all_checks_share_one_solve_and_one_reference(self, tmp_path, monkeypatch):
        calls = {"solve": 0, "refine_reference": 0}

        def counted(name):
            real = getattr(moprox.cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(moprox.cli, name, counted(name))
        verdicts = moprox.cli.run_checks(self._check_config(list(moprox.cli.CHECK_NAMES)))
        assert calls == {"solve": 1, "refine_reference": 1}
        assert {v.name for v in verdicts} >= {"quadratic_termination", "order_fit",
                                              "fundamental_ineq_quadratic", "descent_bound"}

    def test_rate_checks_fail_on_a_run_that_did_not_converge(self):
        # both need the refined reference, which a run cut at max_outer has not
        cfg = self._check_config(["order_fit", "tau_bracket"])
        cfg["solver"]["max_outer"] = 1
        verdicts = moprox.cli.run_checks(cfg)
        assert [v.name for v in verdicts] == ["order_fit", "tau_bracket"]
        for v in verdicts:
            assert not v.passed and v.margin == float("-inf")
            assert v.detail == "check needs a converged run, got status max_iters"

    def test_unknown_check_name_rejected(self, tmp_path, capsys):
        cfg = self._check_config(["spectral_gap"])
        cfg_path = _write_config(tmp_path / "cfg.json", cfg)
        assert main(["check", "--config", cfg_path, "--out", str(tmp_path)]) == 64
        assert "unknown check name" in capsys.readouterr().err


class TestReadmeConfig:
    """The example config under README.md's "Command line" stays valid."""

    @staticmethod
    def _readme_config() -> str:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1]
        return section.split("```json\n", 1)[1].split("```", 1)[0]

    @pytest.mark.parametrize("verb", ["solve", "check"])
    def test_example_runs(self, tmp_path, verb):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(self._readme_config())
        assert main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
