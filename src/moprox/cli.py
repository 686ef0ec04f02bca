"""Command line surface: run solves, benchmark sweeps, and diagnostic checks.

A single JSON config file drives all three verbs. Sections:

    instance: problem family parameters, the fields of InstanceSpec.
    solver:   solver parameters, the fields of SolverConfig. For the
        gradient variant, a missing ell is filled from the instance's
        recorded gradient Lipschitz constant.
    run:      x0 (explicit list or {"seed", "scale"}), trace_csv name, and
        the bench sweep {"cond": [...], "seeds": [...]}.
    checks:   {"names": [...]}, the diagnostic checks to run.

Unknown keys anywhere are rejected with the dotted field path. Floats in CSV
output are printed with 17 significant digits so values round-trip exactly.

Exit codes: 0 solve reached a critical point (or every bench cell did, or
every check passed), 1 at least one named check failed, 2 iteration cap hit
(in any bench cell), 3 solver failure (in any bench cell), 64 bad config or
usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import numbers
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    Verdict,
    check_descent_bound,
    check_fundamental_inequality_quadratic,
    check_quadratic_termination,
    estimate_order,
    iterate_errors,
    refine_reference,
    tau_check,
)
from .errors import ConfigError, ConvergenceError, InsufficientDataError, MoproxError
from .solver import (
    SolveTrace,
    SolverConfig,
    Status,
    VARIANT_GRADIENT,
    VARIANT_NEWTON,
    solve,
)
from .zoo import FAMILIES, InstanceSpec, generate_instance

__all__ = [
    "main",
    "load_config",
    "build_instance_spec",
    "build_solver_config",
    "derive_x0",
    "write_trace_csv",
    "read_trace_csv",
    "run_checks",
    "CHECK_NAMES",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MAX_ITERS = 2
EXIT_FAILURE = 3
EXIT_CONFIG = 64

_STATUS_EXIT = {
    Status.CRITICAL_REACHED: EXIT_OK,
    Status.MAX_ITERS: EXIT_MAX_ITERS,
    Status.SUBPROBLEM_FAILURE: EXIT_FAILURE,
}

CHECK_NAMES = (
    "quadratic_termination",
    "tau_bracket",
    "order_fit",
    "fundamental_ineq_quadratic",
    "descent_bound",
)

_INSTANCE_KEYS = {f.name for f in dataclasses.fields(InstanceSpec)}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
_RUN_KEYS = {"x0", "trace_csv", "sweep"}
_SWEEP_KEYS = {"cond", "seeds"}
_X0_KEYS = {"seed", "scale"}
_CHECKS_KEYS = {"names"}
_TOP_KEYS = {"instance", "solver", "run", "checks"}


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def _within(exc: Exception, section: str) -> ConfigError:
    """exc as a ConfigError whose field path starts with the section."""
    field = getattr(exc, "field", None)
    if field is None:
        return ConfigError(f"{section}: {exc}")
    return ConfigError(exc.detail, field=f"{section}.{field}")


def load_config(path) -> dict:
    """Parse and structurally validate the JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    for name, keys in (("instance", _INSTANCE_KEYS), ("solver", _SOLVER_KEYS),
                       ("run", _RUN_KEYS), ("checks", _CHECKS_KEYS)):
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name} must be an object")
        _reject_unknown(section, keys, name)
    run = cfg.get("run", {})
    if "sweep" in run:
        if not isinstance(run["sweep"], dict):
            raise ConfigError("run.sweep must be an object")
        _reject_unknown(run["sweep"], _SWEEP_KEYS, "run.sweep")
    if "x0" in run and isinstance(run["x0"], dict):
        _reject_unknown(run["x0"], _X0_KEYS, "run.x0")
    name = run.get("trace_csv", "trace.csv")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"run.trace_csv must be a nonempty string, got {name!r}")
    return cfg


def build_instance_spec(cfg: dict, seed_override=None) -> InstanceSpec:
    section = dict(cfg.get("instance", {}))
    if "family" not in section:
        raise ConfigError("missing required key instance.family")
    if section["family"] not in FAMILIES:
        raise ConfigError(
            f"instance.family must be one of {', '.join(FAMILIES)}, "
            f"got {section['family']!r}")
    if "n" not in section or "m" not in section:
        raise ConfigError("missing required key instance.n or instance.m")
    if seed_override is not None:
        section["seed"] = int(seed_override)
    try:
        return InstanceSpec(**section)
    except (TypeError, ValueError) as exc:
        raise _within(exc, "instance") from exc


def build_solver_config(cfg: dict, overrides=None, default_ell=None) -> SolverConfig:
    """Construct the solver config, filling ell for the gradient variant.

    overrides (e.g. a per-cell variant for bench sweeps) are applied on top
    of the config section before validation; default_ell supplies the
    instance's gradient Lipschitz constant when the section omits ell.
    """
    section = dict(cfg.get("solver", {}))
    if overrides:
        section.update(overrides)
    if section.get("variant") == VARIANT_GRADIENT and section.get("ell") is None:
        if default_ell is None:
            raise ConfigError(
                "solver.ell is required for the gradient variant when the "
                "instance records no gradient Lipschitz constant")
        section["ell"] = float(default_ell)
    try:
        return SolverConfig(**section)
    except (TypeError, ValueError) as exc:
        raise _within(exc, "solver") from exc


def _into_box(x0: np.ndarray, spec: InstanceSpec) -> np.ndarray:
    """x0 clipped into [lo, hi] for quadratic_box, whose term is infinite outside."""
    return np.clip(x0, spec.lo, spec.hi) if spec.family == "quadratic_box" else x0


def derive_x0(cfg: dict, spec: InstanceSpec) -> np.ndarray:
    """Starting point: explicit list, seeded draw, or the default derivation.

    The default draws scale 2 standard normals seeded with the instance seed
    plus 1000, so distinct instances get distinct but reproducible starts.
    For quadratic_box a seeded draw is clipped into [lo, hi], the domain of
    the box term; an explicit list is used as given.
    """
    run = cfg.get("run", {})
    x0_cfg = run.get("x0")
    if x0_cfg is None:
        x0_cfg = {"seed": spec.seed + 1000, "scale": 2.0}
    if isinstance(x0_cfg, dict):
        seed = x0_cfg.get("seed", spec.seed + 1000)
        scale = x0_cfg.get("scale", 2.0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"run.x0.seed must be an integer, got {seed!r}")
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
            raise ConfigError(f"run.x0.scale must be a real number, got {scale!r}")
        try:
            scale = float(scale)
        except OverflowError:
            raise ConfigError("run.x0.scale must be finite, got an integer too large "
                              "for a float") from None
        if not np.isfinite(scale):
            raise ConfigError(f"run.x0.scale must be finite, got {scale}")
        rng = np.random.Generator(np.random.PCG64(seed))
        x0 = scale * rng.standard_normal(spec.n)
        return _into_box(x0, spec)
    if not isinstance(x0_cfg, list):
        raise ConfigError(
            f"run.x0 must be a list of {spec.n} numbers or an object with "
            f"seed/scale, got {type(x0_cfg).__name__}")
    try:
        x0 = np.asarray(x0_cfg, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"run.x0 entries must be numbers: {exc}") from exc
    if x0.shape != (spec.n,):
        raise ConfigError(
            f"run.x0 must be a list of {spec.n} numbers or an object with "
            f"seed/scale, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ConfigError("run.x0 has non-finite entries")
    return x0


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def write_trace_csv(path, trace: SolveTrace, m: int, n: int) -> None:
    """Trace rows k,t,theta,dnorm,gap,F_1..F_m,x_1..x_n with exact floats."""
    header = (["k", "t", "theta", "dnorm", "gap"]
              + [f"F_{i + 1}" for i in range(m)]
              + [f"x_{j + 1}" for j in range(n)])
    # Overwrite in place and cut the old tail afterwards rather than opening
    # with "w": ext4 (auto_da_alloc) flushes a file truncated to zero when it
    # is closed, which took 50-170 ms per rewrite of a few-kB trace.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trace.records:
            row = ([str(rec.k), _fmt(rec.step), _fmt(rec.theta),
                    _fmt(rec.direction_norm), _fmt(rec.gap)]
                   + [_fmt(v) for v in rec.objectives]
                   + [_fmt(v) for v in rec.x])
            writer.writerow(row)
        fh.truncate()


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into a dict of arrays keyed by column name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = {}
    for j, name in enumerate(header):
        col = [row[j] for row in rows]
        if name == "k":
            out[name] = np.array([int(v) for v in col])
        else:
            out[name] = np.array([float(v) for v in col])
    return out


def cmd_solve(cfg: dict, out_dir: Path, seed_override=None) -> int:
    spec = build_instance_spec(cfg, seed_override)
    problem = generate_instance(spec)
    solver_cfg = build_solver_config(cfg, default_ell=problem.lip_grad)
    x0 = derive_x0(cfg, spec)
    trace = solve(problem, solver_cfg, x0)
    out_path = out_dir / cfg.get("run", {}).get("trace_csv", "trace.csv")
    write_trace_csv(out_path, trace, problem.m, problem.n)
    final = trace.records[-1]
    print(f"status={trace.status.value} iters={trace.steps_taken} snaps={trace.snaps} "
          f"passes={trace.passes} halvings={trace.halvings} "
          f"dnorm={_fmt(final.direction_norm)} trace={out_path}")
    if trace.message:
        print(f"note: {trace.message}")
    return _STATUS_EXIT[trace.status]


def _bench_cell(cfg: dict, spec: InstanceSpec, problem, x0, variant: str) -> dict:
    cell_cfg = build_solver_config(cfg, overrides={"variant": variant},
                                   default_ell=problem.lip_grad)
    start = time.perf_counter()
    trace = solve(problem, cell_cfg, x0)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    last_dir = next((r for r in reversed(trace.records)
                     if np.isfinite(r.direction_norm)), trace.records[-1])
    return {
        "family": spec.family,
        "cond": spec.cond,
        "seed": spec.seed,
        "solver": variant,
        "status": trace.status,
        "iters": trace.steps_taken,
        "snaps": trace.snaps,
        "passes": trace.passes,
        "final_dnorm": last_dir.direction_norm,
        "wall_ms": wall_ms,
    }


def cmd_bench(cfg: dict, out_dir: Path, seed_override=None) -> int:
    base = build_instance_spec(cfg, seed_override)
    sweep = cfg.get("run", {}).get("sweep")
    if not sweep:
        raise ConfigError("missing required key run.sweep for bench")
    conds = sweep.get("cond", [base.cond])
    seeds = sweep.get("seeds", [base.seed])
    if not isinstance(conds, list) or not conds:
        raise ConfigError("run.sweep.cond must be a nonempty list")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("run.sweep.seeds must be a nonempty list")
    # every spec is validated, uncoerced, before any cell is solved
    try:
        specs = [dataclasses.replace(base, cond=cond, seed=seed)
                 for cond in conds for seed in seeds]
    except ConfigError as exc:
        raise _within(exc, "run.sweep") from exc
    rows = []
    for spec in specs:
        problem = generate_instance(spec)
        x0 = derive_x0(cfg, spec)
        for variant in (VARIANT_NEWTON, VARIANT_GRADIENT):
            rows.append(_bench_cell(cfg, spec, problem, x0, variant))
    rows.sort(key=lambda r: (r["family"], r["cond"], r["seed"], r["solver"]))
    out_path = out_dir / cfg.get("run", {}).get("trace_csv", "bench.csv")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "cond", "seed", "solver", "status", "iters", "snaps",
                         "passes", "final_dnorm", "wall_ms"])
        for row in rows:
            writer.writerow([row["family"], _fmt(row["cond"]), str(row["seed"]),
                             row["solver"], row["status"].value, str(row["iters"]),
                             str(row["snaps"]), str(row["passes"]),
                             _fmt(row["final_dnorm"]), _fmt(row["wall_ms"])])
    print(f"bench cells={len(rows)} table={out_path}")
    # the worst cell decides: any failure beats any iteration cap
    return max(_STATUS_EXIT[row["status"]] for row in rows)


def run_checks(cfg: dict, seed_override=None) -> list:
    """Run the named diagnostic checks and return their verdicts."""
    names = cfg.get("checks", {}).get("names")
    if not names:
        raise ConfigError("missing required key checks.names")
    if not isinstance(names, list):
        raise ConfigError("checks.names must be a list")
    for name in names:
        if name not in CHECK_NAMES:
            raise ConfigError(
                f"unknown check name {name!r}; known: {', '.join(CHECK_NAMES)}")
    spec = build_instance_spec(cfg, seed_override)
    problem = generate_instance(spec)
    solver_cfg = build_solver_config(cfg, default_ell=problem.lip_grad)
    verdicts = []

    trace = None
    x_star = None

    def shared_trace() -> SolveTrace:
        nonlocal trace
        if trace is None:
            trace = solve(problem, solver_cfg, derive_x0(cfg, spec))
        return trace

    def shared_reference() -> np.ndarray:
        nonlocal x_star
        tr = shared_trace()
        if x_star is None:
            if tr.status is not Status.CRITICAL_REACHED:
                raise ConvergenceError(
                    f"check needs a converged run, got status {tr.status.value}")
            x_star = refine_reference(problem, tr.final_x,
                                      eps=min(1e-13, solver_cfg.eps))
        return x_star

    for name in names:
        if name == "quadratic_termination":
            rng = np.random.Generator(np.random.PCG64(spec.seed + 2000))
            batch = [_into_box(2.0 * rng.standard_normal(spec.n), spec) for _ in range(10)]
            verdicts.append(check_quadratic_termination(problem, solver_cfg, batch))
        elif name == "descent_bound":
            verdicts.append(check_descent_bound(shared_trace(), problem.mu))
        elif name == "order_fit":
            try:
                ref = shared_reference()
                errors = iterate_errors(shared_trace(), ref)
                floor = 1e-13 * (1.0 + float(np.linalg.norm(ref)))
                q, c_fit = estimate_order(errors, noise_floor=floor)
                verdicts.append(Verdict(
                    name="order_fit", passed=q >= 1.5, margin=q - 1.5,
                    detail=f"q={q:.3f} constant={c_fit:.3e}"))
            except (InsufficientDataError, ConvergenceError) as exc:
                verdicts.append(Verdict(name="order_fit", passed=False,
                                        margin=float("-inf"), detail=str(exc)))
        elif name == "tau_bracket":
            try:
                ref = shared_reference()
                eps = (1.0 - solver_cfg.sigma) * problem.mu
                verdicts.extend(tau_check(shared_trace(), ref, problem.mu, eps))
            except ConvergenceError as exc:
                verdicts.append(Verdict(name="tau_bracket", passed=False,
                                        margin=float("-inf"), detail=str(exc)))
        elif name == "fundamental_ineq_quadratic":
            tr = shared_trace()
            rng = np.random.Generator(np.random.PCG64(spec.seed + 3000))
            center = tr.final_x if np.all(np.isfinite(tr.final_x)) else np.zeros(problem.n)
            probes = center + rng.standard_normal((20, problem.n))
            verdicts.append(check_fundamental_inequality_quadratic(tr, problem, probes))
    return verdicts


def cmd_check(cfg: dict, out_dir: Path, seed_override=None) -> int:
    verdicts = run_checks(cfg, seed_override)
    lines = []
    for v in verdicts:
        state = "PASS" if v.passed else "FAIL"
        if not v.applicable:
            state = "SKIP"
        lines.append(f"{v.name}: {state} margin={_fmt(v.margin)} {v.detail}".rstrip())
    report = "\n".join(lines) + "\n"
    out_path = out_dir / "checks.txt"
    out_path.write_text(report)
    sys.stdout.write(report)
    print(f"report={out_path}")
    failed = [v for v in verdicts if v.applicable and not v.passed]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="moprox",
        description="Multiobjective composite optimization solver and diagnostics")
    parser.add_argument("verb", choices=["solve", "bench", "check"])
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="replace the instance seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = load_config(args.config)
        if args.verb == "solve":
            return cmd_solve(cfg, out_dir, args.seed_override)
        if args.verb == "bench":
            return cmd_bench(cfg, out_dir, args.seed_override)
        return cmd_check(cfg, out_dir, args.seed_override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MoproxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
