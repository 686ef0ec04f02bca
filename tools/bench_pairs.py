"""Compare a parent revision with this checkout by alternating benchmark pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload grad_smooth \
        --pairs 10 --seconds 10 --seed 1

REV is checked out by `git worktree add` into a temporary directory, which
is removed at exit. The comparison is refused when the files of perfbench/
or BENCHMARK.json differ between that checkout and this one, committed or
not: both sides must run the same benchmark. Each pair then runs the
benchmark command of BENCHMARK.json once per side (--trace 0, the given
--workload, --seed and --seconds), the parent first in odd pairs and this
checkout first in even ones, one run at a time.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles (linear interpolation between order statistics), the ratio
of the medians, and how many pairs this checkout won, tied and lost by the
metric's `better` direction. The last column says whether a gain could be
claimed: there were at least ten pairs (MIN_PAIRS), this checkout won at
least nine tenths of them, and the medians differ by more than the
parent's interquartile range. So a run of fewer pairs, such as a one-pair
smoke run, prints `no` in every row. Page faults per pool pass come from
tools/pool_pass.py, not from here.

run_once is the one test of a benchmark run, which tools/bench_record.py
shares: a run passes when its last output line is a result with
"correct": true and no failed jobs, and the process exits 0.

Exit codes: 0 summary printed, 1 a run gave no result, was not correct or
had failed jobs, 2 usage error, the benchmark differs, or git failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from gitrev import ROOT, checkout

BENCHMARK = "BENCHMARK.json"
BENCH_DIR = "perfbench"
SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs than this claim no gain


class RunFailed(Exception):
    """A benchmark run gave no result, or an incorrect one."""


def quartiles(values) -> tuple:
    """(q1, median, q3) of values, interpolated linearly between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        return xs[lo] if lo == pos else xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo])

    return at(0.25), at(0.5), at(0.75)


def summarize(end_to_end: list, pairs: list) -> list:
    """One row per end-to-end metric over the pairs' results.

    end_to_end is BENCHMARK.json's list of {"name", "better", ...}; pairs
    holds one {"parent": result, "change": result} per pair, each result
    the benchmark's last output line as parsed JSON. A row holds the name,
    the better direction, each side's (q1, median, q3), the change's wins,
    ties and losses over the pairs, and whether a gain can be claimed.
    """
    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = ties = 0
        for parent, change in zip(values["parent"], values["change"]):
            ties += change == parent
            wins += change > parent if higher else change < parent
        q = {side: quartiles(values[side]) for side in SIDES}
        gap = q["change"][1] - q["parent"][1]
        gain = (len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs)
                and (gap if higher else -gap) > 0
                and abs(gap) > q["parent"][2] - q["parent"][0])
        rows.append({"name": name, "better": spec["better"], "parent": q["parent"],
                     "change": q["change"], "wins": wins, "ties": ties,
                     "losses": len(pairs) - wins - ties, "gain": gain})
    return rows


def format_rows(rows: list) -> list:
    """The summary table's lines, header first."""
    def spread(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<14} {'better':<7} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'change/parent':>13}  win/tie/loss  gain"]
    for r in rows:
        ratio = r["change"][1] / r["parent"][1] if r["parent"][1] else float("nan")
        lines.append(f"{r['name']:<14} {r['better']:<7} {spread(r['parent']):<30} "
                     f"{spread(r['change']):<30} {ratio:>13.4f}  "
                     f"{r['wins']:>3}/{r['ties']}/{r['losses']:<6}  "
                     f"{'yes' if r['gain'] else 'no'}")
    return lines


def benchmark_files(root: Path) -> dict:
    """Relative path -> bytes of BENCHMARK.json and of every file under perfbench/.

    A file that is absent has no entry.
    """
    files = {}
    for path in [root / BENCHMARK, *sorted((root / BENCH_DIR).rglob("*"))]:
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(root))] = path.read_bytes()
    return files


def differing(a: dict, b: dict) -> list:
    """The paths whose bytes differ between two benchmark_files maps, or that one lacks."""
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def load_benchmark() -> dict:
    """This checkout's BENCHMARK.json, parsed."""
    return json.loads((ROOT / BENCHMARK).read_text())


def run_once(command: list, cwd: Path, args: list) -> tuple:
    """One benchmark run in cwd: (its parsed result, its output). Raises RunFailed.

    The result is the last output line. The run passes when it exits 0 with
    "correct": true and no failed jobs; RunFailed's message names the exit
    code, correct and failed, or, when there is no result, gives the tail
    of the run's output.
    """
    proc = subprocess.run(command + args, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout).strip()[-2000:]
        raise RunFailed(f"no result (exit {proc.returncode}): {tail}") from None
    if proc.returncode != 0 or result.get("correct") is not True or result.get("failed"):
        raise RunFailed(f"exit {proc.returncode}, correct {result.get('correct')}, "
                        f"failed {result.get('failed')}")
    return result, proc.stdout


def compare(parent_dir: Path, command: list, end_to_end: list, args) -> list:
    """Run the pairs, printing each run's metrics; returns the pairs' results."""
    dirs = {"parent": parent_dir, "change": ROOT}
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0"]
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(command, dirs[side], bench_args)[0]
            figures = " ".join(f"{m['name']}={pair[side]['metrics'][m['name']]['value']:.4g}"
                               for m in end_to_end)
            print(f"pair {i + 1}/{args.pairs} {side}: {figures}", flush=True)
        pairs.append(pair)
    return pairs


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"bench_pairs: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        with checkout(args.parent) as (rev, parent_dir):
            changed = differing(benchmark_files(parent_dir), benchmark_files(ROOT))
            if changed:
                print(f"bench_pairs: the benchmark differs from {rev[:12]}, refusing to "
                      f"compare: {', '.join(changed)}", file=sys.stderr)
                return 2
            print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seed "
                  f"{args.seed}; parent {rev[:12]} against {ROOT}", flush=True)
            pairs = compare(parent_dir, bench["command"], bench["end_to_end"], args)
    except subprocess.CalledProcessError as exc:
        print(f"bench_pairs: git: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    except RunFailed as exc:
        print(f"bench_pairs: a run failed: {exc}", file=sys.stderr)
        return 1
    for line in format_rows(summarize(bench["end_to_end"], pairs)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
