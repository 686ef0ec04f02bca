"""tools/pool_pass.py: one timed pass of the newton_prox pool, in its own process,
and the table on canned figures."""

import subprocess
import sys
from pathlib import Path

import pool_pass

TOOL = Path(pool_pass.__file__)


def test_one_pass_of_newton_prox_prints_a_row_per_family_and_n():
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "newton_prox",
                           "--passes", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "newton_prox: 48 jobs, timed passes 1 after 1 warm-up"
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("quadratic_l1/10", "12"), ("quadratic_l1/50", "12"), ("quadratic_box/10", "12"),
        ("quadratic_box/50", "12"), ("total", "48")]
    for r in rows:  # one pass: the best is the median
        assert r[2] == r[3] and float(r[2]) > 0.0 and int(r[4]) >= 0
        # 48 jobs of two records each: a step, then the critical point
        assert int(r[5]) == 2 * int(r[1]) and float(r[6]) > 0.0


def test_an_unknown_workload_exits_2():
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "nope"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "pool_pass: unknown workload 'nope'\n"


def test_table_gives_best_and_median_per_key_and_the_total_per_pass():
    figures = {"logsumexp/100": ([0.3, 0.1, 0.2], [10, 30, 20], [125, 125, 125]),
               "quadratic/200": ([0.05, 0.07, 0.06], [1, 1, 4], [40, 40, 40])}
    lines = pool_pass.format_table(figures, {"logsumexp/100": 16, "quadratic/200": 16})
    assert lines[0].split()[-2:] == ["records/pass", "µs/record"]
    assert [line.split() for line in lines[1:]] == [
        ["logsumexp/100", "16", "0.1000", "0.2000", "20", "125", "800.0"],
        ["quadratic/200", "16", "0.0500", "0.0600", "1", "40", "1250.0"],
        ["total", "32", "0.1700", "0.2600", "24", "165", "1030.3"]]
