"""tools/bench_pairs.py's summary, on canned benchmark results, and its runs, on
stand-in benchmarks; no benchmark runs."""

import json
import sys

import pytest

import bench_pairs

END_TO_END = [{"name": "solved_per_s", "better": "higher"},
              {"name": "solve_s_p50", "better": "lower"}]


def _result(solved, p50):
    """A benchmark's last output line, parsed, as perfbench/run.py prints it."""
    return {"correct": True, "attempted": 24, "failed": 0,
            "metrics": {"solved_per_s": {"value": solved, "unit": "1/s"},
                        "solve_s_p50": {"value": p50, "unit": "s"}}}


def _pairs(parent, change):
    return [{"parent": _result(*p), "change": _result(*c)} for p, c in zip(parent, change)]


def _row(rows, name):
    (row,) = [r for r in rows if r["name"] == name]
    return row


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([2.0, 1.0, 3.0]) == (1.5, 2.0, 2.5)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_consistent_gain_in_each_direction_is_claimed():
    # ten pairs: the change solves more per second and takes less time in
    # every one of them, by far more than the parent's spread
    parent = [(25.0 + 0.1 * i, 0.038 + 0.0001 * i) for i in range(10)]
    change = [(30.0 + 0.1 * i, 0.031 + 0.0001 * i) for i in range(10)]
    rows = bench_pairs.summarize(END_TO_END, _pairs(parent, change))
    for name in ("solved_per_s", "solve_s_p50"):
        row = _row(rows, name)
        assert (row["wins"], row["ties"], row["losses"]) == (10, 0, 0)
        assert row["gain"] is True
    row = _row(rows, "solved_per_s")
    assert row["better"] == "higher"
    assert row["parent"] == pytest.approx((25.225, 25.45, 25.675))
    assert row["change"] == pytest.approx((30.225, 30.45, 30.675))
    # nine of those pairs are too few to claim a gain: MIN_PAIRS is ten
    rows = bench_pairs.summarize(END_TO_END, _pairs(parent[:9], change[:9]))
    assert [(r["wins"], r["gain"]) for r in rows] == [(9, False)] * 2


def test_the_better_direction_decides_who_wins():
    # the change is higher on both metrics: a win for solved_per_s, a loss
    # for the time, where lower is better
    parent = [(25.0, 0.030)] * 3
    change = [(26.0, 0.031)] * 3
    rows = bench_pairs.summarize(END_TO_END, _pairs(parent, change))
    assert (_row(rows, "solved_per_s")["wins"], _row(rows, "solved_per_s")["losses"]) == (3, 0)
    assert (_row(rows, "solve_s_p50")["wins"], _row(rows, "solve_s_p50")["losses"]) == (0, 3)
    assert _row(rows, "solve_s_p50")["gain"] is False


def test_ties_count_for_neither_side():
    # eight wins and two ties of ten: short of nine tenths, so no gain
    parent = [(25.0, 0.03)] * 10
    change = [(30.0, 0.03)] * 8 + [(25.0, 0.03)] * 2
    row = _row(bench_pairs.summarize(END_TO_END, _pairs(parent, change)), "solved_per_s")
    assert (row["wins"], row["ties"], row["losses"]) == (8, 2, 0)
    assert row["gain"] is False
    nine = [(30.0, 0.03)] * 9 + [(25.0, 0.03)]
    row = _row(bench_pairs.summarize(END_TO_END, _pairs(parent, nine)), "solved_per_s")
    assert (row["wins"], row["ties"]) == (9, 1) and row["gain"] is True


def test_no_gain_when_the_medians_differ_by_less_than_the_parent_spread():
    # the change wins every pair, but its median is 0.5 above the parent's,
    # whose quartiles lie 2.25 apart
    parent = [(20.0 + i, 0.03) for i in range(10)]
    change = [(20.5 + i, 0.03) for i in range(10)]
    row = _row(bench_pairs.summarize(END_TO_END, _pairs(parent, change)), "solved_per_s")
    assert row["wins"] == 10
    assert row["parent"][2] - row["parent"][0] == pytest.approx(4.5)
    assert row["gain"] is False


def test_format_rows_prints_a_line_per_metric():
    # two pairs, each a clear win, are too few to claim a gain
    parent = [(25.0, 0.038)] * 2
    change = [(30.0, 0.031)] * 2
    lines = bench_pairs.format_rows(bench_pairs.summarize(END_TO_END, _pairs(parent, change)))
    assert len(lines) == 3 and lines[0].startswith("metric")
    assert lines[1].split()[:3] == ["solved_per_s", "higher", "25"]
    assert "1.2000" in lines[1] and lines[1].endswith("no")
    assert lines[2].startswith("solve_s_p50") and "0.8158" in lines[2]


def test_benchmark_files_that_differ_are_named(tmp_path):
    sides = []
    for name in ("a", "b"):
        root = tmp_path / name
        (root / "perfbench" / "__pycache__").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text("{}")
        (root / "perfbench" / "run.py").write_text("run")
        (root / "perfbench" / "__pycache__" / "run.pyc").write_text(name)
        sides.append(root)
    a, b = sides
    assert bench_pairs.differing(bench_pairs.benchmark_files(a),
                                 bench_pairs.benchmark_files(b)) == []
    (b / "perfbench" / "run.py").write_text("changed")
    (b / "perfbench" / "extra.py").write_text("new")
    (a / "BENCHMARK.json").unlink()
    assert bench_pairs.differing(bench_pairs.benchmark_files(a),
                                 bench_pairs.benchmark_files(b)) == [
        "BENCHMARK.json", "perfbench/extra.py", "perfbench/run.py"]


def _stand_in(tmp_path, body):
    """A stand-in benchmark command: python running body, a script in tmp_path."""
    script = tmp_path / "bench.py"
    script.write_text(body)
    return [sys.executable, str(script)]


def test_run_once_returns_the_last_lines_result(tmp_path):
    # and the whole output, where tools/bench_record.py reads the host figures
    result = _result(30.0, 0.03)
    command = _stand_in(tmp_path, f"import json\nprint('first line')\n"
                                  f"print(json.dumps({result!r}))\n")
    assert bench_pairs.run_once(command, tmp_path, []) == (
        result, f"first line\n{json.dumps(result)}\n")


@pytest.mark.parametrize("body, match", [
    ("print('no result line')\n", r"no result \(exit 0\)"),
    ("import json\nprint(json.dumps({**RESULT, 'correct': False}))\n",
     "exit 0, correct False, failed 0"),
    ("import json\nprint(json.dumps({**RESULT, 'failed': 2}))\n",
     "exit 0, correct True, failed 2"),
    ("import json, sys\nprint(json.dumps(RESULT))\nsys.exit(3)\n",
     "exit 3, correct True, failed 0"),
])
def test_run_once_raises_run_failed(tmp_path, body, match):
    # no result line, an incorrect result, failed jobs and a nonzero exit
    command = _stand_in(tmp_path, f"RESULT = {_result(30.0, 0.03)!r}\n{body}")
    with pytest.raises(bench_pairs.RunFailed, match=match):
        bench_pairs.run_once(command, tmp_path, [])
