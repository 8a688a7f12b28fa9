#!/usr/bin/env python3
"""Self-tests for the benchmark's statistics (perfbench/stats.py).

    python3 perfbench/test_stats.py

Covers the percentile rule, per-cell medians before sums, throughput as a
median over windows without the benchmark's own gaps, the host factor, the
geometric mean, the failure and drift ratios, self time from nested spans,
that the metrics printed for every workload carry exactly the names and
units listed in BENCHMARK.json, and the check of the documented fixed
parameters.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def span(sid, parent, name, start, end, op=-1):
    return [sid, parent, name, start, end, op]


class Spans:
    """Builds raw span records with fresh ids."""

    def __init__(self):
        self.rows = []

    def add(self, name, start, end, parent=0, op=-1):
        sid = len(self.rows) + 1
        self.rows.append(span(sid, parent, name, start, end, op))
        return sid


def raw_record(workload, cells, ops, spans=(), values=None, round_ops=None):
    """A raw record of sequential ops [cell, seconds, traced, id]; each op's
    completion time is filled in from the durations."""
    end, timed = 0.0, []
    for op in sorted(ops, key=lambda o: o[3]):
        end += op[1]
        timed.append(op + [end])
    return {"workload": workload, "cells": cells, "ops": timed,
            "spans": list(spans), "values": values or {},
            "setup_s": [1.0, 1.2, 1.1], "peak_rss_mb": 50.0,
            "reference_s": [stats.REFERENCE_NOMINAL_S] * 3, "gaps": [],
            "round_ops": round_ops or len(cells), "attempted": len(ops),
            "failed": 0, "errors": []}


def fake_table1():
    cells = ["g/mm/gm", "g/mm/rand-gm", "g/color/vb", "g/color/rand-vb",
             "g/mis/luby", "g/mis/rand"]
    ops, sp = [], Spans()
    t = 0
    for p in range(2):
        for c in range(len(cells)):
            op_id = p * len(cells) + c
            traced = (c + p) % 2 == 1
            ops.append([c, 0.01 * (c + 1), int(traced), op_id])
            if traced:
                root = sp.add("table1.cell", t, t + 100, op=op_id)
                sp.add("sched.prepare", t, t + 10, root, op_id)
                sp.add("sched.execute", t + 10, t + 80, root, op_id)
                sp.add("check.verify", t + 80, t + 100, root, op_id)
            t += 1000
    for name in ("core.bridge", "core.rand", "core.degk", "graph.generate"):
        sp.add(name, t, t + 5)
    values = {"matching.rounds": [10, 10], "mis.rounds": [4, 4],
              "coloring.rounds": [5, 6, 5], "parallel.t1_s": [3.0],
              "parallel.tn_s": [1.0]}
    return raw_record("table1", cells, ops, sp.rows, values)


def fake_serve():
    cells = ["read/g/mm/gm", "update/g", "metrics"]
    ops, sp = [], Spans()
    for i in range(40):
        cell = 0 if i // 2 % 5 else (1 if i // 2 % 10 else 2)
        traced = i % 2 == 1
        ops.append([cell, 0.001 * (1 + i / 40), int(traced), i])
        if traced:
            root = sp.add("serve.request", i * 100, i * 100 + 50, op=i)
            sp.add("serve.ttfb", i * 100, i * 100 + 40, root, i)
            sp.add("serve.read", i * 100 + 40, i * 100 + 50, root, i)
            sp.add("serve.direct", i * 100 + 60, i * 100 + 70)
            sp.add("tune.auto_prepare", i * 100 + 70, i * 100 + 71)
    values = {"serve.resp_bytes": [100, 200], "serve.registry_hits": [9],
              "serve.registry_misses": [1]}
    return raw_record("serve-mixed", cells, ops, sp.rows, values)


def fake_dyn():
    cells = ["road/0.1%", "road/1%"]
    ops = [[i % 2, 0.002 + 0.001 * (i % 2), int(i % 4 >= 2), i]
           for i in range(8)]
    sp = Spans()
    for j, name in enumerate(("dyn.apply", "dyn.repair_mm",
                              "dyn.repair_color", "dyn.repair_mis")):
        sp.add(name, j * 10, j * 10 + 5)
    values = {"dyn.frontier": [10, 20], "dyn.repaired": [5, 5],
              "dyn.compact_ms": [50.0], "dyn.compactions": [1, 2],
              "dyn.heap_mb": [12.5]}
    return raw_record("dyn-stream", cells, ops, sp.rows, values)


def fake_file():
    cells = ["a.mtx/ooc-rand-gm/cold", "a.mtx/ooc-rand-gm/warm"]
    ops = [[i % 2, 0.1 + 0.05 * (i % 2), int(i % 4 >= 2), i]
           for i in range(8)]
    sp = Spans()
    for j, name in enumerate(("ingest.load_cold", "ingest.load_warm",
                              "ooc.plan", "ooc.run")):
        sp.add(name, j * 10, j * 10 + 5)
    values = {"ingest.parse_bytes": [1e6], "ooc.prefetch_hits": [3, 1],
              "ooc.prefetch_stalls": [1, 3], "ooc.moved_bytes": [2**20],
              "ooc.peak_over_budget": [0.5, 0.9]}
    return raw_record("file-ooc", cells, ops, sp.rows, values)


FAKES = {"table1": fake_table1, "serve-mixed": fake_serve,
         "dyn-stream": fake_dyn, "file-ooc": fake_file}


class PercentileRule(unittest.TestCase):
    def test_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(stats.percentile([0, 10], 99), 9.9)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_refuses_p99_below_1000_samples(self):
        self.assertIsNone(stats.tail_percentile(range(999)))
        self.assertAlmostEqual(stats.tail_percentile(range(1000)), 989.01)

    def test_p99_only_printed_with_enough_ops(self):
        few = raw_record("dyn-stream", ["c"],
                         [[0, 0.001, 0, i] for i in range(999)])
        many = raw_record("dyn-stream", ["c"],
                          [[0, 0.001, 0, i] for i in range(1000)])
        self.assertNotIn("p99_ms", stats.workload_detail(few))
        self.assertIn("p99_ms", stats.workload_detail(many))
        self.assertIn("p50_ms", stats.workload_detail(few))


class CellMediansThenSum(unittest.TestCase):
    def test_median_per_cell_before_sum(self):
        cells = ["g/mm/gm", "g/mm/rand-gm", "g/mis/luby"]
        # An outlier in one pass moves a mean but not the cell's median.
        ops = [[0, 1.0, 0, 0], [0, 9.0, 0, 1], [0, 1.2, 0, 2],
               [1, 2.0, 0, 3], [1, 2.0, 0, 4], [1, 2.2, 0, 5],
               [2, 5.0, 0, 6], [2, 4.0, 0, 7], [2, 6.0, 0, 8]]
        medians = stats.cell_medians(ops)
        self.assertEqual(medians, {0: 1.2, 1: 2.0, 2: 5.0})
        mm = stats.row_total(medians, cells,
                             lambda n: n.split("/")[1] == "mm")
        self.assertAlmostEqual(mm, 3.2)

    def test_pass_time_from_medians(self):
        cells = ["g/mm/gm", "g/mis/luby"]
        ops = [[0, 1.0, 0, 0], [1, 3.0, 0, 1], [0, 2.0, 0, 2],
               [1, 3.0, 0, 3], [0, 1.0, 0, 4], [1, 30.0, 0, 5]]
        e2e = stats.end_to_end(raw_record("table1", cells, ops))
        self.assertAlmostEqual(e2e["pass_s"][0], 1.0 + 3.0)
        detail = stats.workload_detail(raw_record("table1", cells, ops))
        self.assertAlmostEqual(detail["mm_s"][0], 1.0)
        self.assertAlmostEqual(detail["mis_s"][0], 3.0)

    def test_single_pass_weights_cells_by_count(self):
        ops = [[0, 1.0, 0, 0], [0, 1.0, 0, 1], [1, 4.0, 0, 2]]
        e2e = stats.end_to_end(raw_record("serve-mixed", ["a", "b"], ops,
                                          round_ops=3))
        self.assertAlmostEqual(e2e["pass_s"][0], 6.0)
        self.assertAlmostEqual(e2e["ops_per_s"][0], 0.5)


class Throughput(unittest.TestCase):
    def test_median_over_windows_of_whole_rounds(self):
        # 16 rounds of 2 ops at 1 s each, except rounds 4-5 at 10 s per op.
        ends, t = [], 0.0
        for r in range(16):
            for _ in range(2):
                t += 10.0 if r in (4, 5) else 1.0
                ends.append(t)
        # 8 windows of 2 rounds: one slow window does not move the median.
        self.assertAlmostEqual(stats.windowed_throughput(ends, 2), 1.0)
        # A mean over the whole run would.
        self.assertLess(len(ends) / ends[-1], 0.5)

    def test_gaps_are_left_out(self):
        # 8 rounds of one 1 s op; a 3 s reference sample before op 5.
        ends = [1.0, 2.0, 3.0, 4.0, 8.0, 9.0, 10.0, 11.0]
        self.assertAlmostEqual(stats.windowed_throughput(
            ends, 1, gaps=[(4.0, 7.0)], windows=2), 1.0)
        self.assertLess(stats.windowed_throughput(ends, 1, windows=2), 0.9)
        self.assertAlmostEqual(stats.overlap(0, 10, [(-1, 1), (9, 12)]), 2)

    def test_windows_hold_whole_rounds(self):
        ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]  # 3 rounds of 2, 1 spare
        self.assertAlmostEqual(stats.windowed_throughput(ends, 2), 1.0)
        with self.assertRaises(ValueError):
            stats.windowed_throughput([1.0], 2)


class HostFactor(unittest.TestCase):
    def test_timings_are_reported_at_nominal_speed(self):
        cells = ["g/mm/gm"]
        ops = [[0, 1.0, 0, i] for i in range(4)]
        fast = raw_record("table1", cells, ops)
        slow = raw_record("table1", cells, [[0, 2.0, 0, i] for i in range(4)])
        slow["setup_s"] = [2 * x for x in slow["setup_s"]]
        # The host ran at half speed: the kernel took twice its nominal time
        # (medians, so one wild sample does not count).
        slow["reference_s"] = [2 * stats.REFERENCE_NOMINAL_S] * 2 + [1.0]
        a, b = stats.end_to_end(fast), stats.end_to_end(slow)
        for name in ("setup_s", "ops_per_s", "pass_s", "cell_geomean_ms"):
            self.assertAlmostEqual(a[name][0], b[name][0], msg=name)
        self.assertEqual(stats.workload_detail(slow)["host_factor"][0], 2.0)


class Ratios(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10)
        self.assertAlmostEqual(stats.geomean([4]), 4)
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])

    def test_fail_ratio(self):
        self.assertEqual(stats.fail_ratio(0, 10), 0)
        self.assertEqual(stats.fail_ratio(1, 4), 0.25)
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)

    def test_drift_ratio(self):
        xs = [1.0] * 10 + [5.0] * 80 + [3.0] * 10
        self.assertAlmostEqual(stats.drift_ratio(xs), 3.0)
        with self.assertRaises(ValueError):
            stats.drift_ratio([1.0] * 9)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        sp = [span(1, 0, "root", 0, 100),
              span(2, 1, "a", 10, 30), span(3, 1, "b", 20, 50),
              span(4, 1, "c", 60, 70),
              span(5, 2, "grandchild", 12, 28)]
        st = stats.self_times(sp)
        # Children cover [10, 50) and [60, 70): 50 ns of the root's 100.
        self.assertAlmostEqual(st[1], 50e-9)
        self.assertAlmostEqual(st[2], 4e-9)  # 20 minus the grandchild's 16
        self.assertAlmostEqual(st[3], 30e-9)
        self.assertAlmostEqual(st[5], 16e-9)

    def test_children_are_clipped_to_the_parent(self):
        st = stats.self_times([span(1, 0, "root", 10, 20),
                               span(2, 1, "late", 15, 40)])
        self.assertAlmostEqual(st[1], 5e-9)

    def test_span_self_filters_by_op(self):
        raw = {"spans": [span(1, 0, "x", 0, 10, 3), span(2, 0, "x", 0, 20, 4),
                         span(3, 0, "y", 0, 30, 3)]}
        self.assertEqual(len(stats.span_self(raw, "x")), 2)
        self.assertAlmostEqual(stats.span_self(raw, "x", {4})[0], 20e-9)


class MetricNamesMatchSpec(unittest.TestCase):
    def test_end_to_end_for_every_workload(self):
        self.assertEqual(sorted(FAKES),
                         sorted(w["name"] for w in SPEC["workloads"]))
        for workload, fake in FAKES.items():
            metrics = stats.end_to_end(fake())
            self.assertEqual(
                stats.check_against_spec(metrics, SPEC["end_to_end"]), [],
                workload)

    def test_per_layer(self):
        metrics = stats.per_layer({w: fake() for w, fake in FAKES.items()})
        self.assertEqual(
            stats.check_against_spec(metrics, SPEC["per_layer"]), [])

    def test_workload_notes_cover_the_spec(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            notes = json.load(f)
        self.assertEqual(sorted(notes["workloads"]),
                         sorted(w["name"] for w in SPEC["workloads"]))
        self.assertEqual(sorted(notes["per_layer"]),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        self.assertEqual(sorted(notes["common"]["end_to_end"]),
                         sorted(m["name"] for m in SPEC["end_to_end"]))

    def test_spec_mismatches_are_reported(self):
        spec = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
        problems = stats.check_against_spec(
            {"a": (1.0, "ms"), "c": (2.0, "s")}, spec)
        self.assertEqual(len(problems), 3)


class DocumentedParameters(unittest.TestCase):
    DOC = {"rounds": 12, "fractions": [0.001, 0.01], "verify": False,
           "graphs": ["a", "b"], "why": "text"}

    def test_reported_constants_match_the_numbers(self):
        self.assertEqual(stats.check_params(
            {"rounds": 12, "fractions": [0.001, 0.01]}, self.DOC), [])

    def test_drift_either_way_is_reported(self):
        self.assertEqual(len(stats.check_params(
            {"rounds": 28, "fractions": [0.001, 0.01]}, self.DOC)), 1)
        self.assertEqual(len(stats.check_params({"rounds": 12}, self.DOC)), 1)
        self.assertEqual(len(stats.check_params(
            {"rounds": 12, "fractions": [0.001, 0.01], "extra": 1},
            self.DOC)), 1)


if __name__ == "__main__":
    unittest.main()
