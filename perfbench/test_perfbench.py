"""Self-tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They cover the tail-percentile rule, self-time arithmetic, generator
determinism per seed and failure counting; none of them times anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_eleventh_largest_at_its_percentile(self):
        pct, value = metrics.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        # exactly ten samples lie above the reported value
        self.assertEqual(sum(1 for v in range(1, 101) if v > value), 10)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(metrics.tail(values), metrics.tail(sorted(values)))
        self.assertEqual(metrics.tail(values), (100.0 * 2 / 12, 1.0))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        self.assertEqual(metrics.tail([1.0] * 10), (100.0, 1.0))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        names = ["root", "a", "b"]
        # root [0, 10] holds a [1, 4] and b [5, 6]; a holds b [2, 3]
        name_of = [0, 1, 2, 2]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 6.0]
        parent = [-1, 0, 1, 0]
        times = tracer.span_times(names, name_of, start, end, parent)
        self.assertEqual(times["root"], (1, 10.0, 6.0))
        self.assertEqual(times["a"], (1, 3.0, 2.0))
        self.assertEqual(times["b"], (2, 2.0, 2.0))
        # self times add up to the root's duration
        self.assertEqual(sum(v[2] for v in times.values()), 10.0)

    def test_wrappers_nest_and_recursion_collapses(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def leaf(n):
            clock.t += 1.0
            return n if n == 0 else wrapped_leaf(n - 1)

        wrapped_leaf = tracer.span_wrapper(tr, leaf, "m.leaf", nodes="m.nodes")

        def outer():
            clock.t += 2.0
            return wrapped_leaf(2)

        wrapped_outer = tracer.span_wrapper(tr, outer, "m.outer")
        tr.active = True
        self.assertEqual(wrapped_outer(), 0)
        times = tr.span_times()
        self.assertEqual(times["m.outer"], (1, 5.0, 2.0))
        self.assertEqual(times["m.leaf"], (1, 3.0, 3.0))
        self.assertEqual(tr.counts["m.leaf.calls"], 1)
        self.assertEqual(tr.counts["m.nodes"], 3)

    def test_paused_bookkeeping_leaves_spans(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def work():
            clock.t += 1.0
            with tr.paused():
                clock.t += 5.0
            return 1

        wrapped = tracer.span_wrapper(tr, work, "m.work")
        tr.active = True
        wrapped()
        self.assertEqual(tr.span_times()["m.work"], (1, 1.0, 1.0))
        self.assertEqual(tr.paused_s, 5.0)

    def test_inactive_tracer_records_nothing(self):
        tr = tracer.Tracer()
        wrapped = tracer.span_wrapper(tr, lambda: 7, "m.f")
        self.assertEqual(wrapped(), 7)
        self.assertEqual(len(tr.start), 0)
        self.assertEqual(dict(tr.counts), {})

    def test_spans_round_trip_through_the_file(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)
        def tick():
            clock.t += 1.0

        f = tracer.span_wrapper(tr, tick, "m.f")
        tr.active = True
        for _ in range(3):
            f()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin.gz")
            tr.write(path)
            back = tracer.read_spans(path)
        self.assertEqual(tracer.span_times(*back), tr.span_times())

    def test_tree_size_counts_shared_subtrees_once(self):
        e = workloads.exprdsl.parse("sin(x)")
        shared = workloads.exprdsl.Add(e, e)
        self.assertEqual(tracer.tree_size(shared), (5, 3))


class Install(unittest.TestCase):
    """Wrapping the real package, with every binding restored afterwards."""

    def setUp(self):
        mods = [m for n, m in sys.modules.items()
                if n == "oscdeform" or n.startswith("oscdeform.")]
        import scipy.integrate
        mods.append(scipy.integrate)
        self.saved = [(m, dict(vars(m))) for m in mods]
        self.suites = dict(workloads.verify.SUITES)
        self.classes = [(c, dict(c.__dict__)) for c in (
            workloads.deform.DeformedOscillator,
            workloads.numerics.CumulativeIntegral)]

    def tearDown(self):
        for m, saved in self.saved:
            for k, v in saved.items():
                setattr(m, k, v)
        workloads.verify.SUITES.update(self.suites)
        for c, saved in self.classes:
            for k in ("__init__", "__call__"):
                if k in saved:
                    setattr(c, k, saved[k])

    def test_every_binding_is_wrapped_and_counts(self):
        tr = tracer.Tracer()
        absent = tracer.install(tr)
        self.assertEqual(absent, [])
        ex = workloads.exprdsl
        self.assertIs(workloads.deform.evaluate, ex.evaluate)
        self.assertIs(workloads.apps.find_root, workloads.numerics.find_root)
        tr.active = True
        self.assertEqual(ex.evaluate(ex.parse("x*(x + 1)"), {"x": 2.0}), 6.0)
        self.assertEqual(tr.counts["exprdsl.evaluate.calls"], 1)
        self.assertEqual(tr.counts["exprdsl.evaluate.nodes"], 5)
        root = workloads.numerics.find_root(lambda z: z - 0.25, 0.0, 1.0)
        self.assertAlmostEqual(root, 0.25)
        self.assertGreater(tr.counts["numerics.find_root.f_evals"], 0)

    def test_a_missing_boundary_is_reported_absent(self):
        del workloads.deform._pole_transit
        tr = tracer.Tracer()
        absent = tracer.install(tr)
        self.assertEqual(absent, ["deform._pole_transit"])
        values, missing = metrics.layer_metrics({}, {}, set(absent))
        self.assertIn("deform._pole_transit.calls", missing)
        self.assertEqual(values["deform._pole_transit.calls"], 0)


class Generators(unittest.TestCase):
    def first(self, workload, seed, rounds=2):
        out = []
        for task in workloads.stream(workload, seed):
            if task.round >= rounds:
                break
            out.append((task.kind, task.inputs))
        return out

    def test_same_seed_same_tasks_in_the_same_order(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(self.first(w, 7), self.first(w, 7), w)

    def test_seed_changes_the_inputs_but_not_the_mix(self):
        for w in ("pole-march", "closed-form", "derive"):
            a, b = self.first(w, 7), self.first(w, 8)
            self.assertNotEqual(a, b, w)
            self.assertEqual([k for k, _ in a], [k for k, _ in b], w)

    def test_verify_all_ignores_the_seed(self):
        self.assertEqual(self.first("verify-all", 1),
                         self.first("verify-all", 2))

    def test_rounds_after_the_first_have_one_mix(self):
        for w in workloads.WORKLOADS:
            rounds = {}
            for task in workloads.stream(w, 3):
                if task.round >= 3:
                    break
                rounds.setdefault(task.round, []).append(task.kind)
            self.assertEqual(rounds[1], rounds[2], w)


class FailureCounting(unittest.TestCase):
    def task(self, kind, run, check, rnd=0):
        return workloads.Task(kind, rnd, (), run, check, lambda r: [r])

    def boom(self, *_):
        raise ValueError("boom")

    def run_all(self, tasks, check=True):
        return worker.run_tasks(iter(tasks), 1, check=check,
                                kernel=lambda: None)

    def test_raising_missing_and_nonfinite_all_count(self):
        tasks = [
            self.task("ok", lambda: 1.0, lambda r: (0.5, 1.0)),
            self.task("raises", self.boom, lambda r: (0.0, 1.0)),
            self.task("misses", lambda: 1.0, lambda r: (2.0, 1.0)),
            self.task("oracle-raises", lambda: 1.0, self.boom),
            self.task("nan", lambda: 1.0, lambda r: (math.nan, 1.0)),
            self.task("at-threshold", lambda: 1.0, lambda r: (1.0, 1.0)),
            self.task("next-round", lambda: 1.0, lambda r: (0.0, 1.0), 1),
        ]
        records, _, kernels = self.run_all(tasks)
        self.assertEqual(metrics.fail_counts(records), (6, 4))
        self.assertEqual([r["ok"] for r in records],
                         [True, False, False, False, False, True])
        self.assertIn("boom", records[1]["error"])
        self.assertEqual([p for p, _ in kernels], [0, 6])

    def test_a_nan_error_fails_its_oracle(self):
        self.assertEqual(workloads.worst([-0.3, 0.1]), 0.3)
        self.assertEqual(workloads.worst([]), 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            self.assertEqual(workloads.worst([0.0, bad, 0.0]), math.inf)
        tasks = [self.task("nan-error", lambda: 1.0,
                           lambda r: (workloads.worst([0.0, math.nan]), 1e-6))]
        records, _, _ = self.run_all(tasks)
        self.assertEqual(metrics.fail_counts(records), (1, 1))

    def test_digest_renders_floats_with_17_digits(self):
        tasks = [self.task("a", lambda: 0.1, lambda r: (0.0, 1.0))]
        _, digest, _ = self.run_all(tasks, check=False)
        self.assertEqual(digest, hashlib.sha256(b"0.10000000000000001\n")
                         .hexdigest())


class ColdImport(unittest.TestCase):
    def test_worker_loads_no_numpy_before_the_timed_import(self):
        code = ("import sys; sys.path.insert(0, %r); import worker; "
                "print(','.join(worker.loaded_before_import()))" % HERE)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        self.assertEqual(out.strip(), "")


class ReferenceSpeed(unittest.TestCase):
    def test_each_task_uses_the_kernels_around_it(self):
        kernels = [(0, 1.0), (3, 2.0), (5, 3.0), (8, 4.0)]
        self.assertEqual(metrics.local_kernel_s(kernels, 8),
                         [2.0, 2.0, 2.0, 2.5, 2.5, 3.0, 3.0, 3.0])

    def test_kernels_inside_a_task_count_for_it_alone(self):
        kernels = [(0, 1.0)] + [(0.5, 5.0)] * 5 + [(1, 2.0), (2, 3.0)]
        self.assertEqual(metrics.local_kernel_s(kernels, 2), [5.0, 3.0])

    def test_a_long_task_runs_kernels_inside_and_excludes_them(self):
        def busy(seconds):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < seconds:
                pass

        task = workloads.Task("long", 0, (), lambda: busy(0.1),
                              lambda r: (0.0, 1.0), lambda r: [])
        records, _, kernels = worker.run_tasks(
            iter([task]), 1, kernel=lambda: busy(0.005))
        inside = [s for p, s in kernels if p == 0.5]
        self.assertGreaterEqual(len(inside), 3)
        self.assertEqual([p for p, _ in kernels if p != 0.5], [0, 1])
        # the task's own time plus the kernels inside it is its wall time
        wall = records[0]["s"] + sum(inside)
        self.assertGreaterEqual(wall, 0.1)
        self.assertLess(wall, 0.1 + 0.005 + 0.003)

    def test_a_slower_machine_scales_back(self):
        ref = metrics.KERNEL_REF_S
        self.assertEqual(metrics.at_reference_speed(3.0, ref), 3.0)
        self.assertEqual(metrics.at_reference_speed(3.0, 1.5 * ref), 2.0)

    def test_each_cold_start_uses_the_reference_start_next_to_it(self):
        ref = metrics.START_REF_S
        starts = [(1.0, ref), (3.0, 2.0 * ref), (9.0, 0.5 * ref)]
        self.assertAlmostEqual(metrics.setup_at_reference_speed(starts), 1.5)


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        root = os.path.dirname(HERE)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual(list(run.ROUND_S), list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
