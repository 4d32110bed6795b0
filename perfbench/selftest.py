"""Self-tests for the benchmark's own arithmetic and input generation.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import spans as sp  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402


def _span(name, start, end, parent=None, rid=None):
    return sp.Span(name, start, end, parent, rid)


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [
            _span("call", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("b", 5.0, 6.0, parent=0),
            _span("b.inner", 5.2, 5.7, parent=2),
        ]
        self.assertEqual(
            [round(v, 9) for v in sp.self_times(spans)], [6.0, 3.0, 0.5, 0.5]
        )
        self.assertAlmostEqual(sp.self_time_by_name(spans)["call"], 6.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span("p", 0.0, 2.0), _span("c", 1.5, 3.0, parent=0)]
        self.assertAlmostEqual(sp.self_times(spans)[0], 1.5)

    def test_self_times_sum_to_root_duration(self):
        rec = sp.Recorder(True)
        with rec.span("root", rid=7):
            with rec.span("x"):
                with rec.span("y"):
                    pass
            with rec.span("z"):
                pass
        self.assertEqual([s.parent for s in rec.spans], [None, 0, 1, 0])
        self.assertEqual({s.rid for s in rec.spans}, {7})
        self.assertAlmostEqual(sum(sp.self_times(rec.spans)), rec.spans[0].duration)

    def test_disabled_recorder_records_nothing(self):
        rec = sp.Recorder(False)
        with rec.span("root"):
            pass
        rec.add("r", 0.0, 1.0)
        self.assertEqual(rec.spans, [])

    def test_wrapping_restores_and_names_by_argument(self):
        class Layer:
            @staticmethod
            def kernel(x, mode):
                return x * mode

        rec = sp.Recorder(True)
        original = Layer.kernel
        with rec.wrapping(Layer, "kernel", lambda x, mode: f"k.m{mode}"):
            self.assertEqual(Layer.kernel(3, 2), 6)
        self.assertIs(Layer.kernel, original)
        self.assertEqual([s.name for s in rec.spans], ["k.m2"])

    def test_in_span_share_counts_overlap_once(self):
        spans = [_span("a", 0.0, 4.0), _span("b", 2.0, 6.0), _span("c", 1.0, 2.0, parent=0)]
        self.assertAlmostEqual(sp.in_span_share(spans, 0.0, 10.0), 0.6)

    def test_child_time_per_parent(self):
        spans = [
            _span("op", 0.0, 10.0),
            _span("mid", 1.0, 9.0, parent=0),
            _span("read", 2.0, 3.0, parent=1),
            _span("op", 10.0, 12.0),
            _span("read", 10.5, 11.0, parent=3),
        ]
        self.assertEqual(sp.per_parent_child_time(spans, "op", "read"), [1.0, 0.5])


class TailTest(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(stats.tail([1.0] * 10))

    def test_ten_samples_beyond(self):
        values = list(np.random.default_rng(0).permutation(100).astype(float))
        value, percentile, count = stats.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual((value, percentile, count), (89.0, 90.0, 100))

    def test_percentile_rises_with_samples(self):
        _, p1, _ = stats.tail(list(range(1000)))
        _, p2, _ = stats.tail(list(range(20000)))
        self.assertEqual(p1, 99.0)
        self.assertEqual(p2, 99.95)


class GeneratorTest(unittest.TestCase):
    def test_cpd_tensor_is_a_function_of_the_seed(self):
        with mock.patch.object(wl, "CPD_NNZ", 20_000):
            a = wl.cpd_tensor(3)
            b = wl.cpd_tensor(3)
            c = wl.cpd_tensor(4)
        self.assertEqual(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])
        self.assertFalse(np.array_equal(a[1], c[1]))
        self.assertEqual(a[1].shape, (3, 20_000))
        keys = np.ravel_multi_index(tuple(a[1].astype(np.int64)), wl.CPD_SHAPE)
        self.assertEqual(np.unique(keys).size, 20_000)
        self.assertTrue(np.all(np.diff(keys) > 0))

    def test_mode0_is_skewed(self):
        with mock.patch.object(wl, "CPD_NNZ", 50_000):
            shape, indices, _ = wl.cpd_tensor(5)
        share = wl.tensor_facts(shape, indices)["largest_slice_share"]
        self.assertGreater(share[0], 0.10)
        self.assertLess(share[2], 0.01)

    def test_stream_and_small_tensors_are_functions_of_the_seed(self):
        self.assertEqual(wl.request_stream(1, 500), wl.request_stream(1, 500))
        self.assertNotEqual(wl.request_stream(1, 500), wl.request_stream(2, 500))
        a, b = wl.small_tensors(1), wl.small_tensors(1)
        for name in a:
            np.testing.assert_array_equal(a[name].indices, b[name].indices)
            np.testing.assert_array_equal(a[name].values, b[name].values)
        stream = wl.request_stream(1, 500)
        self.assertEqual({r["variant"] for r in stream}, {"auto"})


if __name__ == "__main__":
    unittest.main()
