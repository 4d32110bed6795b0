"""Property tests for the segmented-reduction scatter engine.

The three scatter implementations (seed bincount, ``np.add.at``
reference, and plan-driven column ``reduceat``) must agree on every input,
including duplicate output rows, single-row outputs, and empty tensors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf import (
    build_mode_sort_plan,
    scatter_cols_segmented,
    scatter_rows_add_at,
    scatter_rows_bincount,
)
from repro.formats import CooTensor


def _random_case(rng, nnz, num_rows, rank):
    targets = rng.integers(0, num_rows, size=nnz).astype(np.int32)
    rows = rng.normal(size=(nnz, rank)).astype(np.float32)
    return targets, rows


def _cols(plan, rows):
    """``rows`` in plan sort order as the ``(rank, nnz)`` column operand."""
    return np.ascontiguousarray(rows[plan.perm].T)


def _plan_for_targets(targets, nnz):
    indices = targets[None, :].astype(np.int32)
    return build_mode_sort_plan(
        CooTensor((max(int(targets.max(initial=0)) + 1, 1),), indices,
                  np.zeros(nnz, dtype=np.float32), validate=False),
        0,
    )


class TestScatterEquivalence:
    @pytest.mark.parametrize("nnz,num_rows,rank", [
        (1000, 50, 8),
        (500, 500, 3),
        (64, 1, 4),      # every row collides on one output row
        (1, 10, 5),
        (256, 1000, 1),  # mostly unique targets
    ])
    def test_three_engines_agree(self, rng, nnz, num_rows, rank):
        targets, rows = _random_case(rng, nnz, num_rows, rank)
        via_bincount = scatter_rows_bincount(targets, rows, num_rows)
        via_add_at = scatter_rows_add_at(targets, rows, num_rows)
        plan = _plan_for_targets(targets, nnz)
        via_cols = scatter_cols_segmented(plan, _cols(plan, rows), num_rows)
        np.testing.assert_allclose(via_bincount, via_add_at, rtol=1e-12)
        np.testing.assert_allclose(via_cols, via_add_at, rtol=1e-12)

    def test_duplicate_rows_accumulate(self, rng):
        # All nonzeros land on row 3: the output is the column sum there.
        rows = rng.normal(size=(100, 6)).astype(np.float32)
        targets = np.full(100, 3, dtype=np.int32)
        plan = _plan_for_targets(targets, 100)
        out = scatter_cols_segmented(plan, _cols(plan, rows), 7)
        np.testing.assert_allclose(
            out, scatter_rows_add_at(targets, rows, 7), rtol=1e-12
        )
        expected = np.zeros((7, 6))
        expected[3] = rows.astype(np.float64).sum(axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-6)
        assert plan.num_segments == 1

    def test_empty_input(self):
        targets = np.empty(0, dtype=np.int32)
        rows = np.empty((0, 4), dtype=np.float32)
        plan = _plan_for_targets(targets, 0)
        for out in (
            scatter_rows_bincount(targets, rows, 9),
            scatter_rows_add_at(targets, rows, 9),
            scatter_cols_segmented(plan, rows.T, 9),
        ):
            assert out.shape == (9, 4)
            assert not out.any()

    def test_accumulates_in_float64(self, rng):
        # Catastrophic-cancellation probe: f32 accumulation of these rows
        # loses the small residual; f64 keeps it.
        rows = np.array([[1e8], [1.0], [-1e8]], dtype=np.float32)
        targets = np.zeros(3, dtype=np.int32)
        plan = _plan_for_targets(targets, 3)
        out = scatter_cols_segmented(plan, _cols(plan, rows), 1)
        assert out.dtype == np.float64
        assert out[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(
            out, scatter_rows_add_at(targets, rows, 1)
        )


class TestPlanStructure:
    def test_segments_cover_all_nonzeros(self, rng):
        targets, _ = _random_case(rng, 400, 30, 1)
        plan = _plan_for_targets(targets, 400)
        assert plan.nnz == 400
        # Unique targets strictly increase and match numpy's unique.
        assert np.all(np.diff(plan.unique_targets) > 0)
        np.testing.assert_array_equal(
            plan.unique_targets, np.unique(targets)
        )
        # Segment starts partition the sorted order.
        assert plan.segment_starts[0] == 0
        sorted_targets = targets[plan.perm]
        np.testing.assert_array_equal(
            sorted_targets[plan.segment_starts], plan.unique_targets
        )

    def test_stable_sort_preserves_order_within_segment(self):
        targets = np.array([1, 0, 1, 0, 1], dtype=np.int32)
        plan = _plan_for_targets(targets, 5)
        np.testing.assert_array_equal(plan.perm, [1, 3, 0, 2, 4])


class TestKernelParity:
    """MTTKRP through cached plans must match the uncached seed path."""

    def test_mttkrp_cached_matches_uncached(self, tensor3, factors3):
        from repro.core.mttkrp import mttkrp_coo
        from repro.perf import cache_disabled, fresh_cache

        for mode in range(tensor3.order):
            with cache_disabled():
                uncached = mttkrp_coo(tensor3, factors3, mode)
            with fresh_cache():
                cold = mttkrp_coo(tensor3, factors3, mode)
                warm = mttkrp_coo(tensor3, factors3, mode)
            np.testing.assert_allclose(cold, uncached, rtol=1e-5, atol=1e-6)
            np.testing.assert_array_equal(cold, warm)

    def test_mttkrp_hicoo_cached_matches_uncached(self, hicoo3, factors3):
        from repro.core.mttkrp import mttkrp_hicoo
        from repro.perf import cache_disabled, fresh_cache

        with cache_disabled():
            uncached = mttkrp_hicoo(hicoo3, factors3, 1)
        with fresh_cache():
            cached = mttkrp_hicoo(hicoo3, factors3, 1)
        np.testing.assert_allclose(cached, uncached, rtol=1e-5, atol=1e-6)

    def test_ttv_cached_matches_uncached(self, tensor3, rng):
        from repro.core.ttv import ttv_coo, ttv_hicoo
        from repro.perf import cache_disabled, fresh_cache

        v = rng.normal(size=tensor3.shape[1]).astype(np.float32)
        with cache_disabled():
            uncached = ttv_coo(tensor3, v, 1)
            uncached_h = ttv_hicoo(tensor3, v, 1, block_size=8)
        with fresh_cache():
            cached = ttv_coo(tensor3, v, 1)
            cached_again = ttv_coo(tensor3, v, 1)
            cached_h = ttv_hicoo(tensor3, v, 1, block_size=8)
        assert cached.allclose(uncached)
        assert cached_again.allclose(cached)
        assert cached_h.to_coo().allclose(uncached_h.to_coo())
