"""Back-to-back pooled estimates stay bit-identical to the sequential loop.

Each ``estimate_cells`` call opens its own executor and sampler table, so a
second pooled call starts from nothing the first one left; neither call may
change a single bit of any sample vector.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.sim import SimulationParams, estimate_cells

FAULTY = SimulationParams(mttf=15.0, downtime=30.0)


@pytest.mark.contract
class TestPooledBitIdentity:
    def test_warm_pool_matches_sequential(self):
        cells = [("checkpointing", FAULTY)]
        [seq] = estimate_cells(cells, runs=8, jobs=1, engine=True)
        [first] = estimate_cells(cells, runs=8, jobs=2, engine=True)
        # The second pooled call forks fresh workers with empty tables.
        [second] = estimate_cells(cells, runs=8, jobs=2, engine=True)
        assert np.array_equal(seq.samples, first.samples)
        assert np.array_equal(seq.samples, second.samples)

    def test_pool_shared_across_configurations(self):
        # Consecutive pooled estimates of different configurations share
        # no executor: none is alive between them, and each vector is its
        # sequential one.
        cells = ([("retrying", FAULTY)], [("replication", FAULTY)])
        pooled = []
        for cell in cells:
            [got] = estimate_cells(cell, runs=4, jobs=2, engine=True)
            assert multiprocessing.active_children() == []
            [want] = estimate_cells(cell, runs=4, jobs=1, engine=True)
            assert np.array_equal(got.samples, want.samples)
            pooled.append(got.samples)
        assert not np.array_equal(pooled[0], pooled[1])
