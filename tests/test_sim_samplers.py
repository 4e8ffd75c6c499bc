"""Validation tests for the Monte-Carlo samplers (the paper's Figures 8–9
methodology: simulation must agree with the analytical models)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import samplers
from repro.sim.analytical import checkpoint_expected_time, retry_expected_time
from repro.sim.params import SimulationParams
from repro.sim.samplers import TECHNIQUES, sample_technique
from repro.sim.stats import relative_error, summarize

RUNS = 60_000  # enough for sub-percent agreement, fast enough for CI


class TestRetrySampler:
    @pytest.mark.parametrize("mttf", [10.0, 18.0, 30.0, 100.0])
    def test_matches_analytical_model_figure8(self, mttf):
        params = SimulationParams(mttf=mttf, runs=RUNS)
        sim = summarize(sample_technique("retrying", params))
        ana = retry_expected_time(30.0, 1.0 / mttf)
        assert relative_error(sim.mean, ana) < 0.02

    def test_no_failures_is_deterministic(self):
        params = SimulationParams(runs=100)  # mttf = inf
        samples = sample_technique("retrying", params)
        assert np.all(samples == 30.0)

    def test_downtime_included(self):
        params = SimulationParams(mttf=20.0, downtime=30.0, runs=RUNS)
        sim = summarize(sample_technique("retrying", params))
        ana = retry_expected_time(30.0, 0.05, downtime=30.0)
        assert relative_error(sim.mean, ana) < 0.03

    def test_samples_bounded_below_by_f(self):
        params = SimulationParams(mttf=15.0, runs=5000)
        assert sample_technique("retrying", params).min() >= 30.0

    def test_reproducible_given_seed(self):
        params = SimulationParams(mttf=20.0, runs=1000, seed=99)
        a = sample_technique("retrying", params)
        assert np.array_equal(a, sample_technique("retrying", params))

    def test_different_seeds_differ(self):
        a = sample_technique(
            "retrying", SimulationParams(mttf=20.0, runs=1000, seed=1)
        )
        b = sample_technique(
            "retrying", SimulationParams(mttf=20.0, runs=1000, seed=2)
        )
        assert not np.array_equal(a, b)


class TestCheckpointSampler:
    @pytest.mark.parametrize("mttf", [2.0, 10.0, 40.0, 100.0])
    def test_matches_analytical_model_figure9(self, mttf):
        params = SimulationParams(mttf=mttf, runs=RUNS)
        sim = summarize(sample_technique("checkpointing", params))
        ana = checkpoint_expected_time(
            30.0,
            1.0 / mttf,
            checkpoint_overhead=0.5,
            recovery_time=0.5,
            checkpoints=20,
        )
        assert relative_error(sim.mean, ana) < 0.02

    def test_no_failures_cost_is_f_plus_kc(self):
        params = SimulationParams(runs=100)
        samples = sample_technique("checkpointing", params)
        assert np.all(samples == pytest.approx(40.0))  # 30 + 20*0.5

    def test_downtime_included(self):
        params = SimulationParams(mttf=20.0, downtime=150.0, runs=RUNS)
        sim = summarize(sample_technique("checkpointing", params))
        ana = checkpoint_expected_time(
            30.0, 0.05, checkpoint_overhead=0.5, recovery_time=0.5,
            checkpoints=20, downtime=150.0,
        )
        # Downtime dominates the variance; allow a wider band.
        assert relative_error(sim.mean, ana) < 0.05

    def test_samples_bounded_below_by_failure_free_cost(self):
        params = SimulationParams(mttf=10.0, runs=5000)
        assert sample_technique("checkpointing", params).min() >= 40.0 - 1e-9


class TestReplicationSamplers:
    def test_replication_is_min_of_n(self):
        params = SimulationParams(mttf=20.0, runs=20_000, replicas=3)
        single = summarize(sample_technique("retrying", params)).mean
        replicated = summarize(sample_technique("replication", params)).mean
        assert replicated < single

    def test_more_replicas_never_slower(self):
        means = []
        for n in (1, 2, 4, 8):
            params = SimulationParams(mttf=15.0, runs=20_000, replicas=n)
            samples = sample_technique("replication", params)
            means.append(summarize(samples).mean)
        assert means == sorted(means, reverse=True)

    def test_single_replica_equals_retry_distribution(self):
        params = SimulationParams(mttf=20.0, runs=30_000, replicas=1)
        a = summarize(sample_technique("replication", params)).mean
        b = summarize(sample_technique("retrying", params)).mean
        assert relative_error(a, b) < 0.05

    def test_replication_checkpointing_combination(self):
        params = SimulationParams(mttf=10.0, runs=20_000)
        samples = sample_technique("replication_checkpointing", params)
        combo = summarize(samples).mean
        ckpt_only = summarize(sample_technique("checkpointing", params)).mean
        assert combo < ckpt_only


class TestDispatch:
    def test_all_techniques_dispatchable(self):
        params = SimulationParams(mttf=20.0, runs=500)
        for technique in TECHNIQUES:
            samples = sample_technique(technique, params)
            assert samples.shape == (500,)
            assert np.all(samples >= 30.0)

    def test_unknown_technique(self):
        with pytest.raises(SimulationError, match="unknown technique"):
            sample_technique("prayer", SimulationParams())

    def test_runs_override(self):
        params = SimulationParams(mttf=20.0, runs=10_000)
        assert sample_technique("retrying", params, runs=123).shape == (123,)


class TestDowntimeDistribution:
    def test_invalid_distribution_rejected(self):
        with pytest.raises(SimulationError):
            SimulationParams(downtime_distribution="weibull")

    def test_fixed_downtime_is_deterministic_per_failure(self):
        # With fixed downtime = D, every failure adds exactly D; with a
        # single failure the sample equals lost-work + D + F exactly,
        # so the *minimum* over samples is >= F and the per-failure cost
        # floor shows in the distribution support.
        params = SimulationParams(
            mttf=20.0, downtime=100.0, downtime_distribution="fixed",
            runs=20_000,
        )
        samples = sample_technique("retrying", params)
        failed_runs = samples[samples > 30.0 + 1e-9]
        # Any run with at least one failure paid at least one full fixed D.
        assert failed_runs.min() >= 100.0

    def test_mean_insensitive_for_single_process_techniques(self):
        exp_params = SimulationParams(mttf=20.0, downtime=150.0, runs=60_000)
        fixed_params = SimulationParams(
            mttf=20.0, downtime=150.0, downtime_distribution="fixed",
            runs=60_000,
        )
        for technique in ("retrying", "checkpointing"):
            e = summarize(sample_technique(technique, exp_params))
            f = summarize(sample_technique(technique, fixed_params))
            assert abs(e.mean - f.mean) <= 2 * (e.ci_halfwidth + f.ci_halfwidth)

    def test_replication_prefers_spread(self):
        exp_params = SimulationParams(mttf=20.0, downtime=150.0, runs=40_000)
        fixed_params = SimulationParams(
            mttf=20.0, downtime=150.0, downtime_distribution="fixed",
            runs=40_000,
        )
        assert (
            sample_technique("replication", fixed_params).mean()
            > sample_technique("replication", exp_params).mean()
        )


class TestDowntimeDraws:
    """`_downtime_draws` must return an ndarray for *every* distribution —
    the degenerate branches used to be able to return scalars, which
    silently broadcast in some samplers and broke per-run indexing in
    others."""

    @pytest.mark.parametrize(
        "params",
        [
            SimulationParams(mttf=20.0, downtime=0.0, runs=10),
            SimulationParams(
                mttf=20.0, downtime=0.0, downtime_distribution="fixed", runs=10
            ),
            SimulationParams(
                mttf=20.0, downtime=5.0, downtime_distribution="fixed", runs=10
            ),
            SimulationParams(mttf=20.0, downtime=5.0, runs=10),
        ],
        ids=["zero-exp", "zero-fixed", "fixed", "exponential"],
    )
    def test_always_ndarray_of_requested_size(self, params):
        from repro.sim.samplers import _downtime_draws

        draws = _downtime_draws(params, np.random.default_rng(0), 7)
        assert isinstance(draws, np.ndarray)
        assert draws.shape == (7,)
        assert draws.dtype == np.float64

    def test_degenerate_branches_consume_no_rng_state(self):
        from repro.sim.samplers import _downtime_draws

        rng = np.random.default_rng(1)
        _downtime_draws(SimulationParams(mttf=20.0, downtime=0.0), rng, 5)
        _downtime_draws(
            SimulationParams(
                mttf=20.0, downtime=3.0, downtime_distribution="fixed"
            ),
            rng,
            5,
        )
        untouched = np.random.default_rng(1)
        np.testing.assert_array_equal(rng.random(4), untouched.random(4))


#: Rows per block at the paper's K = 20.
BLOCK = 1024

#: Each case's parameters: D = F at MTTF 10 for the host-failure
#: techniques, Figure 13's (no host failures) at two exception
#: probabilities, and a K that divides no block evenly.
_HOST = SimulationParams(mttf=10.0, downtime=30.0, seed=20030623)
BLOCK_CASES = {
    "d=f": _HOST,
    "d=f,k=7": dataclasses.replace(_HOST, checkpoints=7),
    "p=0.05": SimulationParams(exception_probability=0.05, seed=20030623),
    "p=0.3": SimulationParams(exception_probability=0.3, seed=20030623),
    "p=0.3,k=7": SimulationParams(
        exception_probability=0.3, checkpoints=7, seed=20030623
    ),
    # A zero-failure run ends the vector and the third block, each after
    # a run with two or more failures.
    "seed=46": SimulationParams(mttf=10.0, downtime=30.0, seed=46),
}

#: (technique, case, runs) → sha256 prefix of ``sample_technique``'s
#: vector, recorded while every kernel still drew its whole (runs, K)
#: matrix in one call.  The runs straddle one block, end a block and cross
#: several (1, B − 1, B, B + 1, 3B + 7, 40 000).
_BLOCK_PIN_ROWS = """
alternative_task p=0.05 1 a6eb657cf3aab7d4
alternative_task p=0.05 1023 49e64207904798f1
alternative_task p=0.05 1024 6fb2e99742d7e4f3
alternative_task p=0.05 1025 272cd97bcfff4d24
alternative_task p=0.05 3079 033730f0156a3b37
alternative_task p=0.05 40000 26b7f436ef864940
alternative_task p=0.3 1 ba9b5ac9f5107c63
alternative_task p=0.3 1023 cd70f718cd54be0c
alternative_task p=0.3 1024 773730689c21d48b
alternative_task p=0.3 1025 6ec366b9a8bb0d03
alternative_task p=0.3 3079 e388af596382ea58
alternative_task p=0.3 40000 1fe0243591c68bec
alternative_task p=0.3,k=7 40000 03cd4b03c8ebda0e
backoff_retry d=f 1 2b653bae33694e12
backoff_retry d=f 1023 7e8ebecafab54b09
backoff_retry d=f 1024 6ab28b359b796c58
backoff_retry d=f 1025 4be5aa407b08cde1
backoff_retry d=f 3079 c7006fda12e827d9
backoff_retry d=f 40000 c452d998da3b52d6
checkpointing d=f 1 39436a60bc7e8a0a
checkpointing d=f 1023 6fc86e54f7e5ba4e
checkpointing d=f 1024 bc868d0f99cbbabc
checkpointing d=f 1025 33e207cac7ed10b3
checkpointing d=f 3079 72a6193ccd3c5b2b
checkpointing d=f 40000 8d31b0b2a9abdaa8
checkpointing d=f,k=7 40000 f93f4b6f928fc52c
exception_checkpointing p=0.05 1 e0681b05cff3c767
exception_checkpointing p=0.05 1023 a10c67b892bc0a5a
exception_checkpointing p=0.05 1024 787184099c62bc1c
exception_checkpointing p=0.05 1025 34acbb04aec83cac
exception_checkpointing p=0.05 3079 96477bf2e33c1ed1
exception_checkpointing p=0.05 40000 fa00d970d2a479ba
exception_checkpointing p=0.3 1 ade6ab518e682d83
exception_checkpointing p=0.3 1023 6be6fc663718ed54
exception_checkpointing p=0.3 1024 4eaa38240f2975d7
exception_checkpointing p=0.3 1025 99a84115860e49f4
exception_checkpointing p=0.3 3079 89e308b0bb2e399e
exception_checkpointing p=0.3 40000 549846a8012f4ad8
exception_checkpointing p=0.3,k=7 40000 ed35c04cb3c7017b
exception_retrying p=0.05 1 a6eb657cf3aab7d4
exception_retrying p=0.05 1023 da97061bacae89be
exception_retrying p=0.05 1024 7d0a0893ce85a8c9
exception_retrying p=0.05 1025 6cb661675c226cbe
exception_retrying p=0.05 3079 c726090f5f7b2073
exception_retrying p=0.05 40000 d7667ae30b3d64fb
exception_retrying p=0.3 1 b208cf39716a50fa
exception_retrying p=0.3 1023 66a7742510b9313e
exception_retrying p=0.3 1024 914bea8cc1524a55
exception_retrying p=0.3 1025 313c0ef97d8d5857
exception_retrying p=0.3 3079 55883bbf7e2fc297
exception_retrying p=0.3 40000 7325a06553ebb2af
exception_retrying p=0.3,k=7 40000 e5d268f2e31db775
replication d=f 1 92033b893da9d036
replication d=f 1023 d391f87d2138f859
replication d=f 1024 f5e5bd19a22ff315
replication d=f 1025 d7c65afacca0ad79
replication d=f 3079 de5d7e2e373c1c9d
replication d=f 40000 193c653d8718b45d
replication_checkpointing d=f 1 6b10f44ee3a2fc49
replication_checkpointing d=f 1023 2c17bb74476966e6
replication_checkpointing d=f 1024 89db89992da273d2
replication_checkpointing d=f 1025 3d578ecac70df4a4
replication_checkpointing d=f 3079 82e2a6f587dbc5e0
replication_checkpointing d=f 40000 407d50f21c544638
replication_checkpointing d=f,k=7 40000 0b6e23d8776b714a
retrying d=f 1 7ff7c5cadaa55f33
retrying d=f 1023 e6179db383b6e544
retrying d=f 1024 51cd9c910a0cc4fb
retrying d=f 1025 0aefc543ced3e9c1
retrying d=f 3079 ef77140fe4bd3324
retrying d=f 40000 aed7ce12a84de344
checkpointing seed=46 3079 acd2c29e1e079e4a
"""
BLOCK_PINS = {
    tuple(words[:3]): words[3]
    for words in map(str.split, _BLOCK_PIN_ROWS.strip().splitlines())
}


class TestRowBlocks:
    """The K-wide kernels draw their (runs, K) matrix a row block at a
    time; a ``Generator`` is one sequential stream, so every vector is the
    one drawn whole."""

    def test_block_is_the_pinned_one(self):
        assert samplers._BLOCK_DRAWS // 20 == BLOCK

    @pytest.mark.parametrize(
        "technique, case, runs",
        sorted(BLOCK_PINS),
        ids=[f"{t}-{case}-runs={runs}" for t, case, runs in sorted(BLOCK_PINS)],
    )
    def test_vectors_match_the_whole_matrix_draw(self, technique, case, runs):
        params = BLOCK_CASES[case]
        samples = sample_technique(technique, params, runs=int(runs))
        assert samples.dtype == np.float64
        digest = hashlib.sha256(samples.tobytes()).hexdigest()[:16]
        assert digest == BLOCK_PINS[(technique, case, runs)]

    def test_every_technique_is_pinned(self):
        pinned = {technique for technique, _, _ in BLOCK_PINS}
        assert pinned == set(samplers._SAMPLERS)

    @pytest.mark.parametrize("width", [1, 7, 20, 40, 50_000])
    def test_blocks_cover_the_rows_in_order(self, width):
        rng = np.random.default_rng(0)
        blocks = list(samplers._row_blocks(rng, 5000, width))
        assert blocks[0][0] == 0 and blocks[-1][1] == 5000
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        largest = max(stop - start for start, stop in blocks)
        assert largest * width <= max(samplers._BLOCK_DRAWS, width)

    def test_a_duck_typed_generator_gets_one_block(self):
        from repro.sim.adaptive import AntitheticGenerator

        rng = AntitheticGenerator(np.random.default_rng(0))
        assert list(samplers._row_blocks(rng, 5000, 20)) == [(0, 5000)]
        assert list(samplers._row_blocks(rng, 0, 20)) == []

    @pytest.mark.parametrize("technique", sorted(samplers._SAMPLERS))
    def test_no_runs_is_an_empty_vector(self, technique):
        figure13 = technique in samplers._EXCEPTION_TECHNIQUES
        params = BLOCK_CASES["p=0.3" if figure13 else "d=f"]
        assert sample_technique(technique, params, runs=0).shape == (0,)
