"""Tests for the Table-1 registry and single-strategy presets."""

from __future__ import annotations

from repro.baselines import (
    PRESETS,
    TABLE1,
    adaptive_choice,
    table1_rows,
)
from repro.sim.params import SimulationParams


class TestTable1:
    def test_all_eight_systems_present(self):
        names = {s.name for s in TABLE1}
        assert names == {
            "OLTP",
            "Ficus",
            "PVM",
            "DOME",
            "Netsolve",
            "Mentat",
            "Condor-G",
            "CoG Kits",
        }

    def test_no_prior_system_supports_user_exceptions(self):
        assert all(not s.supports_user_exceptions for s in TABLE1)

    def test_no_prior_system_supports_multiple_techniques(self):
        assert all(not s.supports_multiple_techniques for s in TABLE1)

    def test_emulation_techniques_match_paper(self):
        techniques = {s.name: s.emulation_technique for s in TABLE1}
        assert techniques["OLTP"] == "retrying"  # abort and retry
        assert techniques["DOME"] == "checkpointing"
        assert techniques["Netsolve"] == "retrying"
        assert techniques["Mentat"] == "replication"
        assert techniques["Condor-G"] == "retrying"
        assert techniques["Ficus"] == "replication"
        assert techniques["PVM"] is None  # hardcoded in application
        assert techniques["CoG Kits"] is None

    def test_rows_include_gridwfs_summary_row(self):
        rows = table1_rows()
        assert len(rows) == 9
        last = rows[-1]
        assert "Grid-WFS" in last["system"]
        assert last["user exceptions"] == "yes"
        assert last["multiple techniques"] == "yes"
        assert all(row["user exceptions"] == "no" for row in rows[:-1])


class TestPresets:
    def test_presets_exist_for_systems_with_builtin_recovery(self):
        assert set(PRESETS) == {
            "OLTP",
            "Ficus",
            "DOME",
            "Netsolve",
            "Mentat",
            "Condor-G",
        }

    def test_preset_sampling_works(self):
        params = SimulationParams(mttf=20.0, runs=2000)
        samples = PRESETS["Condor-G"].sample(params)
        assert samples.shape == (2000,)
        assert samples.min() >= 30.0


class TestAdaptivePolicy:
    def test_adaptive_never_worse_than_any_preset(self):
        params = SimulationParams(mttf=15.0, runs=20_000)
        _, best = adaptive_choice(params)
        for preset in PRESETS.values():
            assert best <= preset.sample(params).mean() * 1.03  # MC slack

    def test_choice_shifts_with_environment(self):
        # The paper's conclusion: the best technique depends on MTTF.
        low_mttf_choice, _ = adaptive_choice(
            SimulationParams(mttf=5.0, runs=20_000)
        )
        high_mttf_choice, _ = adaptive_choice(
            SimulationParams(mttf=100.0, runs=20_000)
        )
        assert low_mttf_choice != high_mttf_choice
        assert low_mttf_choice in (
            "checkpointing",
            "replication_checkpointing",
        )
        assert high_mttf_choice == "replication"
