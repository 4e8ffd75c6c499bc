"""Unit tests for the workflow runtime directory services."""

from __future__ import annotations

import pytest

from repro.catalogs import (
    DataCatalog,
    DataReplica,
    ResourceCatalog,
    ResourceQuery,
    SoftwareCatalog,
    SoftwareEntry,
)
from repro.errors import CatalogError, NoResourceError
from repro.grid.resource import RELIABLE, UNRELIABLE, ResourceSpec


class TestSoftwareCatalog:
    @pytest.fixture
    def catalog(self):
        cat = SoftwareCatalog()
        cat.register(
            SoftwareEntry(
                name="solver_fast",
                computation="linear_solve",
                hostname="big.example.org",
                requirements={"memory_gb": 64},
                characteristics={"speed": "fast", "reliability": "low"},
            )
        )
        cat.register(
            SoftwareEntry(
                name="solver_disk",
                computation="linear_solve",
                hostname="small.example.org",
                characteristics={"speed": "slow", "reliability": "high"},
            )
        )
        cat.register(
            SoftwareEntry(
                name="solver_fast",
                computation="linear_solve",
                hostname="other.example.org",
            )
        )
        return cat

    def test_implementations_of_computation(self, catalog):
        impls = catalog.implementations_of("linear_solve")
        assert len(impls) == 3
        assert catalog.implementations_of("unknown") == []

    def test_locations_of_executable(self, catalog):
        hosts = {e.hostname for e in catalog.locations_of("solver_fast")}
        assert hosts == {"big.example.org", "other.example.org"}

    def test_lookup_specific(self, catalog):
        entry = catalog.lookup("solver_disk", "small.example.org")
        assert entry.characteristics["reliability"] == "high"

    def test_lookup_missing_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.lookup("solver_disk", "big.example.org")

    def test_computations_listing(self, catalog):
        assert catalog.computations() == ["linear_solve"]

    def test_entry_validation(self):
        with pytest.raises(CatalogError):
            SoftwareEntry(name="", computation="c", hostname="h")


class TestDataCatalog:
    @pytest.fixture
    def catalog(self):
        cat = DataCatalog()
        cat.register(DataReplica("input.dat", "h1", "/data/input.dat", size_gb=2.0))
        cat.register(DataReplica("input.dat", "h2", "/mirror/input.dat", size_gb=2.0))
        cat.register(
            DataReplica("partial.dat", "h1", "/tmp/partial.dat", complete=False)
        )
        return cat

    def test_replicas_of_complete_only_by_default(self, catalog):
        assert len(catalog.replicas_of("input.dat")) == 2
        assert catalog.replicas_of("partial.dat") == []
        assert len(catalog.replicas_of("partial.dat", complete_only=False)) == 1

    def test_partial_replicas_for_cleanup(self, catalog):
        partials = catalog.partial_replicas()
        assert [p.logical_name for p in partials] == ["partial.dat"]

    def test_retract_removes_replica(self, catalog):
        assert catalog.retract("partial.dat", "h1", "/tmp/partial.dat")
        assert catalog.partial_replicas() == []
        assert not catalog.retract("partial.dat", "h1", "/tmp/partial.dat")

    def test_replica_validation(self):
        with pytest.raises(CatalogError):
            DataReplica("", "h", "/p")
        with pytest.raises(CatalogError):
            DataReplica("n", "h", "/p", size_gb=-1)


class TestResourceCatalog:
    @pytest.fixture
    def catalog(self):
        cat = ResourceCatalog()
        cat.register(RELIABLE("condor1", disk_gb=500, memory_gb=64, speed=2.0))
        cat.register(UNRELIABLE("volunteer1", mttf=30.0, disk_gb=40, memory_gb=4))
        cat.register(UNRELIABLE("volunteer2", mttf=300.0, mean_downtime=60.0))
        return cat

    def test_register_duplicate_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.register(RELIABLE("condor1"))

    def test_get_and_contains(self, catalog):
        assert "condor1" in catalog
        assert catalog.get("condor1").reliable
        with pytest.raises(CatalogError):
            catalog.get("nope")

    def test_match_attribute_constraints(self, catalog):
        matches = catalog.match(ResourceQuery(min_disk_gb=200))
        assert [m.hostname for m in matches] == ["condor1"]

    def test_match_reliability_floor(self, catalog):
        matches = catalog.match(ResourceQuery(min_mttf=100.0))
        assert {m.hostname for m in matches} == {"condor1", "volunteer2"}

    def test_match_tags(self, catalog):
        matches = catalog.match(ResourceQuery(require_tags=frozenset({"volunteer"})))
        assert {m.hostname for m in matches} == {"volunteer1", "volunteer2"}

    def test_match_excludes_hosts(self, catalog):
        matches = catalog.match(ResourceQuery(exclude_hosts=frozenset({"condor1"})))
        assert "condor1" not in {m.hostname for m in matches}

    def test_select_best_ranked(self, catalog):
        # Default ranking prefers reliable & fast.
        assert catalog.select().hostname == "condor1"

    def test_select_custom_rank(self, catalog):
        cheapest = catalog.select(rank=lambda s: -s.speed)
        assert cheapest.speed == 1.0

    def test_select_no_match_raises(self, catalog):
        with pytest.raises(NoResourceError):
            catalog.select(ResourceQuery(min_memory_gb=1024))

    def test_max_downtime_constraint(self, catalog):
        matches = catalog.match(ResourceQuery(max_mean_downtime=0.0))
        assert "volunteer2" not in {m.hostname for m in matches}


class TestResourceSpec:
    def test_failure_rate(self):
        assert UNRELIABLE("h", mttf=20.0).failure_rate == pytest.approx(0.05)
        assert RELIABLE("h").failure_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceSpec(hostname="")
        with pytest.raises(ValueError):
            ResourceSpec(hostname="h", speed=0.0)
        with pytest.raises(ValueError):
            ResourceSpec(hostname="h", mttf=-1.0)
