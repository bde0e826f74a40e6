"""Tests for the public package surface and the exception hierarchy."""

import pytest

import repro
from repro import exceptions


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__ == "1.21.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"missing export {name}"

    def test_persistent_cost_cache_is_not_exported(self):
        assert "PersistentCostCache" not in repro.__all__
        assert not hasattr(repro, "PersistentCostCache")

    def test_headline_entry_points_importable(self):
        assert callable(repro.evaluate_design)
        assert callable(repro.workload_by_name)
        assert callable(repro.accelerator_class)
        assert repro.HeraldDSE is not None


class TestExceptions:
    ALL = [
        exceptions.LayerDefinitionError,
        exceptions.GraphError,
        exceptions.MappingError,
        exceptions.HardwareConfigError,
        exceptions.PartitionError,
        exceptions.SchedulingError,
        exceptions.WorkloadError,
        exceptions.SearchError,
    ]

    @pytest.mark.parametrize("exc", ALL)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, exceptions.ReproError)

    def test_repro_error_is_an_exception(self):
        assert issubclass(exceptions.ReproError, Exception)

    def test_catching_base_catches_derived(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.SchedulingError("boom")
