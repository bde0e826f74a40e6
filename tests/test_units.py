"""Tests for the unit-conversion helpers."""

import pytest

from repro import units


class TestDataSizes:
    def test_mib_converts_to_bytes(self):
        assert units.mib(1) == 1024 * 1024

    def test_mib_accepts_fractions(self):
        assert units.mib(0.5) == 512 * 1024

    def test_gbps_converts_to_bytes_per_second(self):
        assert units.gbps(16) == 16e9

    def test_bytes_per_element_is_two(self):
        assert units.BYTES_PER_ELEMENT == 2


class TestTimeConversions:
    def test_cycles_to_seconds_default_clock(self):
        assert units.cycles_to_seconds(1e9) == pytest.approx(1.0)

    def test_cycles_to_seconds_custom_clock(self):
        assert units.cycles_to_seconds(500, clock_hz=1000) == pytest.approx(0.5)

    def test_seconds_to_cycles_roundtrip(self):
        assert units.seconds_to_cycles(units.cycles_to_seconds(12345)) == pytest.approx(12345)

    def test_bytes_per_cycle(self):
        assert units.bytes_per_cycle(16e9, clock_hz=1e9) == pytest.approx(16.0)


class TestEnergyConversions:
    def test_picojoules_to_millijoules(self):
        assert units.picojoules_to_millijoules(1e9) == pytest.approx(1.0)

    def test_picojoules_to_millijoules_zero(self):
        assert units.picojoules_to_millijoules(0.0) == 0.0
