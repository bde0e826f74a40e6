"""Shared fixtures for the test suite.

Most tests run on small synthetic workloads and chips so the whole suite stays
fast; the integration tests use the real Table II / Table IV configurations.

Herald's scheduler builds its schedules valid by construction and does not
check them itself; :func:`pytest_configure` makes the suite check every
schedule it returns instead.

Hypothesis runs derandomised: each property draws the same examples on
every run, so a failure reproduces and the suite checks the same schedules
each time.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import settings

from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.maestro.cost import CostModel
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, dwconv, fc, pwconv
from repro.units import gbps, mib
from repro.workloads.spec import WorkloadSpec

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@functools.wraps(HeraldScheduler.schedule)
def _validated_schedule(self, workload, *args, **kwargs):
    schedule = _validated_schedule.__wrapped__(self, workload, *args, **kwargs)
    schedule.validate({instance.instance_id: instance.num_layers
                       for instance in workload.instances()})
    return schedule


def pytest_configure(config):
    """Check every schedule ``HeraldScheduler.schedule`` returns against the
    hard constraints of Sec. III-A (:meth:`Schedule.validate`, completeness
    included): goldens, hypothesis runs and forked pool workers alike.

    Installed when the suite is configured rather than by a fixture, so the
    schedules test modules build at import (``tests/test_records.py``) are
    checked too.  A test that needs the unchecked method reads it from
    ``HeraldScheduler.schedule.__wrapped__``.
    """
    HeraldScheduler.schedule = _validated_schedule


def pytest_unconfigure(config):
    HeraldScheduler.schedule = _validated_schedule.__wrapped__


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    """A single shared cost model so its cache carries across tests."""
    return CostModel()


@pytest.fixture(scope="session")
def tiny_chip() -> ChipConfig:
    """A small chip (256 PEs) used by scheduler / partitioner unit tests."""
    return ChipConfig(
        name="tiny",
        num_pes=256,
        noc_bandwidth_bytes_per_s=gbps(8),
        global_buffer_bytes=mib(2),
    )


@pytest.fixture(scope="session")
def small_model() -> ModelGraph:
    """A six-layer CNN with heterogeneous layer shapes."""
    layers = [
        conv2d("conv1", k=32, c=3, y=66, x=66, r=3, s=3, stride=2),
        dwconv("dw1", c=32, y=34, x=34, r=3, s=3),
        pwconv("pw1", k=64, c=32, y=32, x=32),
        conv2d("conv2", k=128, c=64, y=18, x=18, r=3, s=3, stride=2),
        pwconv("pw2", k=256, c=128, y=8, x=8),
        fc("fc", k=10, c=256 * 8 * 8),
    ]
    return ModelGraph.from_layers("smallnet", layers)


@pytest.fixture(scope="session")
def channel_heavy_model() -> ModelGraph:
    """A model dominated by deep-channel layers (prefers NVDLA-style dataflows)."""
    layers = [
        pwconv("pw1", k=512, c=256, y=14, x=14),
        pwconv("pw2", k=1024, c=512, y=7, x=7),
        fc("fc1", k=2048, c=1024),
        fc("fc2", k=1000, c=2048),
    ]
    return ModelGraph.from_layers("channelnet", layers)


@pytest.fixture(scope="session")
def activation_heavy_model() -> ModelGraph:
    """A model dominated by large activations with shallow channels."""
    layers = [
        conv2d("conv1", k=16, c=3, y=130, x=130, r=3, s=3),
        conv2d("conv2", k=16, c=16, y=128, x=128, r=3, s=3),
        conv2d("conv3", k=32, c=16, y=126, x=126, r=3, s=3),
    ]
    return ModelGraph.from_layers("actnet", layers)


@pytest.fixture(scope="session")
def small_workload(small_model, channel_heavy_model, activation_heavy_model) -> WorkloadSpec:
    """A heterogeneous three-model workload used by scheduler / DSE tests."""
    return WorkloadSpec.from_models(
        "small-mix",
        [small_model, channel_heavy_model, activation_heavy_model],
        batches=[2, 1, 1],
    )


@pytest.fixture(scope="session")
def tiny_sub_accelerators(tiny_chip):
    """Two sub-accelerators (NVDLA + Shi-diannao) evenly splitting the tiny chip."""
    half_bw = tiny_chip.noc_bandwidth_bytes_per_s / 2
    return (
        SubAcceleratorConfig(
            name="acc0-nvdla",
            dataflow=NVDLA,
            num_pes=tiny_chip.num_pes // 2,
            bandwidth_bytes_per_s=half_bw,
            buffer_bytes=tiny_chip.global_buffer_bytes,
        ),
        SubAcceleratorConfig(
            name="acc1-shidiannao",
            dataflow=SHIDIANNAO,
            num_pes=tiny_chip.num_pes // 2,
            bandwidth_bytes_per_s=half_bw,
            buffer_bytes=tiny_chip.global_buffer_bytes,
        ),
    )


@pytest.fixture(scope="session")
def all_styles():
    """The three dataflow styles of Table III."""
    return (NVDLA, SHIDIANNAO, EYERISS)
