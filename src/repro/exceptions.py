"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors such as
``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class LayerDefinitionError(ReproError):
    """A DNN layer was defined with inconsistent or non-physical dimensions."""


class GraphError(ReproError):
    """A model graph is malformed (cycles, unknown layer references, ...)."""


class MappingError(ReproError):
    """A dataflow mapping could not be constructed for a layer."""


class HardwareConfigError(ReproError):
    """An accelerator or sub-accelerator configuration is invalid."""


class PartitionError(ReproError):
    """A hardware resource partition violates the HDA definition constraints."""


class SchedulingError(ReproError):
    """A layer-execution schedule is invalid or could not be constructed."""


class WorkloadError(ReproError):
    """A multi-DNN workload specification is invalid."""


class SearchError(ReproError):
    """The design-space exploration was configured with invalid parameters."""


class SpecError(ReproError):
    """A declarative experiment spec is malformed.

    The message always starts with the dotted/indexed path of the offending
    value (``fleet.chips[2].num_pes: expected a positive int``), so a user can
    find the line in their experiment file without reading any source.
    """


class TaskExecutionError(ReproError):
    """One or more evaluation tasks failed.

    Raised by ``ExecutionBackend.run`` (and ``run_resilient`` without
    ``partial_ok``) when a task fails; carries the structured
    :class:`~repro.exec.resilience.TaskFailure` records so callers can log or
    surface exactly which tasks were lost.  ``run_resilient`` with
    ``partial_ok=True`` returns the failures instead of raising.
    """

    def __init__(self, failures) -> None:
        self.failures = tuple(failures)
        preview = "; ".join(failure.describe() for failure in self.failures[:3])
        suffix = " ..." if len(self.failures) > 3 else ""
        super().__init__(
            f"{len(self.failures)} task(s) failed: {preview}{suffix}")


class CheckpointError(ReproError):
    """A sweep checkpoint file cannot be used (corrupted, wrong schema
    version, or recorded under a different sweep key)."""
