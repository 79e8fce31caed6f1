"""Exception hierarchy for the SSMDVFS reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the library's failures without catching unrelated
bugs.  Sub-classes are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An architecture, V/f, or model configuration is invalid."""


class SimulationError(ReproError):
    """The GPU simulator was driven into an invalid state."""


class SnapshotError(SimulationError):
    """A snapshot/restore pair was used incorrectly."""


class WorkloadError(ReproError):
    """A kernel or benchmark description is malformed."""


class ModelError(ReproError):
    """A neural-network model is structurally invalid."""


class TrainingError(ModelError):
    """Training could not proceed (bad shapes, empty dataset, ...)."""


class CompressionError(ModelError):
    """Layer-wise compression or pruning produced an invalid model."""


class ArtifactCorrupt(ModelError):
    """A stored artifact failed checksum, schema, or shape validation.

    Raised by the crash-consistent artifact store when an on-disk
    version's embedded SHA-256 or header does not verify, and by the
    model loaders when a payload is malformed (missing arrays,
    inconsistent shapes, non-numeric dtypes).  Derives from
    :class:`ModelError` because the artifacts the registry protects are
    predominantly trained model pairs, and callers historically catch
    ``ModelError`` around loads.
    """


class DatasetError(ReproError):
    """A dataset is empty, inconsistent, or incorrectly labelled."""


class ParallelError(ReproError):
    """The parallel campaign layer was configured inconsistently."""


class CampaignError(ParallelError):
    """A campaign task failed permanently (retries and rescue exhausted).

    Carries the index of the originating task so campaign drivers can
    report, quarantine, or re-dispatch around the poisoned task.  The
    underlying worker exception travels as ``__cause__``.
    """

    def __init__(self, message: str, task_id: int | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id


class FaultInjectionError(ReproError):
    """The fault-injection harness was configured inconsistently."""


class FleetError(ReproError):
    """The fleet scheduler or its job stream was configured inconsistently.

    Raised for malformed arrival traces (non-positive job counts,
    unknown builtin trace shapes, invalid load factors), for popping an
    empty :class:`~repro.fleet.queue.PendingJobQueue`, and for
    scheduler-level inconsistencies (unknown policy names, node counts
    below one)."""


class FleetFaultError(FleetError):
    """A node-level fault plan or fleet-resilience knob is invalid.

    Raised for malformed :class:`~repro.faults.NodeFaultConfig` /
    :class:`~repro.faults.NodeFaultEvent` descriptions (unknown fault
    kinds, negative rates or durations, events aimed at nodes outside
    the fleet) and for inconsistent admission-control configuration."""


class ServeError(ReproError):
    """The always-on serving runtime was configured inconsistently.

    Raised for malformed :class:`~repro.serve.runtime.ServeConfig`
    knobs (non-positive capacities or tick budgets), for protocol misuse of the
    serving state machines (recording an outcome for a call the circuit
    breaker never admitted), and for dispatching onto a worker that is
    not ready."""


class ServeFaultError(ServeError):
    """A serving-layer fault plan or chaos knob is invalid.

    Raised for malformed :class:`~repro.faults.ServeFaultConfig` /
    :class:`~repro.faults.ServeFaultEvent` descriptions (unknown fault
    kinds, negative rates or tick spans, events aimed at workers or
    streams outside the runtime)."""


class PolicyError(ReproError):
    """A DVFS policy produced an out-of-range or malformed decision."""


class HardwareModelError(ReproError):
    """The ASIC cost model was given an unsupported configuration."""
