"""Always-on serving runtime for the SSMDVFS controller.

Wraps the guarded controller behind a deterministic request loop:
supervised worker lifecycle (:mod:`~repro.serve.supervisor`), bounded
telemetry ingestion with backpressure (:mod:`~repro.serve.ingest`), a
circuit breaker around ML inference (:mod:`~repro.serve.breaker`),
gated online calibration (:mod:`~repro.serve.online`), and the
two-phase serving loop itself (:mod:`~repro.serve.runtime`).
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .ingest import (RequestQueue, ServeRequest, ShedRecord, TelemetrySample,
                     WindowAssembler)
from .online import OnlineCalibrator
from .runtime import SERVE_ARTIFACT, ServeConfig, ServeResult, ServingRuntime
from .supervisor import (BUSY, QUARANTINED, READY, RESTARTING, Supervisor,
                         WorkerHandle)

__all__ = [
    "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN",
    "WindowAssembler", "TelemetrySample",
    "RequestQueue", "ServeRequest", "ShedRecord",
    "OnlineCalibrator",
    "Supervisor", "WorkerHandle",
    "READY", "BUSY", "RESTARTING", "QUARANTINED",
    "ServeConfig", "ServeResult", "ServingRuntime", "SERVE_ARTIFACT",
]
