"""The paper's contribution: SSMDVFS models, controller, and pipeline."""

from .calibrator import Calibrator
from .combined import SSMDVFSModel
from .controller import SSMDVFSController
from .decision_maker import DecisionMaker
from .drift import DriftMonitor, RollbackManager
from .event_driven import EventDrivenController, PhaseChangeDetector
from .guarded import GuardedController
from .pipeline import (VARIANTS, PipelineConfig, PipelineResult,
                       build_from_dataset, build_ssmdvfs)
from .policy import (BasePolicy, ModelOraclePolicy, StaticPolicy,
                     validate_decision)

__all__ = [
    "Calibrator", "SSMDVFSModel", "SSMDVFSController", "DecisionMaker",
    "DriftMonitor", "RollbackManager",
    "EventDrivenController", "PhaseChangeDetector", "GuardedController",
    "VARIANTS", "PipelineConfig", "PipelineResult", "build_from_dataset",
    "build_ssmdvfs",
    "BasePolicy", "ModelOraclePolicy", "StaticPolicy", "validate_decision",
]
