from ..substrate.node import EnclaveObservation, EpcSample
from .autoscale import Autoscaler, AutoscaleSettings, autoscale_step
from .errors import (
    ControlError,
    InsufficientSamples,
    NodeUnreachable,
    PlacementFailure,
    SloUnattainable,
)
from .profiler import BoundaryPoint, BoundaryProfile, profile_boundary
from .reconcile import ReconcileAction, Reconciler
from .slo import (
    NodeObservation,
    SloController,
    SloSettings,
    WeightAction,
    observation_from_samples,
)
from .telemetry import (
    EPC_CSV_HEADER,
    SERVICE_CSV_HEADER,
    collect,
    epc_csv_row,
    paging_throughput,
    service_csv_row,
)

__all__ = [
    "AutoscaleSettings",
    "Autoscaler",
    "BoundaryPoint",
    "BoundaryProfile",
    "ControlError",
    "EPC_CSV_HEADER",
    "EnclaveObservation",
    "EpcSample",
    "InsufficientSamples",
    "NodeObservation",
    "NodeUnreachable",
    "PlacementFailure",
    "ReconcileAction",
    "Reconciler",
    "SERVICE_CSV_HEADER",
    "SloController",
    "SloSettings",
    "SloUnattainable",
    "WeightAction",
    "autoscale_step",
    "collect",
    "epc_csv_row",
    "observation_from_samples",
    "paging_throughput",
    "profile_boundary",
    "service_csv_row",
]
