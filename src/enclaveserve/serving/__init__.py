from .errors import (
    EnclaveLaunchFailed,
    NoEligibleEndpoint,
    ProvisioningFailed,
    ServingError,
    UnknownEndpoint,
)
from .frontend import ALGORITHMS, Endpoint, VirtualService, WeightChange
from .replica import (
    ModelServerReplica,
    crash_replica,
    decode_inference_response,
    encode_inference_response,
    replica_cpu_utilization,
    start_replica,
    stop_replica,
)

__all__ = [
    "ALGORITHMS",
    "Endpoint",
    "EnclaveLaunchFailed",
    "ModelServerReplica",
    "NoEligibleEndpoint",
    "ProvisioningFailed",
    "ServingError",
    "UnknownEndpoint",
    "VirtualService",
    "WeightChange",
    "crash_replica",
    "decode_inference_response",
    "encode_inference_response",
    "replica_cpu_utilization",
    "start_replica",
    "stop_replica",
]
