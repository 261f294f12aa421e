"""Scenario configuration: schema, validation, and preset builders.

A scenario file is YAML with this shape (see README for field docs). Each
section loads into the dataclass that holds it, which the components read
as `validate()` left it. A key left out takes its field's default; a key
that no field takes is rejected with ConfigInvalid:

    name: lb-high-mobilenet_v1_float-sgx_aware
    seed: 42
    duration_s: 60.0
    cluster:
      t_ref_pages_per_s: 10000.0
      nodes:
        - {id: node-a}
        - {id: node-b}
        - {id: node-c}
    aecs:
      replicas:
        - {id: aecs-0, node: node-a}
    service:
      id: imgclass
      model: mobilenet_v1_float
      algorithm: sgx_aware        # rr | lc | sed | sgx_aware
      parallelism: 2
      replicas:
        - {id: r0, node: node-a}
        - {id: r1, node: node-b}
        - {id: r2, node: node-c}
    policies:
      slo:
        boundary_pages_per_s: 4950.0
        theta: 0.70
        consecutive_cycles: 5
        sample_interval_s: 1.0
      autoscale:
        enabled: false
    workload:
      rate_per_s: 120.0
      payload_bytes: 64
      timeout_s: 10.0
    interference:
      - node: node-a
        windows: [[12.0, 24.0], [36.0, 48.0]]
        epc_mib: 93
        rate_pages_per_s: 74000.0

Builders below derive the canonical experiment scenarios from the model
presets; the arrival rate is pinned at 60% of two-replica capacity for the
comparison runs, so the load stays satisfiable when one backend is stopped.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from ..channel.record import RECORD_OVERHEAD
from ..channel.transport import MAX_FRAME
from ..control.autoscale import AutoscaleSettings
from ..control.slo import SloSettings
from ..profiles import PRESETS, ModelProfile
from ..serving.replica import RESPONSE_HEADER
from ..substrate.node import DEFAULT_EPC_USABLE_BYTES, MIB
from ..substrate.paging import DEFAULT_T_REF_PAGES_PER_S
from .errors import ConfigInvalid

SCALED_DURATION_S = 60.0
SCALED_WINDOWS = ((12.0, 24.0), (36.0, 48.0))
LOAD_FRACTION = 0.6

# interference presets: high drives paging far past any profiled boundary
# (a ~20-25x service-time hit, so a conns-aware scheduler starves the node
# to a sub-1% request share), low stays under theta x boundary for every model
HIGH_INTERFERENCE_MIB = 93
HIGH_INTERFERENCE_RATE = 145000.0
LOW_INTERFERENCE_MIB = 40
LOW_INTERFERENCE_RATE = 2000.0

# boundaries measured by `enclaveserve profile <model> --slo <ms>` at the
# default sweep, t_ref 1e4; regenerate after changing a profile
PROFILED_BOUNDARIES: dict[str, float] = {
    "mobilenet_v1_float": 4950.0,
    "mobilenet_v1_quant": 6844.4,
    "efficientnet_lite_float": 6403.8,
    "efficientnet_lite_quant": 5760.0,
}


@dataclass(frozen=True)
class NodeConfig:
    node_id: str
    epc_mib: int = DEFAULT_EPC_USABLE_BYTES // MIB


@dataclass(frozen=True)
class Placement:
    replica_id: str
    node_id: str


@dataclass(frozen=True)
class WorkloadSettings:
    rate_per_s: float
    payload_bytes: int = 64
    timeout_s: float = 10.0


@dataclass(frozen=True)
class InterferenceSettings:
    node_id: str
    windows: tuple[tuple[float, float], ...]
    epc_mib: int
    rate_pages_per_s: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration_s: float
    nodes: tuple[NodeConfig, ...]
    aecs_placements: tuple[Placement, ...]
    service_id: str
    model: str
    algorithm: str
    replica_placements: tuple[Placement, ...]
    workload: WorkloadSettings
    parallelism: int = 2
    seed: int = 0
    t_ref_pages_per_s: float = DEFAULT_T_REF_PAGES_PER_S
    slo: SloSettings | None = None
    autoscale: AutoscaleSettings = field(default_factory=AutoscaleSettings)
    interference: tuple[InterferenceSettings, ...] = ()
    capture_traffic: bool = False

    @property
    def profile(self) -> ModelProfile:
        return PRESETS[self.model]


_ALGORITHMS = ("rr", "lc", "sed", "sgx_aware")


def _require_finite(value, where: str) -> None:
    """Raise ConfigInvalid naming the first number in `value`, a config
    section, tuple or scalar, that is infinite or NaN."""
    if dataclasses.is_dataclass(value):
        keys = {name: key for key, name in _KEYS.get(type(value), {}).items()}
        for f in dataclasses.fields(value):
            _require_finite(getattr(value, f.name), f"{where}.{keys.get(f.name, f.name)}")
    elif isinstance(value, tuple):
        for item in value:
            _require_finite(item, f"{where}[]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigInvalid(f"{where} must be a finite number")


def validate(config: ScenarioConfig) -> ScenarioConfig:
    _require_finite(config, "scenario")
    node_ids = [n.node_id for n in config.nodes]
    if not node_ids:
        raise ConfigInvalid("cluster needs at least one node")
    if len(set(node_ids)) != len(node_ids):
        raise ConfigInvalid("duplicate node ids")
    if any(n.epc_mib < 1 for n in config.nodes):
        raise ConfigInvalid("node epc_mib must be >= 1")
    if config.duration_s <= 0:
        raise ConfigInvalid("duration_s must be positive")
    if config.t_ref_pages_per_s <= 0:
        raise ConfigInvalid("cluster.t_ref_pages_per_s must be positive")
    if config.model not in PRESETS:
        raise ConfigInvalid(f"unknown model preset {config.model!r}")
    if config.algorithm not in _ALGORITHMS:
        raise ConfigInvalid(f"algorithm must be one of {_ALGORITHMS}")
    if config.parallelism < 1:
        raise ConfigInvalid("parallelism must be >= 1")
    if not config.replica_placements:
        raise ConfigInvalid("service needs at least one replica placement")
    for placement in config.replica_placements + config.aecs_placements:
        if placement.node_id not in node_ids:
            raise ConfigInvalid(f"placement references unknown node {placement.node_id!r}")
    replica_ids = [p.replica_id for p in config.replica_placements]
    if len(set(replica_ids)) != len(replica_ids):
        raise ConfigInvalid("duplicate replica ids")
    if not config.aecs_placements:
        raise ConfigInvalid("need at least one keystore replica")
    aecs_ids = [p.replica_id for p in config.aecs_placements]
    if len(set(aecs_ids)) != len(aecs_ids):
        raise ConfigInvalid("duplicate keystore replica ids")
    if config.algorithm == "sgx_aware" and config.slo is None:
        raise ConfigInvalid("sgx_aware scheduling requires policies.slo")
    if config.slo is not None:
        if config.slo.boundary_pages_per_s <= 0:
            raise ConfigInvalid("slo boundary must be positive")
        if not 0 < config.slo.theta <= 1:
            raise ConfigInvalid("slo theta must be in (0, 1]")
        if config.slo.consecutive_cycles < 1 or config.slo.sample_interval_s <= 0:
            raise ConfigInvalid("slo cycles/interval out of range")
    if config.autoscale.enabled:
        autoscale = config.autoscale
        if not 1 <= autoscale.min_replicas <= autoscale.max_replicas <= len(replica_ids):
            raise ConfigInvalid(
                "autoscale needs 1 <= min_replicas <= max_replicas <= the replica placements"
            )
        if not 0 < autoscale.target_utilization <= 1 or autoscale.cooldown_s < 0:
            raise ConfigInvalid("autoscale target_utilization must be in (0, 1], cooldown_s >= 0")
    if config.workload.rate_per_s <= 0 or config.workload.timeout_s <= 0:
        raise ConfigInvalid("workload rate and timeout must be positive")
    if config.workload.payload_bytes < 1:
        raise ConfigInvalid("workload payload_bytes must be >= 1")
    # the response record, the larger of the two, must fit one frame
    if config.workload.payload_bytes + RESPONSE_HEADER.size + RECORD_OVERHEAD > MAX_FRAME:
        raise ConfigInvalid(f"workload payload_bytes too large for a {MAX_FRAME}-byte frame")
    for script in config.interference:
        if script.node_id not in node_ids:
            raise ConfigInvalid(f"interference references unknown node {script.node_id!r}")
        last_end = 0.0
        for start, end in script.windows:
            if start < last_end or end <= start or end > config.duration_s:
                raise ConfigInvalid(
                    "interference windows must be ordered, non-overlapping, within the run"
                )
            last_end = end
        if script.epc_mib <= 0 or script.rate_pages_per_s < 0:
            raise ConfigInvalid("interference size/rate out of range")
    return config


# -- YAML loading ----------------------------------------------------------------


# YAML key -> field, for each section whose keys and fields differ
_KEYS: dict[type, dict[str, str]] = {
    NodeConfig: {"id": "node_id"},
    Placement: {"id": "replica_id", "node": "node_id"},
    InterferenceSettings: {"node": "node_id"},
    ScenarioConfig: {
        "cluster.t_ref_pages_per_s": "t_ref_pages_per_s",
        "cluster.nodes": "nodes",
        "aecs.replicas": "aecs_placements",
        "service.id": "service_id",
        "service.model": "model",
        "service.algorithm": "algorithm",
        "service.parallelism": "parallelism",
        "service.replicas": "replica_placements",
        "policies.slo": "slo",
        "policies.autoscale": "autoscale",
    },
}
# the YAML mappings that group ScenarioConfig's own fields
_GROUPS = {key.split(".")[0] for key in _KEYS[ScenarioConfig]}


def _section(cls, raw, where: str):
    """Build the dataclass `cls` from the YAML mapping `raw`.

    Each value is converted to its field's type. A missing key takes the
    field's default, and a key that names no field raises ConfigInvalid.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{where} must be a mapping")
    keys = _KEYS.get(cls, {})
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        name = keys.get(key, key)
        # a renamed field is set only by its own YAML key
        if name not in types or (key not in keys and name in keys.values()):
            raise ConfigInvalid(f"unknown key {key!r} in {where}")
        kwargs[name] = _value(types[name], value, f"{where}.{key}")
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            key = next((k for k, name in keys.items() if name == f.name), f.name)
            raise ConfigInvalid(f"missing {key!r} in {where}")
    return cls(**kwargs)


def _value(tp, value, where: str):
    """`value` as the type `tp`: a section, an optional, a tuple or a scalar."""
    args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _section(tp, value, where)
    if type(None) in args:
        return None if value is None else _value(args[0], value, where)
    if args and args[-1] is Ellipsis:
        return tuple(_value(args[0], item, f"{where}[]") for item in value)
    if args:
        return tuple(_value(a, v, where) for a, v in zip(args, value, strict=True))
    if tp is str:
        return str(value)
    # YAML has typed the scalar already: a bool field takes a bool, an int
    # field an int, and a float field an int or a float (a bool is no number)
    takes = (int, float) if tp is float else tp
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, takes):
        raise ConfigInvalid(f"{where} must be of type {tp.__name__}, not {value!r}")
    try:
        return tp(value)
    except OverflowError as exc:  # an int past the range of a float
        raise ConfigInvalid(f"{where}: {exc}") from exc


def from_dict(raw: dict) -> ScenarioConfig:
    try:
        # lift each group's keys to the top level as "group.key"
        flat = {}
        for key, value in raw.items():
            if key in _GROUPS:
                if not isinstance(value, dict):
                    raise ConfigInvalid(f"{key} must be a mapping")
                flat.update({f"{key}.{sub}": v for sub, v in value.items()})
            else:
                flat[key] = value
        config = _section(ScenarioConfig, flat, "scenario")
    except ConfigInvalid:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed scenario: {exc}") from exc
    return validate(config)


def load_scenario(path: Path | str) -> ScenarioConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigInvalid(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("scenario file must hold a mapping")
    return from_dict(raw)


# -- preset builders ------------------------------------------------------------


# the preset cluster: three nodes with one replica slot each
_NODES = tuple(NodeConfig(node_id) for node_id in ("node-a", "node-b", "node-c"))
_REPLICAS = tuple(Placement(f"r{i}", node.node_id) for i, node in enumerate(_NODES))


def per_replica_capacity(model: str, parallelism: int) -> float:
    return parallelism / PRESETS[model].base_time_s


def lb_rate(model: str) -> float:
    """60% of two-replica capacity at the default parallelism, matching the
    comparison setup."""
    return LOAD_FRACTION * 2 * per_replica_capacity(model, ScenarioConfig.parallelism)


def build_lb_scenario(
    model: str,
    algorithm: str,
    interference_level: str,
    seed: int = 0,
    *,
    capture_traffic: bool = False,
) -> ScenarioConfig:
    """Three replicas on three nodes; scripted interference on node-a."""
    if interference_level not in ("high", "low", "none"):
        raise ConfigInvalid("interference_level must be high, low, or none")
    if model not in PRESETS:
        raise ConfigInvalid(f"unknown model preset {model!r}")
    interference: tuple[InterferenceSettings, ...] = ()
    if interference_level == "high":
        interference = (
            InterferenceSettings("node-a", SCALED_WINDOWS, HIGH_INTERFERENCE_MIB, HIGH_INTERFERENCE_RATE),
        )
    elif interference_level == "low":
        interference = (
            InterferenceSettings("node-a", SCALED_WINDOWS, LOW_INTERFERENCE_MIB, LOW_INTERFERENCE_RATE),
        )
    return validate(
        ScenarioConfig(
            name=f"lb-{interference_level}-{model}-{algorithm}",
            seed=seed,
            duration_s=SCALED_DURATION_S,
            nodes=_NODES,
            aecs_placements=(Placement("aecs-0", "node-b"),),
            service_id="imgclass",
            model=model,
            algorithm=algorithm,
            replica_placements=_REPLICAS,
            workload=WorkloadSettings(rate_per_s=lb_rate(model)),
            slo=SloSettings(boundary_pages_per_s=PROFILED_BOUNDARIES[model]),
            interference=interference,
            capture_traffic=capture_traffic,
        )
    )


SCALING_PARALLELISM = 8
SCALING_LOAD_FRACTION = 0.3


def build_scaling_scenario(model: str, replicas: int, seed: int = 0) -> ScenarioConfig:
    """n wide replicas at 30% of their aggregate capacity, no interference.

    Load scales with the replica count while per-replica utilization stays
    low enough that queueing is negligible at either count, which is what
    lets both the throughput and the tail comparison mean something.
    """
    if model not in PRESETS:
        raise ConfigInvalid(f"unknown model preset {model!r}")
    if not 1 <= replicas <= 3:
        raise ConfigInvalid("scaling scenario supports 1..3 replicas")
    rate = SCALING_LOAD_FRACTION * replicas * per_replica_capacity(model, SCALING_PARALLELISM)
    return validate(
        ScenarioConfig(
            name=f"scaling-{model}-{replicas}x",
            seed=seed,
            duration_s=SCALED_DURATION_S,
            nodes=_NODES,
            aecs_placements=(Placement("aecs-0", "node-b"),),
            service_id="imgclass",
            model=model,
            algorithm="sed",
            parallelism=SCALING_PARALLELISM,
            replica_placements=_REPLICAS[:replicas],
            workload=WorkloadSettings(rate_per_s=rate),
            slo=SloSettings(boundary_pages_per_s=PROFILED_BOUNDARIES[model]),
        )
    )
