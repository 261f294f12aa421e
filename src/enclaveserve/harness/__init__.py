from .errors import ConfigInvalid, EmptySamples, HarnessError, IoFailure, ScenarioFailed
from .metrics import (
    Recorder,
    RequestRecord,
    RunReport,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    percentile,
)
from .report import emit_report, load_latencies, render_summary, summarize_dir
from .runner import VirtualRunner, run_scenario
from .runner_real import RealRunner, run_scenario_real
from .scenario import (
    ScenarioConfig,
    build_lb_scenario,
    build_scaling_scenario,
    from_dict,
    lb_rate,
    load_scenario,
    validate,
)
from .workload import generate_arrivals, request_payload

__all__ = [
    "ConfigInvalid",
    "EmptySamples",
    "HarnessError",
    "IoFailure",
    "Recorder",
    "RealRunner",
    "RequestRecord",
    "RunReport",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "ScenarioConfig",
    "ScenarioFailed",
    "VirtualRunner",
    "build_lb_scenario",
    "build_scaling_scenario",
    "emit_report",
    "from_dict",
    "generate_arrivals",
    "lb_rate",
    "load_latencies",
    "load_scenario",
    "percentile",
    "render_summary",
    "request_payload",
    "run_scenario",
    "run_scenario_real",
    "summarize_dir",
    "validate",
]
