"""Workload generation, scenario runner, latency reports, CLI."""

# the six names the benchmark imports from the package, kept until it imports them from their modules
from .metrics import STATUS_OK
from .report import emit_report
from .runner import VirtualRunner
from .runner_real import RealRunner
from .scenario import build_lb_scenario, validate
