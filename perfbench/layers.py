"""Per-layer metrics of a traced run.

The layers are the program's six subpackages: channel, serving, aecs,
substrate, control and harness (the event loop in `clock` counts under
harness). README.md beside this file says which end-to-end metric each one
should move, and on which workload.
"""

from __future__ import annotations

import collections
import statistics

from tracing import self_times
from workloads import percentile

UNITS = {
    "channel.handshake_calls": "count",
    "channel.handshake_us": "us",
    "channel.handshake_share": "ratio",
    "channel.records": "count",
    "channel.record_bytes": "bytes",
    "channel.seal_us": "us",
    "channel.open_us": "us",
    "channel.connect_ms": "ms",
    "channel.client_handshake_ms": "ms",
    "channel.server_handshake_ms": "ms",
    "channel.request_wait_ms": "ms",
    "channel.response_ms": "ms",
    "serving.pick_calls": "count",
    "serving.pick_us": "us",
    "serving.rejects": "count",
    "serving.pick_ok_ratio": "ratio",
    "serving.queue_ms": "ms",
    "serving.service_ms": "ms",
    "serving.replica_starts": "count",
    "serving.provision_ms": "ms",
    "aecs.bootstrap_ms": "ms",
    "aecs.create_ms": "ms",
    "aecs.get_cert_ms": "ms",
    "aecs.provision_ms": "ms",
    "aecs.store_gets": "count",
    "aecs.store_puts": "count",
    "aecs.cas_conflicts": "count",
    "aecs.cas_ok_ratio": "ratio",
    "aecs.keymap_bytes": "bytes",
    "substrate.service_latency_calls": "count",
    "substrate.service_latency_us": "us",
    "substrate.paging_state_us": "us",
    "substrate.report_us": "us",
    "substrate.seal_us": "us",
    "control.collect_calls": "count",
    "control.collect_us": "us",
    "control.slo_step_us": "us",
    "control.weight_changes": "count",
    "control.telemetry_gaps": "count",
    "control.missing_cycles": "count",
    "harness.events": "count",
    "harness.event_self_us": "us",
    "harness.emit_ms": "ms",
    "harness.gen_late_p50_ms": "ms",
    "harness.gen_late_p99_ms": "ms",
    "harness.threads_peak": "count",
    "harness.trace_overhead": "ratio",
}

# phases of one real-clock request, in the order they happen
PHASES = ("gen_late", "start", "connect", "client_handshake", "request_wait",
          "queue", "service", "response", "other")


class _Spans:
    def __init__(self, spans) -> None:
        self.calls: collections.Counter = collections.Counter()
        self.total: collections.Counter = collections.Counter()
        for _, name, start, end, _, _ in spans:
            self.calls[name] += 1
            self.total[name] += end - start

    def mean(self, name: str, scale: float) -> float:
        calls = self.calls[name]
        return self.total[name] / calls * scale if calls else 0.0


def _scaled_wall(runs) -> float:
    """Loop wall time times calibrated machine speed, so that two sets of
    runs made a minute apart compare as if made at one speed."""
    return sum(run.loop_wall_s * run.calibration.speed for run in runs)


def per_layer(
    tracer, plain_runs, virtual_runs, real, phases, threads_peak: int
) -> dict[str, float]:
    """Every metric in UNITS, from the traced virtual runs, the traced real
    run and its request phases, and the untraced virtual runs of the same
    seed (`plain_runs`)."""
    spans = _Spans(tracer.spans)
    counts = tracer.counts
    us, ms = 1e6, 1e3
    traced_wall = sum(run.loop_wall_s for run in virtual_runs)
    event_ids = {span[0] for span in tracer.spans if span[1] == "harness.event"}
    event_self = [t for sid, t in self_times(tracer.spans).items() if sid in event_ids]

    def phase_p50(name: str) -> float:
        return statistics.median(p[name] for p in phases) * ms if phases else 0.0

    picks = spans.calls["serving.pick"]
    rejects = counts["serving.pick.errors"]
    puts = counts["store.puts"]
    controllers = [run.runner.controller for run in virtual_runs] + [real.runner.controller]
    reports = [run.report for run in virtual_runs] + [real.report]
    return {
        "channel.handshake_calls": spans.calls["channel.handshake"]
        + spans.calls["channel.client_handshake"],
        "channel.handshake_us": spans.mean("channel.handshake", us),
        "channel.handshake_share": spans.total["channel.handshake"] / traced_wall,
        "channel.records": spans.calls["channel.seal"],
        "channel.record_bytes": counts["record_bytes"],
        "channel.seal_us": spans.mean("channel.seal", us),
        "channel.open_us": spans.mean("channel.open", us),
        "channel.connect_ms": phase_p50("connect"),
        "channel.client_handshake_ms": phase_p50("client_handshake"),
        "channel.server_handshake_ms": phase_p50("server_handshake"),
        "channel.request_wait_ms": phase_p50("request_wait"),
        "channel.response_ms": phase_p50("response"),
        "serving.pick_calls": picks,
        "serving.pick_us": spans.mean("serving.pick", us),
        "serving.rejects": rejects,
        "serving.pick_ok_ratio": (picks - rejects) / picks if picks else 0.0,
        "serving.queue_ms": phase_p50("queue"),
        "serving.service_ms": phase_p50("service"),
        "serving.replica_starts": spans.calls["serving.start_replica"],
        "serving.provision_ms": spans.mean("serving.start_replica", ms),
        "aecs.bootstrap_ms": spans.mean("aecs.bootstrap", ms),
        "aecs.create_ms": spans.mean("aecs.create", ms),
        "aecs.get_cert_ms": spans.mean("aecs.get_cert", ms),
        "aecs.provision_ms": spans.mean("aecs.provision", ms),
        "aecs.store_gets": counts["store.gets"],
        "aecs.store_puts": puts,
        "aecs.cas_conflicts": counts["store.conflicts"],
        "aecs.cas_ok_ratio": (puts - counts["store.conflicts"]) / puts if puts else 0.0,
        "aecs.keymap_bytes": counts["store.keymap_bytes"],
        "substrate.service_latency_calls": spans.calls["substrate.service_latency"],
        "substrate.service_latency_us": spans.mean("substrate.service_latency", us),
        "substrate.paging_state_us": spans.mean("substrate.paging_state", us),
        "substrate.report_us": spans.mean("substrate.report", us),
        "substrate.seal_us": spans.mean("substrate.seal", us),
        "control.collect_calls": spans.calls["control.collect"],
        "control.collect_us": spans.mean("control.collect", us),
        "control.slo_step_us": spans.mean("control.slo_step", us),
        "control.weight_changes": sum(len(report.weight_events) for report in reports),
        "control.telemetry_gaps": sum(run.runner.telemetry_gaps for run in virtual_runs),
        "control.missing_cycles": sum(c.missing_cycles for c in controllers if c is not None),
        "harness.events": len(event_ids),
        "harness.event_self_us": statistics.fmean(event_self) * us if event_self else 0.0,
        "harness.emit_ms": statistics.fmean(run.emit_s for run in virtual_runs) * ms,
        "harness.gen_late_p50_ms": percentile(real.lateness, 50) * ms,
        "harness.gen_late_p99_ms": percentile(real.lateness, 99) * ms,
        "harness.threads_peak": threads_peak,
        "harness.trace_overhead": _scaled_wall(virtual_runs) / _scaled_wall(plain_runs),
    }


def print_breakdown(tracer, real, phases) -> None:
    """Self time by layer, and where a real-clock request's time goes."""
    by_layer: collections.Counter = collections.Counter()
    for span, self_time in zip(tracer.spans, self_times(tracer.spans).values()):
        by_layer[span[1].split(".")[0]] += self_time
    print("self_s_by_layer " + " ".join(f"{k}={v:.3f}" for k, v in sorted(by_layer.items())))
    if not phases:
        print("request phases: none traced")
        return
    for q in (50, 99):
        cells = " ".join(
            f"{name}={percentile([p[name] for p in phases], q) * 1e3:.2f}" for name in PHASES
        )
        print(f"request_phases_p{q}_ms n={len(phases)} {cells}")
    named = [name for name in PHASES if name != "other"]
    phase_sum = sum(statistics.median(p[name] for p in phases) for name in named)
    print(
        f"sum_of_phase_p50s_ms={phase_sum * 1e3:.2f} "
        f"traced_due_p50_ms={percentile(real.due_latencies, 50) * 1e3:.2f}"
    )
