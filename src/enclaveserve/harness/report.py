"""Report emission: raw CSVs plus a plain-text summary.

Columns and line order are stable, and floats are written with `repr` so
values round-trip exactly; re-emitting the same report is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from ..control.telemetry import EPC_CSV_HEADER, SERVICE_CSV_HEADER
from .errors import EmptySamples, IoFailure
from .metrics import RunReport, percentile

LATENCIES_HEADER = "send_ts,complete_ts,endpoint,latency,status"
WEIGHTS_HEADER = "ts,endpoint,old_weight,new_weight,reason"


def render_latencies(report: RunReport) -> str:
    lines = [LATENCIES_HEADER]
    for r in report.records:
        lines.append(f"{r.send_ts!r},{r.complete_ts!r},{r.endpoint},{r.latency!r},{r.status}")
    return "\n".join(lines) + "\n"


def render_weights(report: RunReport) -> str:
    lines = [WEIGHTS_HEADER]
    for event in report.weight_events:
        lines.append(f"{event.ts!r},{event.endpoint_id},{event.old},{event.new},{event.reason}")
    return "\n".join(lines) + "\n"


def render_epc(report: RunReport) -> str:
    return "\n".join([EPC_CSV_HEADER] + report.epc_rows) + "\n"


def render_service(report: RunReport) -> str:
    return "\n".join([SERVICE_CSV_HEADER] + report.service_rows) + "\n"


def render_summary(report: RunReport) -> str:
    try:
        p90 = repr(report.percentile(90))
        p95 = repr(report.percentile(95))
        p99 = repr(report.percentile(99))
    except EmptySamples:
        p90 = p95 = p99 = "nan"
    lines = [
        f"scenario={report.scenario}",
        f"seed={report.seed}",
        f"model={report.model}",
        f"algorithm={report.algorithm}",
        f"duration_s={report.duration_s!r}",
        f"sent={report.sent}",
        f"completed={report.completed}",
        f"timed_out={report.timed_out}",
        f"rejected={report.rejected}",
        f"in_flight_at_cutoff={report.in_flight_at_cutoff}",
        f"throughput_rps={report.throughput_rps!r}",
        f"p90_s={p90}",
        f"p95_s={p95}",
        f"p99_s={p99}",
        f"slo_s={report.slo_s!r}",
        f"slo_met={'true' if report.records and report.slo_met else 'false'}",
        f"weight_changes={len(report.weight_events)}",
    ]
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir: Path | str) -> dict[str, Path]:
    """Write latencies.csv, weights.csv, epc.csv, service.csv, summary.txt."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "latencies": out / "latencies.csv",
            "weights": out / "weights.csv",
            "epc": out / "epc.csv",
            "service": out / "service.csv",
            "summary": out / "summary.txt",
        }
        paths["latencies"].write_text(render_latencies(report))
        paths["weights"].write_text(render_weights(report))
        paths["epc"].write_text(render_epc(report))
        paths["service"].write_text(render_service(report))
        paths["summary"].write_text(render_summary(report))
        return paths
    except OSError as exc:
        raise IoFailure(f"cannot write report to {out}: {exc}") from exc


def load_latencies(out_dir: Path | str) -> list[tuple[float, str]]:
    """Read (latency, status) rows back from an emitted latencies.csv."""
    path = Path(out_dir) / "latencies.csv"
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != LATENCIES_HEADER:
        raise IoFailure(f"{path} does not look like a latencies file")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            _, _, _, latency, status = line.split(",")
            rows.append((float(latency), status))
        except ValueError as exc:
            raise IoFailure(f"{path} line {number}: not a latency row: {line!r}") from exc
    return rows


def summarize_dir(out_dir: Path | str) -> str:
    """Recompute a percentile summary from an emitted report directory."""
    rows = load_latencies(out_dir)
    latencies = [lat for lat, _ in rows]
    completed = sum(1 for _, status in rows if status == "ok")
    lines = [
        f"records={len(rows)}",
        f"completed={completed}",
        f"p90_s={repr(percentile(latencies, 90)) if latencies else 'nan'}",
        f"p95_s={repr(percentile(latencies, 95)) if latencies else 'nan'}",
        f"p99_s={repr(percentile(latencies, 99)) if latencies else 'nan'}",
    ]
    return "\n".join(lines) + "\n"
