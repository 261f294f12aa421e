"""Command-line entry points.

    enclaveserve run <scenario.yaml> [--seed N] [--clock real|virtual] [--out DIR]
    enclaveserve profile <model> --slo MS [--seed N] [--out DIR]
    enclaveserve report <dir>
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .aecs.store import DirectoryStore
from .control.errors import SloUnattainable
from .control.profiler import profile_boundary
from .harness.errors import ConfigInvalid, HarnessError, IoFailure
from .harness.report import emit_report, render_summary, summarize_dir
from .harness.runner import run_scenario
from .harness.runner_real import run_scenario_real
from .harness.scenario import load_scenario
from .profiles import PRESETS


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        store = DirectoryStore(Path(args.out) / "store") if args.out else None
    except OSError as exc:
        raise IoFailure(f"cannot write report to {args.out}: {exc}") from exc
    if args.clock == "real":
        report = run_scenario_real(config, store=store)
    else:
        report = run_scenario(config, store=store)
    summary = render_summary(report)
    if args.out:
        paths = emit_report(report, args.out)
        print(f"wrote {', '.join(str(p) for p in paths.values())}")
    sys.stdout.write(summary)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.model not in PRESETS:
        choices = ", ".join(sorted(PRESETS))
        raise ConfigInvalid(f"unknown model {args.model!r}; choose from {choices}")
    profile, boundary = profile_boundary(
        PRESETS[args.model], args.slo / 1000.0, seed=args.seed
    )
    lines = ["interference_epc_bytes,avg_paging_throughput,p90,p95,p99"]
    for point in profile.points:
        lines.append(
            f"{point.interference_epc_bytes},{point.avg_paging_throughput!r},"
            f"{point.p90!r},{point.p95!r},{point.p99!r}"
        )
    body = "\n".join(lines) + f"\nboundary_pages_per_s={boundary!r}\n"
    if args.out:
        path = Path(args.out) / f"profile-{args.model}.csv"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body)
        except OSError as exc:
            raise IoFailure(f"cannot write profile to {args.out}: {exc}") from exc
        print(f"wrote {path}")
    sys.stdout.write(body)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    sys.stdout.write(summarize_dir(args.dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="enclaveserve")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario file")
    run_parser.add_argument("scenario", help="path to a scenario YAML file")
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--clock", choices=("real", "virtual"), default="virtual")
    run_parser.add_argument("--out", default=None, help="directory for CSV artifacts")
    run_parser.set_defaults(func=_cmd_run)

    profile_parser = sub.add_parser("profile", help="profile a model's paging boundary")
    profile_parser.add_argument("model", help="model preset id")
    profile_parser.add_argument("--slo", type=float, required=True, help="SLO p99 in ms")
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument("--out", default=None)
    profile_parser.set_defaults(func=_cmd_profile)

    report_parser = sub.add_parser("report", help="summarize an emitted report directory")
    report_parser.add_argument("dir")
    report_parser.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HarnessError, SloUnattainable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
