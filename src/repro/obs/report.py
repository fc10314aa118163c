"""Text summary reports over observability artifacts, and their CLI.

``python -m repro.obs report`` renders any combination of:

- ``--metrics snapshot.json`` — a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot (format ``repro.obs/v1``),
- ``--trace trace.jsonl`` — a :class:`~repro.obs.trace.TraceRecorder`
  export (format ``repro.obs.trace/v1``), aggregated per span name,
- ``--workload workload.jsonl`` — a
  :class:`~repro.obs.workload.WorkloadRecorder` log (format
  ``repro.obs.workload/v1``), summarized per engine and latency bucket.

Exit codes: 0 on success, 2 on bad arguments or an unreadable/mis-formatted
file (one actionable line on stderr, matching the main ``repro.cli``
convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.exceptions import ConfigurationError, ReproError
from repro.obs.metrics import METRICS_FORMAT
from repro.obs.trace import parse_trace_jsonl
from repro.obs.workload import WorkloadRecorder

__all__ = ["format_metrics", "format_trace", "format_workload", "main"]


def format_metrics(snapshot: dict[str, Any]) -> str:
    """Render a ``repro.obs/v1`` metrics snapshot as aligned text."""
    if snapshot.get("format") != METRICS_FORMAT:
        raise ConfigurationError(
            f"not a {METRICS_FORMAT} metrics snapshot "
            f"(format={snapshot.get('format')!r})"
        )
    lines = ["metrics:"]
    for series in snapshot.get("counters", ()):
        lines.append(f"  counter   {_series_label(series):44s} {series['value']}")
    for series in snapshot.get("gauges", ()):
        lines.append(f"  gauge     {_series_label(series):44s} {series['value']}")
    for series in snapshot.get("histograms", ()):
        mean = series["sum"] / series["count"] if series["count"] else 0.0
        lines.append(
            f"  histogram {_series_label(series):44s} "
            f"count={series['count']} mean={mean:.6f}s"
        )
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


def _series_label(series: dict[str, Any]) -> str:
    labels = series.get("labels") or {}
    if not labels:
        return str(series["name"])
    rendered = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{series['name']}{{{rendered}}}"


def format_trace(text: str) -> str:
    """Aggregate a trace export per span name: count and total duration."""
    header, spans = parse_trace_jsonl(text)
    totals: dict[str, list[float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += span["duration"]
    lines = [
        f"trace: {header['n_spans']} spans ({header['n_dropped']} dropped at the "
        f"buffer bound)"
    ]
    for name in sorted(totals):
        count, duration = totals[name]
        lines.append(f"  {name:40s} n={int(count):<8d} total={duration:.6f}s")
    if not totals:
        lines.append("  (no spans)")
    return "\n".join(lines)


def format_workload(recorder: WorkloadRecorder) -> str:
    """Summarize a workload log per engine and latency bucket."""
    records = recorder.records()
    by_engine: dict[str, int] = {}
    by_bucket: dict[str, int] = {}
    n_satisfactory = 0
    n_failed = 0
    for record in records:
        by_engine[record["engine"]] = by_engine.get(record["engine"], 0) + 1
        bucket = record["latency_bucket"]
        by_bucket[bucket] = by_bucket.get(bucket, 0) + 1
        if record.get("failed"):
            n_failed += 1
        elif record["satisfactory"]:
            n_satisfactory += 1
    lines = [
        f"workload: {len(records)} queries "
        f"({n_satisfactory} already satisfactory, {n_failed} failed)"
    ]
    for label, counts in (("engine", by_engine), ("latency", by_bucket)):
        for key in sorted(counts):
            lines.append(f"  {label:8s} {key:40s} n={counts[key]}")
    if not records:
        lines.append("  (no queries)")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Reports over repro observability artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report", help="render metrics / trace / workload files as a text summary"
    )
    report.add_argument("--metrics", metavar="PATH", help="repro.obs/v1 snapshot JSON")
    report.add_argument("--trace", metavar="PATH", help="repro.obs.trace/v1 JSONL export")
    report.add_argument(
        "--workload", metavar="PATH", help="repro.obs.workload/v1 JSONL log"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (args.metrics or args.trace or args.workload):
        print(
            "nothing to report: pass at least one of --metrics / --trace / --workload",
            file=sys.stderr,
        )
        return 2
    sections: list[str] = []
    try:
        if args.metrics:
            sections.append(
                format_metrics(json.loads(Path(args.metrics).read_text(encoding="utf-8")))
            )
        if args.trace:
            sections.append(format_trace(Path(args.trace).read_text(encoding="utf-8")))
        if args.workload:
            sections.append(format_workload(WorkloadRecorder.load(args.workload)))
    except (OSError, json.JSONDecodeError, ReproError) as error:
        print(f"repro.obs report: {error}", file=sys.stderr)
        return 2
    print("\n\n".join(sections))
    return 0
