"""Chart the benchmark / cost-profile artifact trajectory across CI runs.

CI uploads ``BENCH_smoke.json`` (pytest-benchmark format),
``COST_PROFILE_smoke.json`` / ``COST_PROFILE_tuned.json``
(``repro-cost-profile`` format), ``SERVICE_smoke.json`` (the traffic
benchmark report) and ``METRICS_smoke.json`` (``repro-metrics`` registry
snapshot) per run.  Point this script at any number of those files — one
run's worth, or a directory of downloaded artifacts spanning many runs —
and it renders the trajectory:

* per-benchmark mean seconds over runs (planned vs unplanned, cold vs warm
  planning, hash vs index-nested-loop join timings),
* the fitted cost constants per engine over runs,
* the planner's chosen join orders and estimated-vs-actual join
  cardinalities carried in the benchmarks' ``extra_info``,
* the query service's plan-cache hit rate and warm p95 request latency
  over runs, read from the service reports and metrics snapshots.

Outputs ``<prefix>.md`` always, ``<prefix>.svg`` with a dependency-free
hand-rolled line chart (matplotlib is used when available, but never
required), and — when service/metrics artifacts are given —
``<prefix>_service.svg`` with the linear-scale hit-rate chart.  Usage::

    python benchmarks/plot_trajectory.py \
        --bench BENCH_smoke.json --profiles COST_PROFILE_smoke.json \
        --service SERVICE_smoke.json --metrics METRICS_smoke.json \
        --output TRAJECTORY_smoke
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------------- #
# Artifact loading
# --------------------------------------------------------------------------- #


def load_bench_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Load pytest-benchmark JSON files, sorted by their recorded datetime."""
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        runs.append(
            {
                "path": path,
                "datetime": document.get("datetime", ""),
                "benchmarks": document.get("benchmarks", []),
            }
        )
    runs.sort(key=lambda run: (run["datetime"], run["path"]))
    return runs


def load_profile_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Load cost-profile JSON files in the given order."""
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("format") != "repro-cost-profile":
            continue
        runs.append(
            {
                "path": path,
                "engines": document.get("engines", {}),
                "metadata": document.get("metadata", {}),
            }
        )
    return runs


def load_service_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Load traffic-benchmark reports (``python -m repro.service`` output)."""
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if "cache" not in document or "latency_seconds" not in document:
            continue
        runs.append(
            {
                "path": path,
                "requests": document.get("requests"),
                "hit_rate": document.get("cache", {}).get("hit_rate"),
                "warm_p95": document.get("latency_seconds", {}).get("warm_p95"),
                "replans": document.get("replans"),
            }
        )
    return runs


def load_metrics_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Load ``repro-metrics`` registry snapshots (``METRICS_*.json``).

    Hit rate comes from the ``repro.plan_cache.hits`` / ``.misses``
    counters; warm p95 from the ``repro.service.request_seconds`` histogram
    labelled ``cache="hit"``.
    """
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("format") != "repro-metrics":
            continue
        counters = document.get("counters", {})
        hits = counters.get("repro.plan_cache.hits", 0)
        misses = counters.get("repro.plan_cache.misses", 0)
        lookups = hits + misses
        histograms = document.get("histograms", {})
        warm = histograms.get('repro.service.request_seconds{cache="hit"}', {})
        runs.append(
            {
                "path": path,
                "hit_rate": hits / lookups if lookups else None,
                "warm_p95": warm.get("p95"),
                "slow_queries": counters.get("repro.service.slow_queries", 0),
            }
        )
    return runs


def benchmark_key(benchmark: Dict[str, Any]) -> str:
    """A stable series key: test name with its parameter id."""
    return benchmark.get("fullname", benchmark.get("name", "?")).split("::")[-1]


def series_over_runs(runs: Sequence[Dict[str, Any]]) -> Dict[str, List[Optional[float]]]:
    """Mean seconds per benchmark key, one value per run (None when absent)."""
    keys: List[str] = []
    for run in runs:
        for benchmark in run["benchmarks"]:
            key = benchmark_key(benchmark)
            if key not in keys:
                keys.append(key)
    series: Dict[str, List[Optional[float]]] = {key: [] for key in keys}
    for run in runs:
        means = {
            benchmark_key(b): b.get("stats", {}).get("mean") for b in run["benchmarks"]
        }
        for key in keys:
            series[key].append(means.get(key))
    return series


# --------------------------------------------------------------------------- #
# Markdown report
# --------------------------------------------------------------------------- #


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{value:.3f}s" if value >= 1 else f"{value * 1e3:.3f}ms"


def render_markdown(
    bench_runs: Sequence[Dict[str, Any]],
    profile_runs: Sequence[Dict[str, Any]],
    service_runs: Sequence[Dict[str, Any]] = (),
    metrics_runs: Sequence[Dict[str, Any]] = (),
) -> str:
    lines = ["# Benchmark & cost-profile trajectory", ""]

    if bench_runs:
        lines.append(f"{len(bench_runs)} benchmark run(s):")
        for run in bench_runs:
            lines.append(f"- `{run['path']}` ({run['datetime'] or 'no timestamp'})")
        lines.append("")
        series = series_over_runs(bench_runs)
        header = "| benchmark | " + " | ".join(
            f"run {i + 1}" for i in range(len(bench_runs))
        )
        lines.append(header + " |")
        lines.append("|" + "---|" * (len(bench_runs) + 1))
        for key, values in sorted(series.items()):
            lines.append(
                f"| `{key}` | " + " | ".join(_fmt(v) for v in values) + " |"
            )
        lines.append("")

        lines.append("## Planner decisions (latest run)")
        lines.append("")
        latest = bench_runs[-1]
        for benchmark in latest["benchmarks"]:
            extra = benchmark.get("extra_info", {})
            interesting = {
                key: extra[key]
                for key in (
                    "join_order",
                    "hash_join_seconds",
                    "index_join_seconds",
                    "cold_plan_seconds",
                    "join_cardinalities",
                )
                if key in extra
            }
            if interesting:
                lines.append(f"- `{benchmark_key(benchmark)}`:")
                for key, value in interesting.items():
                    lines.append(f"  - {key}: `{value}`")
        lines.append("")

    if profile_runs:
        lines.append("## Fitted cost constants")
        lines.append("")
        for run in profile_runs:
            source = "self-tuned" if run["metadata"].get("self_tuned") else "calibrated"
            lines.append(f"### `{run['path']}` ({source})")
            lines.append("")
            engines = run["engines"]
            constants = sorted({c for model in engines.values() for c in model})
            lines.append("| engine | " + " | ".join(constants) + " |")
            lines.append("|" + "---|" * (len(constants) + 1))
            for engine, model in sorted(engines.items()):
                row = " | ".join(f"{model.get(c, float('nan')):.3f}" for c in constants)
                lines.append(f"| {engine} | {row} |")
            lines.append("")

    if service_runs:
        lines.append("## Query service (traffic benchmark reports)")
        lines.append("")
        lines.append("| run | requests | plan-cache hit rate | warm p95 | replans |")
        lines.append("|---|---|---|---|---|")
        for index, run in enumerate(service_runs):
            hit = "—" if run["hit_rate"] is None else f"{run['hit_rate']:.0%}"
            lines.append(
                f"| {index + 1} (`{run['path']}`) | {run['requests']} | {hit} "
                f"| {_fmt(run['warm_p95'])} | {run.get('replans', '—')} |"
            )
        lines.append("")

    if metrics_runs:
        lines.append("## Metrics snapshots (registry counters + histograms)")
        lines.append("")
        lines.append("| run | plan-cache hit rate | warm request p95 | slow queries |")
        lines.append("|---|---|---|---|")
        for index, run in enumerate(metrics_runs):
            hit = "—" if run["hit_rate"] is None else f"{run['hit_rate']:.0%}"
            lines.append(
                f"| {index + 1} (`{run['path']}`) | {hit} "
                f"| {_fmt(run['warm_p95'])} | {run['slow_queries']} |"
            )
        lines.append("")

    if not bench_runs and not profile_runs and not service_runs and not metrics_runs:
        lines.append("No artifacts found.")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Dependency-free SVG line chart
# --------------------------------------------------------------------------- #

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#9c755f", "#bab0ac", "#17becf",
)


def render_svg(series: Dict[str, List[Optional[float]]], title: str) -> str:
    """A log-scale line chart of seconds-per-benchmark over runs."""
    import math

    width, height = 960, 520
    margin_left, margin_right, margin_top, margin_bottom = 70, 340, 40, 40
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    values = [v for vs in series.values() for v in vs if v is not None and v > 0]
    if not values:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"><text x="20" y="40">no data</text></svg>'
    low, high = math.log10(min(values)), math.log10(max(values))
    if high - low < 1e-9:
        low, high = low - 0.5, high + 0.5
    run_count = max(len(vs) for vs in series.values())

    def x(run_index: int) -> float:
        if run_count == 1:
            return margin_left + plot_w / 2
        return margin_left + plot_w * run_index / (run_count - 1)

    def y(value: float) -> float:
        return margin_top + plot_h * (1 - (math.log10(value) - low) / (high - low))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{margin_left}" y="20" font-size="14">{title}</text>',
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#ccc"/>',
    ]
    # Log-decade gridlines and labels.
    decade = math.ceil(low)
    while decade <= high:
        gy = y(10 ** decade)
        parts.append(
            f'<line x1="{margin_left}" y1="{gy:.1f}" x2="{margin_left + plot_w}" '
            f'y2="{gy:.1f}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{gy + 4:.1f}" text-anchor="end">1e{decade}s</text>'
        )
        decade += 1
    for run_index in range(run_count):
        parts.append(
            f'<text x="{x(run_index):.1f}" y="{height - 14}" text-anchor="middle">'
            f"run {run_index + 1}</text>"
        )
    for index, (key, vs) in enumerate(sorted(series.items())):
        color = _PALETTE[index % len(_PALETTE)]
        points = [
            f"{x(i):.1f},{y(v):.1f}" for i, v in enumerate(vs) if v is not None and v > 0
        ]
        if not points:
            continue
        if len(points) == 1:
            cx, cy = points[0].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = margin_top + 14 * index
        parts.append(
            f'<line x1="{width - margin_right + 10}" y1="{ly}" '
            f'x2="{width - margin_right + 28}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        label = key if len(key) <= 44 else key[:41] + "…"
        parts.append(f'<text x="{width - margin_right + 32}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_hit_rate_svg(series: Dict[str, List[Optional[float]]], title: str) -> str:
    """A linear 0–100% chart for the plan-cache hit-rate series."""
    width, height = 720, 320
    margin_left, margin_right, margin_top, margin_bottom = 60, 260, 40, 40
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    run_count = max((len(vs) for vs in series.values()), default=1)

    def x(run_index: int) -> float:
        if run_count == 1:
            return margin_left + plot_w / 2
        return margin_left + plot_w * run_index / (run_count - 1)

    def y(value: float) -> float:
        return margin_top + plot_h * (1 - value)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{margin_left}" y="20" font-size="14">{title}</text>',
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#ccc"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = y(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{gy:.1f}" x2="{margin_left + plot_w}" '
            f'y2="{gy:.1f}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{gy + 4:.1f}" text-anchor="end">{tick:.0%}</text>'
        )
    for run_index in range(run_count):
        parts.append(
            f'<text x="{x(run_index):.1f}" y="{height - 14}" text-anchor="middle">'
            f"run {run_index + 1}</text>"
        )
    for index, (key, vs) in enumerate(sorted(series.items())):
        color = _PALETTE[index % len(_PALETTE)]
        points = [f"{x(i):.1f},{y(v):.1f}" for i, v in enumerate(vs) if v is not None]
        if not points:
            continue
        if len(points) == 1:
            cx, cy = points[0].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = margin_top + 14 * index
        parts.append(
            f'<line x1="{width - margin_right + 10}" y1="{ly}" '
            f'x2="{width - margin_right + 28}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - margin_right + 32}" y="{ly + 4}">{key}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_svg_matplotlib(series, title, path) -> bool:
    """Prefer matplotlib when the environment has it; never require it."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    figure, axis = plt.subplots(figsize=(11, 6))
    for key, vs in sorted(series.items()):
        xs = [i for i, v in enumerate(vs) if v is not None]
        ys = [v for v in vs if v is not None]
        if ys:
            axis.plot(xs, ys, marker="o", label=key)
    axis.set_yscale("log")
    axis.set_xlabel("run")
    axis.set_ylabel("mean seconds")
    axis.set_title(title)
    axis.legend(fontsize=6, loc="center left", bbox_to_anchor=(1.0, 0.5))
    figure.tight_layout()
    figure.savefig(path)
    plt.close(figure)
    return True


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render the BENCH/COST_PROFILE artifact trajectory "
        "(markdown + SVG, no third-party dependencies required)."
    )
    parser.add_argument("--bench", nargs="*", default=[], help="BENCH_*.json files")
    parser.add_argument(
        "--profiles", nargs="*", default=[], help="COST_PROFILE_*.json files"
    )
    parser.add_argument(
        "--service", nargs="*", default=[], help="SERVICE_*.json traffic reports"
    )
    parser.add_argument(
        "--metrics", nargs="*", default=[], help="METRICS_*.json registry snapshots"
    )
    parser.add_argument("--output", default="TRAJECTORY", help="output path prefix")
    args = parser.parse_args(argv)

    requested = set(args.bench) | set(args.profiles) | set(args.service) | set(args.metrics)
    bench_paths = [path for path in args.bench if os.path.exists(path)]
    profile_paths = [path for path in args.profiles if os.path.exists(path)]
    service_paths = [path for path in args.service if os.path.exists(path)]
    metrics_paths = [path for path in args.metrics if os.path.exists(path)]
    found = set(bench_paths) | set(profile_paths) | set(service_paths) | set(metrics_paths)
    for path in sorted(requested - found):
        print(f"warning: skipping missing artifact {path}")

    bench_runs = load_bench_runs(bench_paths)
    profile_runs = load_profile_runs(profile_paths)
    service_runs = load_service_runs(service_paths)
    metrics_runs = load_metrics_runs(metrics_paths)

    markdown_path = f"{args.output}.md"
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(render_markdown(bench_runs, profile_runs, service_runs, metrics_runs))
    print(f"wrote {markdown_path}")

    series = series_over_runs(bench_runs) if bench_runs else {}
    # The service's warm p95 joins the latency chart: it is a seconds-valued
    # series on the same log scale as the planner benchmarks.
    p95_service = [run["warm_p95"] for run in service_runs]
    if any(v is not None for v in p95_service):
        series["service warm p95 (report)"] = p95_service
    p95_metrics = [run["warm_p95"] for run in metrics_runs]
    if any(v is not None for v in p95_metrics):
        series["service warm p95 (metrics)"] = p95_metrics
    svg_path = f"{args.output}.svg"
    if not render_svg_matplotlib(series, "benchmark trajectory (mean seconds)", svg_path):
        with open(svg_path, "w", encoding="utf-8") as handle:
            handle.write(render_svg(series, "benchmark trajectory (mean seconds, log scale)"))
    print(f"wrote {svg_path}")

    hit_series: Dict[str, List[Optional[float]]] = {}
    hits_service = [run["hit_rate"] for run in service_runs]
    if any(v is not None for v in hits_service):
        hit_series["hit rate (report)"] = hits_service
    hits_metrics = [run["hit_rate"] for run in metrics_runs]
    if any(v is not None for v in hits_metrics):
        hit_series["hit rate (metrics)"] = hits_metrics
    if hit_series:
        hit_path = f"{args.output}_service.svg"
        with open(hit_path, "w", encoding="utf-8") as handle:
            handle.write(render_hit_rate_svg(hit_series, "plan-cache hit rate over runs"))
        print(f"wrote {hit_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
