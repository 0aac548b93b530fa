"""The end-to-end benchmark: four workloads, one command.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out DIR]

Each in-process workload runs in fresh child processes (three, each
measuring a third of ``--seconds``), so set-up, caches and peak RSS
belong to one workload.  ``serve_closed`` drives a ``repro serve``
subprocess from this process.  Every answer is checked against an
oracle; the exit code is non-zero when a check fails.

Without ``--trace`` the run prints the end-to-end metrics.  With
``--trace`` it runs each child twice: untraced for ``--seconds``, then
traced for exactly the same ops, and prints per-layer metrics from the
traced run's spans and counters (see ``trace.py``).  Timings are
divided by a machine-speed factor (see ``speed.py``).  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Work files and, unless ``--out`` is given, the outputs go to a
temporary directory inside the checkout that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("answer_warm", "compile_cold", "mutate_hybrid", "serve_closed")
CHILDREN = 3
CHILD_TIMEOUT_S = 170
DEFAULT_SECONDS = 20
QUICK_SECONDS = 2
#: The fewest query samples that support a 90th percentile (at least
#: ten beyond it); a short run measures past ``--seconds`` until its
#: processes together have that many.
MIN_QUERIES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
#: Layers whose spans run inside ops.
OP_LAYERS = ("lang", "api", "rewriting", "data", "hybrid", "serve")


# --------------------------------------------------------------------- #
# Child processes                                                       #
# --------------------------------------------------------------------- #


class Recorder:
    """Attempted and failed checks of one process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(failure)


def measure(workload, context, seconds: float, min_queries: int,
            op_limit: int | None, trace: bool) -> dict[str, Any]:
    """Set up *workload* and run its ops for *seconds* and at least
    *min_queries* queries (or exactly *op_limit* ops); return the
    process's result.  Times in the result are divided by the speed
    factors under ``speed`` (see ``speed.py``)."""
    from repro import obs

    from speed import BRACKET, SpeedMeter
    from trace import NullTracer, Tracer

    tracer = Tracer() if trace else NullTracer()
    recorder = Recorder()
    workload.inputs(context)
    setup_meter = SpeedMeter()
    setup_meter.sample(BRACKET)
    started = time.perf_counter()
    with tracer.span("setup"):
        workload.setup(tracer, recorder.check)
    setup_s = time.perf_counter() - started
    setup_meter.sample(BRACKET)
    workload.checkpoint(recorder.check)
    workload.tally.clear()

    samples: dict[str, list[float]] = defaultdict(list)
    ops = 0
    op_wall = 0.0
    op_meter = SpeedMeter()
    with obs.capture() if trace else nullcontext() as capture:
        stream = workload.op_stream()
        loop_started = time.perf_counter()
        # Decide before drawing the next op: drawing one may already
        # move the workload's record of the data.
        while (
            ops < op_limit if op_limit is not None
            else (time.perf_counter() - loop_started < seconds
                  or len(samples["query_ms"]) < min_queries)
        ):
            op = next(stream)
            workload.before_op(op)
            tracer.op_id = ops
            began = time.perf_counter()
            try:
                with tracer.span("op"):
                    kind, result = workload.execute(op, tracer)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                kind, failure = "", f"{type(error).__name__}: {error}"
            else:
                failure = None
            elapsed = time.perf_counter() - began
            tracer.op_id = None
            ops += 1
            op_wall += elapsed
            if kind:
                samples[f"{kind}_ms"].append(elapsed * 1000)
                failure = workload.verify(op, result)
            recorder.check(failure)
            op_meter.sample()
            if workload.check_every and ops % workload.check_every == 0:
                workload.checkpoint(recorder.check)
        counters = capture.counters() if trace else {}
    workload.checkpoint(recorder.check)
    workload.close()
    speed = {"setup": setup_meter.factor(), "ops": op_meter.factor()}
    return {
        "setup_s": [setup_s / speed["setup"]],
        "samples": {
            key: [value / speed["ops"] for value in values]
            for key, values in samples.items()
        },
        "ops": ops,
        "op_wall_s": op_wall / speed["ops"],
        "speed": [speed],
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "errors": recorder.errors,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "tally": workload.tally,
        "counters": counters,
        "spans": [list(span) for span in tracer.spans],
    }


def child_main(params_path: Path) -> int:
    from workloads import IN_PROCESS

    params = json.loads(params_path.read_text())
    workload = IN_PROCESS[params["workload"]](
        params["seed"], params["child"], params["children"],
        Path(params["workdir"]), Path(params["log"]),
    )
    context = json.loads(Path(params["context"]).read_text())
    result = measure(
        workload, context, params["seconds"], params["min_queries"],
        params["ops"], params["trace"],
    )
    Path(params["result"]).write_text(json.dumps(result))
    return 0


def spawn(params: dict[str, Any], workdir: Path) -> dict[str, Any]:
    """Run one child process to completion, check its log, and return
    its result."""
    from workloads import IN_PROCESS

    tag = f"{params['workload']}-{params['child']}-{int(params['trace'])}"
    params = dict(
        params,
        workdir=str(workdir),
        result=str(workdir / f"result-{tag}.json"),
        log=str(workdir / f"log-{tag}.jsonl"),
    )
    params_path = workdir / f"params-{tag}.json"
    params_path.write_text(json.dumps(params))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", str(params_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {tag} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(Path(params["result"]).read_text())
    checks = Recorder()
    IN_PROCESS[params["workload"]].check_log(params["seed"], Path(params["log"]), checks.check)
    result["attempted"] += checks.attempted
    result["failed"] += checks.failed
    result["errors"] += checks.errors
    return result


# --------------------------------------------------------------------- #
# Metrics                                                               #
# --------------------------------------------------------------------- #


def _concat(results, key: str) -> list[float]:
    return [v for r in results for v in r.get("samples", {}).get(key, ())]


def _sum_dicts(dicts) -> dict[str, float]:
    total: dict[str, float] = defaultdict(int)
    for d in dicts:
        for key, value in d.items():
            total[key] += value
    return total


def end_to_end(results) -> dict[str, tuple[float | None, int]]:
    """name -> (value, sample count), from untraced results; the value
    is None for a percentile with fewer than ten samples beyond it."""
    import stats

    setups = [s for r in results for s in r["setup_s"]]
    queries = _concat(results, "query_ms")
    ops = sum(r["ops"] for r in results)
    rss = [m for r in results for m in r["peak_rss_mb"]]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "query_p50_ms": (stats.percentile(queries, 0.5), len(queries)),
        "query_p90_ms": (
            stats.percentile(queries, 0.9) if stats.supported(len(queries), 0.9) else None,
            len(queries),
        ),
        "ops_per_s": (ops / sum(r["op_wall_s"] for r in results), ops),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
    }
    # serve_closed reports medians over its bursts instead (see there).
    metrics.update(results[0].get("burst_medians", {}))
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(results, untraced_wall: float):
    """(metrics, details) from traced results: metrics maps name ->
    (value, unit); details has per-span-name call timings."""
    import stats
    from trace import SpanRecord, merge, summarize, trace_overhead_frac

    summary = merge(
        summarize(SpanRecord(*row) for row in r["spans"]) for r in results
    )
    counters = _sum_dicts(r.get("counters", {}) for r in results)
    tally = _sum_dicts(r.get("tally", {}) for r in results)
    traced_wall = sum(r["op_wall_s"] for r in results)
    queries = len(_concat(results, "query_ms"))
    metrics: dict[str, tuple[float, str]] = {}
    for layer in OP_LAYERS:
        metrics[f"{layer}.calls"] = (summary.calls.get(layer, 0), "count")
        metrics[f"{layer}.busy_frac"] = (summary.busy_frac(layer), "fraction")
    for path in ("memory_ucq", "sql_ucq", "memory_datalog", "sql_datalog"):
        name = f"data.eval.{path}"
        own = sum(summary.durations.get(name, ()))
        metrics[f"{name}_frac"] = (_ratio(own, summary.op_wall), "fraction")
    metrics.update({
        "api.prepare_reuse_ratio": (
            _ratio(tally["prepares_reused"], tally["prepares"]), "fraction"),
        "api.cache.writes": (counters["api.cache.writes"], "count"),
        "api.cache.disk_hits": (counters["engine.disk_hits"], "count"),
        "rewriting.cqs_generated": (counters["rewrite.cqs_generated"], "count"),
        "rewriting.useful_ratio": (
            _ratio(tally["disjuncts_out"], counters["rewrite.cqs_generated"]),
            "fraction"),
        "rewriting.minimize_skip_ratio": (
            _ratio(counters["minimize.pairs_skipped"],
                   counters["minimize.subsumption_checks"]), "fraction"),
        "rewriting.datalog_selected": (
            counters["engine.target_selected.datalog"], "count"),
        "rewriting.incomplete": (tally["incomplete"], "count"),
        "data.rows_out_per_op": (_ratio(tally["rows_out"], queries), "rows/op"),
        "hybrid.delta_facts_per_fact": (
            _ratio(counters["hybrid.delta_facts"], tally["facts_changed"]),
            "fraction"),
        "hybrid.full_rechase": (counters["hybrid.full_rechase"], "count"),
        "hybrid.rebuild_firings": (counters["hybrid.rebuild_firings"], "count"),
        "serve.exec_frac": (
            _ratio(sum(summary.durations.get("serve.exec", ())), summary.op_wall),
            "fraction"),
        "serve.shed": (counters["serve.shed"], "count"),
        "serve.errors": (counters["serve.errors"], "count"),
        "serve.deadline_exceeded": (counters["serve.deadline_exceeded"], "count"),
        "serve.boot_frac": (
            _ratio(sum(summary.setup_durations.get("serve.boot", ())),
                   summary.setup_wall),
            "fraction"),
        "obs.trace_overhead_frac": (
            trace_overhead_frac(traced_wall, untraced_wall), "fraction"),
        "trace.coverage_frac": (summary.coverage(), "fraction"),
    })
    for layer in ("data", "rewriting", "analysis", "hybrid"):
        metrics[f"{layer}.setup_frac"] = (summary.setup_frac(layer), "fraction")
    details = {
        phase: {
            name: {
                "n": len(values),
                "total_s": sum(values),
                **{
                    f"p{q * 100:g}_ms": (
                        stats.percentile(values, q) * 1000
                        if q == 0.5 or stats.supported(len(values), q) else None
                    )
                    for q in (0.5, 0.9, 0.99)
                },
            }
            for name, values in sorted(durations.items())
        }
        for phase, durations in (
            ("ops", summary.durations), ("setup", summary.setup_durations)
        )
    }
    return metrics, details


# --------------------------------------------------------------------- #
# The coordinator                                                       #
# --------------------------------------------------------------------- #


def fingerprint() -> dict[str, Any]:
    """The machine and code a result was measured on."""
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, workdir: Path) -> dict[str, Any]:
    """Run one workload; return its report (metrics, checks, details)."""
    children = 1 if quick else CHILDREN
    raw: list[dict[str, Any]] = []
    untraced_wall = 0.0
    if name == "serve_closed":
        import serve_closed

        context = serve_closed.prepare(seed, workdir)
        result = serve_closed.run(
            context, seed, seconds, trace, workdir, boots=1 if quick else serve_closed.BOOTS
        )
        untraced_wall = result.get("untraced_op_wall_s", 0.0)
        raw.append(result)
    else:
        from workloads import IN_PROCESS

        context_path = workdir / f"context-{name}.json"
        context_path.write_text(json.dumps(IN_PROCESS[name].prepare(seed, workdir)))
        for child in range(children):
            params = {
                "workload": name, "seed": seed, "child": child,
                "children": children, "seconds": seconds / children,
                "min_queries": -(-MIN_QUERIES // children),
                "context": str(context_path), "ops": None, "trace": False,
            }
            untraced = spawn(params, workdir)
            if not trace:
                raw.append(untraced)
                continue
            traced = spawn(dict(params, trace=True, ops=untraced["ops"]), workdir)
            traced["attempted"] += untraced["attempted"]
            traced["failed"] += untraced["failed"]
            traced["errors"] += untraced["errors"]
            untraced_wall += untraced["op_wall_s"]
            raw.append(traced)
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": sum(r["attempted"] for r in raw),
        "failed": sum(r["failed"] for r in raw),
        "errors": [e for r in raw for e in r["errors"]][:10],
        "speed": [speed for r in raw for speed in r.get("speed", ())],
    }
    if trace:
        metrics, details = per_layer(raw, untraced_wall)
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["details"] = details
        report["spans"] = [r["spans"] for r in raw]
    else:
        report["metrics"] = {
            key: {"value": value, "unit": END_TO_END_UNITS[key], "n": n}
            for key, (value, n) in end_to_end(raw).items()
        }
        report["samples"] = {
            key: _concat(raw, key) for key in ("query_ms", "mutate_ms")
        }
    return report


def declared_metrics(trace: bool) -> list[str]:
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_report(report: dict[str, Any], names: list[str]) -> None:
    import stats

    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{report['seconds']:g} s, {mode}) ==")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in report["fingerprint"].items()))
    print(f"{'metric':<32} {'value':>14}  {'unit':<9} n")
    for name in names:
        metric = report["metrics"][name]
        count = metric.get("n", "")
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:<32} {value:>14}  {metric['unit']:<9} {count}".rstrip())
    for key, values in report.get("samples", {}).items():
        if values:
            print(f"timing {key}: {stats.summary(values)}")
    for phase, spans in report.get("details", {}).items():
        for name, detail in spans.items():
            # n/a: fewer than ten samples lie beyond that percentile.
            tails = "  ".join(
                f"{key[:-3]} {'n/a' if value is None else f'{value:.4g}'}"
                for key, value in detail.items() if key.endswith("_ms")
            )
            print(f"{phase} span {name:<26} n={detail['n']:<6} {tails} ms"
                  f"  total {detail['total_s']:.4g} s")
    if report["speed"]:
        print("speed factors (kernel time / nominal; times are divided by them): "
              + ", ".join(f"setup {s['setup']:.3f} ops {s['ops']:.3f}"
                          for s in report["speed"]))
    print(f"checks: {report['attempted']} attempted, {report['failed']} failed")
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def write_outputs(report: dict[str, Any], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}"
    path = out / f"{stem}.json"
    copy = 1
    while path.exists():
        copy += 1
        path = out / f"{stem}-{copy}.json"
    spans = report.pop("spans", None)
    path.write_text(json.dumps(report, indent=1))
    if spans is not None:
        from trace import SpanRecord

        (out / f"trace-{report['workload']}.json").write_text(json.dumps({
            "workload": report["workload"],
            "seed": report["seed"],
            "fields": list(SpanRecord._fields),
            "processes": spans,
        }))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload (default {DEFAULT_SECONDS}, "
                        f"{QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (bare --trace means 1)")
    parser.add_argument("--quick", action="store_true",
                        help="one child process and a short run, for smoke tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result and trace files "
                        "(default: a temporary directory, removed at the end)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.child is not None:
        return child_main(args.child)

    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = Path(tempfile.mkdtemp(prefix=".e2e-", dir=ROOT))
    status = 0
    try:
        for name in names:
            machine = fingerprint()
            report = run_workload(name, args.seed, seconds, bool(args.trace),
                                  args.quick, workdir)
            report["fingerprint"] = machine
            declared = declared_metrics(bool(args.trace))
            print_report(report, declared)
            write_outputs(report, args.out or workdir / "out")
            missing = [key for key in declared if report["metrics"][key]["value"] is None]
            if missing:
                print(f"error: no value for {', '.join(missing)} (too few samples)",
                      file=sys.stderr)
                status = 1
                continue
            line = {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    key: {"value": report["metrics"][key]["value"],
                          "unit": report["metrics"][key]["unit"]}
                    for key in declared
                },
            }
            print(json.dumps(line), flush=True)
            if report["failed"]:
                status = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
