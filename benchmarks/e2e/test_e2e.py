"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import http.server
import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import serve_closed  # noqa: E402
import stats  # noqa: E402
from trace import SpanRecord, merge, self_times, summarize  # noqa: E402
from workloads import MutateHybrid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# The percentile rule                                                   #
# --------------------------------------------------------------------- #


def test_percentile_needs_ten_samples_beyond():
    assert stats.supported(100, 0.9)
    assert not stats.supported(99, 0.9)
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(50) is None


def test_runs_collect_enough_queries_for_a_p90():
    assert stats.supported(run.MIN_QUERIES, 0.9)
    assert not stats.supported(run.MIN_QUERIES - 1, 0.9)
    assert run.end_to_end([{
        "setup_s": [1.0], "samples": {"query_ms": [1.0] * 99}, "ops": 99,
        "op_wall_s": 1.0, "peak_rss_mb": [1.0],
    }])["query_p90_ms"] == (None, 99)


def test_summary_reports_median_and_highest_supported_tail():
    values = [float(v) for v in range(1, 1001)]
    assert stats.summary(values) == "p50 500, p99 990 (n=1000)"
    assert stats.summary(values[:100]) == "p50 50, p90 90 (n=100)"
    assert stats.summary(values[:99]) == "p50 50, p90 n/a (n=99)"


def test_quartiles_match_statistics_quantiles():
    q1, median, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_compare_verdicts():
    parent = {1: [100.0], 2: [101.0], 3: [99.0], 4: [100.5]}

    def scaled(factor, base=parent):
        return {seed: [value * factor] for seed, [value] in base.items()}

    assert compare.verdict(parent, scaled(1.3), 0.1, True)[0] == "REGRESSION"
    assert compare.verdict(parent, scaled(1.02), 0.1, True)[0] == "ok"
    assert compare.verdict(parent, scaled(0.8), 0.1, True)[0] == "gain"
    assert compare.verdict(parent, scaled(0.8), 0.1, False)[0] == "REGRESSION"
    noisy = {1: [50.0], 2: [100.0], 3: [150.0], 4: [100.0]}
    assert compare.verdict(noisy, scaled(1.05, noisy), 0.1, True)[0] == "unresolved"


# --------------------------------------------------------------------- #
# Self time                                                             #
# --------------------------------------------------------------------- #


def _span(span_id, parent, name, start, end, op=0):
    return SpanRecord(span_id, parent, op, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "op", 0.0, 10.0),
        _span(2, 1, "api.prepare", 1.0, 4.0),
        _span(3, 1, "data.eval.memory_ucq", 3.0, 6.0),  # overlaps its sibling
        _span(4, 2, "lang.parse", 2.0, 3.0),
        _span(5, 3, "data.inner", 5.0, 12.0),  # clipped to its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)  # 10 - |[1, 6]|
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)  # 3 - |[5, 6]|
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(7.0)


def test_summary_attributes_self_time_to_layers():
    spans = [
        _span(1, None, "setup", 0.0, 2.0, op=None),
        _span(2, 1, "hybrid.build", 0.0, 1.5, op=None),
        _span(3, None, "op", 2.0, 6.0),
        _span(4, 3, "data.eval.sql_ucq", 2.0, 5.0),
        _span(5, 4, "data.inner", 3.0, 4.0),
        _span(6, 3, "lang.parse", 5.0, 5.5),
    ]
    summary = summarize(spans)
    assert summary.op_wall == pytest.approx(4.0)
    assert summary.calls == {"data": 1, "lang": 1}  # data.inner is internal
    assert summary.busy_frac("data") == pytest.approx(0.75)
    assert summary.coverage() == pytest.approx(0.875)
    assert summary.setup_frac("hybrid") == pytest.approx(0.75)
    doubled = merge([summary, summary])
    assert doubled.calls == {"data": 2, "lang": 2}
    assert doubled.busy_frac("data") == pytest.approx(0.75)
    assert len(doubled.durations["data.eval.sql_ucq"]) == 2


# --------------------------------------------------------------------- #
# Load generation and checks                                        #
# --------------------------------------------------------------------- #


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out separately

    def do_POST(self):  # noqa: N802 - the http.server hook name
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(float(self.path.rsplit("/", 1)[1]))
        body = b'{"answers": [], "seconds": 0.0}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _FakeServer:
    """Stands in for ``serve_closed.Server``: every request sleeps as long
    as its path says, in seconds."""

    def __init__(self):
        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()

    def connect(self):
        import http.client

        return http.client.HTTPConnection(*self.httpd.server_address, timeout=10)


def _plan(count, service_s):
    return [serve_closed.Request("query", f"/{service_s}", b"{}", "q")] * count


def test_closed_loop_keeps_both_senders_busy():
    with _FakeServer() as server:
        started = time.perf_counter()
        outcomes = serve_closed.drive(server, _plan(20, 0.02))
        elapsed = time.perf_counter() - started
    assert all(o.status == 200 for o in outcomes)
    assert elapsed == pytest.approx(10 * 0.02, rel=0.5)  # two at a time


def test_a_delete_waits_for_its_insert():
    insert, delete = serve_closed.mutation_pair("fresh1", 0)
    slow_insert = insert._replace(path="/0.05")
    with _FakeServer() as server:
        outcomes = serve_closed.drive(server, [slow_insert, delete._replace(path="/0")])
    assert outcomes[1].sent >= outcomes[0].done


def test_mutate_hybrid_log_check_counts_wrong_answers(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(
        json.dumps({"kind": "insert", "facts": [["gradStudent", ["fresh0_1"]]]}) + "\n"
        + json.dumps({"check": [[[0, "wrong"]] * 2] * 6}) + "\n"
    )
    failures = []
    MutateHybrid.check_log(1, log, failures.append)
    assert len(failures) == 12 and all(failures)


# --------------------------------------------------------------------- #
# The command                                                           #
# --------------------------------------------------------------------- #


_ROW = re.compile(r"^([A-Za-z][\w.]*)\s+(\S+)\s+(\S+)(?:\s+\d+)?$")


def _table(stdout: str) -> dict[str, str]:
    """metric name -> unit, from the printed metric table."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("metric "))
    table = {}
    for line in lines[start + 1:]:
        match = _ROW.match(line)
        if match is None:
            break
        float(match.group(2))
        table[match.group(1)] = match.group(3)
    return table


def _run(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_the_declared_metrics(tmp_path, workload, trace):
    stdout, line = _run(
        tmp_path, "--workload", workload, "--trace", str(trace), "--out", str(tmp_path)
    )
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert _table(stdout) == {m["name"]: m["unit"] for m in declared}
    assert list(line["metrics"]) == [m["name"] for m in declared]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if trace:
        assert (tmp_path / f"trace-{workload}.json").is_file()
        assert line["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_units_in_code_match_the_benchmark_file():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_a_run_leaves_the_checkout_clean(tmp_path):
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status():
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout

    before = status()
    _run(tmp_path, "--workload", "compile_cold")
    assert status() == before
    assert not list(ROOT.glob(".e2e-*"))


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "answer_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
