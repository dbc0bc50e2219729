"""sigmaperfect benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload search-k5 --seed 1 --seconds 24 --trace 0

Run from anywhere; the program is taken from src/ next to this directory
and nothing is installed. Every pass runs in a fresh interpreter: the
`sigmaperfect` CLI itself for search-k5, bench/workloads.py for the
others. Each pass's outputs are checked; any wrong output, nonzero exit
or cross-check error counts as a failed request and makes the run exit 1
with no metrics.

--trace 0 measures the end-to-end metrics: setup time, then passes at
workers=1 until --seconds have been spent, reported as medians, then one
checked pass at workers=2. --trace 1 makes the same untraced passes, then
one traced pass at workers=1, and reports per-layer metrics.

Every time is corrected for host speed. The host this was written on is
a shared VM whose speed drifts by up to 40% within seconds, far more than
a change to the program is expected to move it. So a fixed pure-Python
calibration kernel is timed on the CPU single-process children are
pinned to: before and after every set of children, and every
SAMPLE_EVERY_S while they run, with them stopped (SIGSTOP) meanwhile.
Each stretch a child ran is scaled by CALIBRATION_REF_S over the mean
kernel time at its two ends, and the stopped time is left out, so
reported times are "seconds at the reference host speed". Raw wall times
and scale factors are in the metadata line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl
from tracer import LAYERS

# Setup probes: a few before the first pass, then one after every pass, so
# the median spans the whole run rather than one moment of host load.
SETUP_PROBES = 8
# Every child is killed past this point, so the run ends within 180 s.
RUN_DEADLINE_S = 170.0
PROBE = "import time; t = time.perf_counter(); import sigmaperfect.cli; print(time.perf_counter() - t)"
PYTHON = sys.executable
# Calibration: the kernel's time at CALIBRATION_ITERS iterations, as the
# median of CALIBRATION_CHUNKS runs between children and one run at each
# stop inside a child. CALIBRATION_REF_S only fixes the unit: times read as
# on a host where the kernel takes that long, which is about the slow speed
# state of the 2-vCPU x86-64 VM the benchmark was defined on.
CALIBRATION_ITERS = 40_000
CALIBRATION_CHUNKS = 5
CALIBRATION_REF_S = 0.0140
# A single-process child is stopped and the host speed sampled this often.
SAMPLE_EVERY_S = 0.25


def _calibration_kernel(n: int) -> int:
    """Fixed interpreter work: a loop of small and 128-bit int arithmetic."""
    acc, x = 0, 7
    for i in range(n):
        acc = (acc * 31 + i * i) % 1_000_003
        x = x * 3 % (1 << 127)
    return acc ^ x


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(wl.SRC) + (os.pathsep + inherited if inherited else "")
    return env


class Child:
    """One child process; its stdout and stderr go to unnamed temp files.

    A single-process child is pinned to one CPU: in a trial on a small
    shared host, migrations between CPUs added to the pass-to-pass spread.
    """

    def __init__(self, argv: list[str], cpu: int | None):
        self.out = tempfile.TemporaryFile(dir=wl.OUT_DIR)
        self.err = tempfile.TemporaryFile(dir=wl.OUT_DIR)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=self.out, stderr=self.err, cwd=wl.ROOT, env=_child_env(),
            start_new_session=True,
        )
        self.pidfd = os.pidfd_open(self.proc.pid)
        if cpu is not None:
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except ProcessLookupError:  # already exited; wait_children reports it
                pass

    def signal(self, sig: int) -> None:
        """Signal the child's whole process group (a pool's workers too)."""
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def result(self, status: int, usage: os.struct_rusage, end: float) -> dict:
        """wait4 gives the peak RSS of the child's process tree."""
        os.close(self.pidfd)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        streams = []
        for fh in (self.out, self.err):
            fh.seek(0)
            streams.append(fh.read().decode("utf-8", "replace"))
            fh.close()
        return {
            "rc": self.proc.returncode, "start": self.start, "end": end,
            "rss_kib": usage.ru_maxrss, "stdout": streams[0], "stderr": streams[1],
        }


def wait_children(children: list[Child], calibrate, deadline: float) -> tuple[list[dict], list[tuple]]:
    """Reap the children. Every SAMPLE_EVERY_S, all that still run are
    stopped (SIGSTOP) while `calibrate` runs, then resumed. Returns their
    results and the pauses as (stopped at, resumed at, kernel seconds).
    Past `deadline`, every child is killed."""
    kill_all = threading.Timer(
        max(0.0, deadline - time.perf_counter()),
        lambda: [child.signal(signal.SIGKILL) for child in children],
    )
    kill_all.start()
    done: dict[Child, tuple] = {}
    pauses = []
    try:
        while len(done) < len(children):
            live = [child for child in children if child not in done]
            ready = select.select([child.pidfd for child in live], [], [], SAMPLE_EVERY_S)[0]
            for child in live:
                if child.pidfd in ready:
                    _, status, usage = os.wait4(child.proc.pid, 0)
                    done[child] = (status, usage, time.perf_counter())
            if ready:
                continue
            stopped = time.perf_counter()
            for child in live:
                child.signal(signal.SIGSTOP)
            halted = []
            for child in live:
                _, status, usage = os.wait4(child.proc.pid, os.WUNTRACED)
                if os.WIFSTOPPED(status):
                    halted.append(child)
                else:  # exited just before the stop
                    done[child] = (status, usage, stopped)
            try:
                kernel_s = calibrate()
            finally:
                for child in halted:
                    child.signal(signal.SIGCONT)
            pauses.append((stopped, time.perf_counter(), kernel_s))
    finally:
        kill_all.cancel()
        for child in children:  # only after an error: reap what is left
            if child not in done:
                child.signal(signal.SIGKILL)
                os.wait4(child.proc.pid, 0)
    return [child.result(*done[child]) for child in children], pauses


def corrected(segments: list[tuple[float, float, float]], start: float, end: float) -> float:
    """Seconds at reference speed that the interval [start, end] spent in
    the (start, end, scale) stretches a child ran."""
    return sum(max(0.0, min(end, e) - max(start, s)) * scale for s, e, scale in segments)


class Run:
    """Counts, failures and samples of one benchmark run."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.workers2 = min(2, len(os.sched_getaffinity(0)))
        self.attempted = 0
        self.failures: list[str] = []
        self.search_reference: str | None = None
        self.expected_queries: list[str] | None = None
        self.counts: dict[str, float] = {}
        self.samples: dict = {}
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.cpu = max(os.sched_getaffinity(0))
        self.last_calibration: float | None = None
        self.scales: list[float] = []

    # -- bookkeeping ---------------------------------------------------------

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.record(False, what)

    def kernel_time(self, chunks: int = CALIBRATION_CHUNKS) -> float:
        """Median kernel time on the CPU single-process children run on."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            times = []
            for _ in range(chunks):
                start = time.perf_counter()
                _calibration_kernel(CALIBRATION_ITERS)
                times.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.median(times)

    def run_children(self, argvs: list[list[str]], workers: int = 1) -> list[dict]:
        """Run children at once, sampling the host speed while they run.
        Each result gets the stretches it ran, as (start, end, scale)
        segments, each scaled by the kernel times at its two ends."""
        before = self.last_calibration if self.last_calibration is not None else self.kernel_time()
        single = workers == 1 and len(argvs) == 1
        children = [Child(argv, self.cpu if single else None) for argv in argvs]
        results, pauses = wait_children(children, lambda: self.kernel_time(1), self.deadline)
        self.last_calibration = after = self.kernel_time()
        for res in results:
            inside = [p for p in pauses if p[0] < res["end"]]
            starts = [res["start"]] + [resumed for _, resumed, _ in inside]
            ends = [stopped for stopped, _, _ in inside] + [res["end"]]
            kernels = [before] + [kernel_s for _, _, kernel_s in inside] + [after]
            res["segments"] = [
                (s, e, CALIBRATION_REF_S * 2 / (k0 + k1))
                for s, e, k0, k1 in zip(starts, ends, kernels, kernels[1:])
            ]
            self.scales.extend(scale for _, _, scale in res["segments"])
        return results

    # -- setup -----------------------------------------------------------------

    def probe_setup(self, count: int) -> None:
        """Fresh interpreter start plus `import sigmaperfect.cli`, count times."""
        for _ in range(count):
            (res,) = self.run_children([[PYTHON, "-c", PROBE]])
            if self.record(res["rc"] == 0, f"setup probe exited {res['rc']}: {res['stderr'][-300:]}"):
                setup = corrected(res["segments"], res["start"], res["end"])
                self.setup_s.append(setup)
                ran = sum(e - s for s, e, _ in res["segments"])
                self.import_s.append(float(res["stdout"]) * setup / ran)

    # -- passes ----------------------------------------------------------------

    def pass_argvs(self, workers: int, trace: bool) -> list[list[str]]:
        if self.workload == "search-k5" and not trace:
            return [[PYTHON, "-m", "sigmaperfect.cli", *wl.SEARCH_ARGS, "--workers", str(workers)]]
        child = [PYTHON, str(Path(wl.__file__)), "--workload", self.workload, "--seed", str(self.seed)]
        if trace:
            child.append("--trace")
        if wl.WORKLOADS[self.workload]["two_clients"]:
            return [[*child, "--part", str(i), "--parts", str(workers)] for i in range(workers)]
        return [[*child, "--workers", str(workers)]]

    def run_pass(self, workers: int, trace: bool = False) -> dict | None:
        """One checked pass; returns its corrected wall time, its raw time
        running and elapsed (stops included), peak RSS, corrected request
        latencies and (traced) the tracer summary, or None if anything failed."""
        results = self.run_children(self.pass_argvs(workers, trace), workers)
        raw_wall = max(sum(e - s for s, e, _ in r["segments"]) for r in results)
        elapsed = max(r["end"] for r in results) - min(r["start"] for r in results)
        wall = max(corrected(r["segments"], r["start"], r["end"]) for r in results)
        rss = max(r["rss_kib"] for r in results) / 1024
        payloads = []
        for res in results:
            if self.workload == "search-k5" and not trace:
                payloads.append({"rc": res["rc"], "stdout": res["stdout"]})
                continue
            try:
                payload = json.loads(res["stdout"].splitlines()[-1]) if res["rc"] == 0 else None
            except (IndexError, json.JSONDecodeError):
                payload = None
            if payload is None:
                return self.fail(f"{self.workload} child exited {res['rc']}: {res['stderr'][-500:]}")
            payloads.append(payload)
        spans = getattr(self, f"check_{self.workload.replace('-', '_')}")(payloads, workers)
        if spans is None:
            return None
        if spans:  # (client, t0, t1) of each request
            latencies = [corrected(results[i]["segments"], t0, t1) * 1e3 for i, t0, t1 in spans]
        else:  # the pass is the request
            latencies = [wall * 1e3]
        return {
            "wall": wall, "raw_wall": raw_wall, "elapsed": elapsed, "rss": rss, "latencies": latencies,
            "trace": payloads[0].get("trace"),
        }

    # -- output checks: each returns (client, start, end) of every request, or None

    def check_search_k5(self, payloads: list[dict], workers: int) -> list[tuple] | None:
        (payload,) = payloads
        problem = self._search_problem(payload)
        if not self.record(problem is None, f"search at workers={workers}: {problem}"):
            return None
        self.counts.update({
            "classify.points": wl.SEARCH_POINTS, "classify.pruned_points": wl.SEARCH_PRUNED,
            "classify.pruned_ratio": wl.SEARCH_PRUNED / wl.SEARCH_POINTS,
            "classify.solutions": len(wl.SEARCH_SOLUTIONS),
        })
        return []

    def _search_problem(self, payload: dict) -> str | None:
        """What is wrong with one search run's output, or None."""
        if payload["rc"] != 0:
            return f"exited {payload['rc']}"
        lines = payload["stdout"].splitlines(keepends=True)
        try:
            records = [json.loads(line) for line in lines]
        except json.JSONDecodeError as exc:
            return f"output is not json-lines: {exc}"
        body = "".join(lines[1:])
        solutions = [r["n"] for r in records if r.get("record") == "solution"]
        summaries = [r for r in records if r.get("record") == "summary"]
        if not records or records[0].get("record") != "header":
            return "no header line"
        if solutions != wl.SEARCH_SOLUTIONS or len(summaries) != 1:
            return f"solutions {solutions}, {len(summaries)} summary line(s)"
        summary = summaries[0]
        if (summary["points_scanned"], summary["pruned_points"], summary["matches_expected"]) != (
            str(wl.SEARCH_POINTS), str(wl.SEARCH_PRUNED), True
        ):
            return f"summary {summary}"
        if self.search_reference is None:
            self.search_reference = body
        elif body != self.search_reference:
            return "output after the header differs from the first pass"
        return None

    def check_equivalence(self, payloads: list[dict], workers: int) -> list[tuple] | None:
        (payload,) = payloads
        pairs = payload.get("pairs")
        if not self.record(pairs == wl.EQ_PAIRS, f"equivalence at workers={workers}: {payload}"):
            return None
        self.counts["classify.pairs"] = pairs
        return []

    def check_lemma_oracles(self, payloads: list[dict], workers: int) -> list[tuple] | None:
        seen, spans, rows = [], [], 0
        for client, payload in enumerate(payloads):
            for entry in payload["tags"]:
                tag, expected = entry["tag"], wl.LEMMA_EXPECTED.get(entry["tag"], {})
                n = sum(expected.values())
                summary = f"{tag}: {n}/{n} pass" if set(expected) == {"pass"} else f"{tag}: {n} informational row(s)"
                ok = entry["rc"] == 0 and entry["outcomes"] == expected and entry["summary"] == summary
                if not self.record(ok, f"check-lemma {tag}: rc={entry['rc']} {entry['summary']!r} {entry['outcomes']}"):
                    return None
                seen.append(tag)
                spans.append((client, entry["t0"], entry["t1"]))
                rows += n
        if sorted(seen) != sorted(wl.LEMMA_TAGS):
            return self.fail(f"lemma tags run: {seen}")
        self.counts["classify.lemma_rows"] = rows
        return spans

    def check_sigma_queries(self, payloads: list[dict], workers: int) -> list[tuple] | None:
        if self.expected_queries is None:
            self.expected_queries = [
                wl.sigma_output(n, k, wl.expected_sigma(n, k, factors, random.Random(self.seed)))
                for n, k, factors in wl.sigma_queries(self.seed)
            ]
        spans = []
        for part, payload in enumerate(payloads):
            expected = self.expected_queries[part::len(payloads)]
            answers = payload["queries"]
            if len(answers) != len(expected):
                return self.fail(f"{len(answers)} answers for {len(expected)} queries")
            for query, want in zip(answers, expected):
                if not self.record(query["rc"] == 0 and query["out"] == want, f"sigma query: got {query['out']!r}, want {want!r}"):
                    return None
                spans.append((part, query["t0"], query["t1"]))
        return spans


def _p99(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def timed_passes(run: Run, seconds: float) -> tuple[list[dict], dict] | None:
    """Passes at workers=1, with a setup probe after each, until the next
    would end after `seconds`; then one pass at workers=2, whose output
    must match. None on failure."""
    window = time.perf_counter()
    w1 = []
    while True:
        pass_start = time.perf_counter()
        result = run.run_pass(1)
        run.probe_setup(1)
        if result is None or run.failures:
            return None
        w1.append(result)
        now = time.perf_counter()
        step = now - pass_start
        if now - window + step > seconds or now + 3 * step > run.deadline:
            break
    w2 = run.run_pass(run.workers2)
    if w2 is None or run.failures:
        return None
    return w1, w2


def median_wall(results: list[dict]) -> float:
    return statistics.median(r["wall"] for r in results)


def measure(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    run.probe_setup(SETUP_PROBES)
    passes = None if run.failures else timed_passes(run, seconds)
    if passes is None:
        return {}
    w1, w2 = passes
    requests = sum(len(result["latencies"]) for result in w1)
    wall = median_wall(w1)
    run.samples = {
        "setup_s": run.setup_s, "passes_w1": len(w1), "requests_w1": requests,
        "wall_s_w1": [r["wall"] for r in w1], "raw_wall_s_w1": [r["raw_wall"] for r in w1],
        "wall_s_w2": w2["wall"], "raw_wall_s_w2": w2["raw_wall"], "scale_quartiles": statistics.quantiles(run.scales, n=4),
    }
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (wl.WORKLOADS[run.workload]["items"] / wall, "1/s"),
        # Per pass, then the median over passes: pooled, a percentile that
        # falls between two request kinds (as on lemma-oracles, 12 tags of
        # very different cost) would follow the extremes of those kinds.
        "query_p50_ms": (statistics.median(statistics.median(r["latencies"]) for r in w1), "ms"),
        "query_p99_ms": (statistics.median(_p99(r["latencies"]) for r in w1), "ms"),
        "peak_rss_mib": (max(r["rss"] for r in [*w1, w2]), "MiB"),
    }


# Per-layer time metrics: metric name -> traced function, mean inclusive µs per call.
LAYER_US = {
    "classify.classify_point_us": "classify.classify_point",
    "classify.derive_conditions_us": "classify.derive_conditions",
    "sigma.divides_sigma_us": "sigma.divides_sigma",
    "sigma.is_even_perfect_us": "sigma.is_even_perfect",
    "sigma.factorize_us": "sigma.factorize",
    "sigma.sigma_k_us": "sigma.sigma_k",
    "exactint.checked_pow_us": "exactint.checked_pow",
    "exactint.geometric_sum_us": "exactint.geometric_sum",
    "exactint.v_exact_us": "exactint.v_exact",
    "valuations.check_tv_us": "valuations.check_tv",
    "valuations.check_tv2_us": "valuations.check_tv2",
    "primality.is_prime_us": "primality.is_prime",
    "primality.lucas_lehmer_us": "primality.lucas_lehmer",
    "polyrem.lemma41_scaled_remainder_us": "polyrem.lemma41_scaled_remainder",
}
PRUNERS = ("valuations.bound_u1", "valuations.bound_v3", "valuations.trichotomy_3mod4")
COUNTS = (
    "classify.points", "classify.pruned_points", "classify.pruned_ratio",
    "classify.pairs", "classify.lemma_rows", "classify.solutions",
)


def trace_layers(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    run.probe_setup(SETUP_PROBES)
    passes = None if run.failures else timed_passes(run, seconds)
    traced = None if passes is None else run.run_pass(1, trace=True)
    if traced is None:
        return {}
    w1, w2 = passes
    speedup = median_wall(w1) / w2["wall"]
    info = traced["trace"]
    totals = info["totals"]
    # Spans are timed in the child, so they include the time it was stopped
    # for sampling. Scaling them by the pass's corrected time over its
    # elapsed time takes that out on average and corrects for host speed.
    scale = traced["wall"] / traced["elapsed"]

    def total(name: str, column: int) -> float:
        """column 0: calls, 1: inclusive ns, 2: self ns (corrected)."""
        value = totals.get(name, (0, 0, 0))[column]
        return value * scale if column else value

    def per_call_us(name: str, column: int = 1) -> float:
        calls = total(name, 0)
        return total(name, column) / calls / 1e3 if calls else 0.0

    metrics = {metric: (per_call_us(fn), "us") for metric, fn in LAYER_US.items()}
    metrics["classify.classify_point_self_us"] = (per_call_us("classify.classify_point", 2), "us")
    pruner_ns = sum(total(name, 1) for name in PRUNERS)
    metrics["valuations.pruners_us"] = (pruner_ns / info["requests"] / 1e3 if info["requests"] else 0.0, "us")
    metrics["exactint.checked_pow_calls"] = (total("exactint.checked_pow", 0), "count")
    metrics["exactint.geometric_sum_calls"] = (total("exactint.geometric_sum", 0), "count")
    metrics["primality.primes_upto_s"] = (total("primality.primes_upto", 1) / 1e9, "s")
    for layer in LAYERS:
        self_ns = sum(total(name, 2) for name in totals if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (self_ns / 1e9, "s")
    metrics["pool.speedup_w2"] = (speedup, "ratio")
    metrics["pool.efficiency_w2"] = (speedup / run.workers2, "ratio")
    metrics["cli.import_s"] = (statistics.median(run.import_s), "s")
    for name in COUNTS:
        metrics[name] = (run.counts.get(name, 0), "count" if not name.endswith("ratio") else "ratio")
    metrics["trace.requests"] = (info["requests"], "count")
    metrics["trace.sampled_requests"] = (info["sampled_requests"], "count")
    metrics["trace.spans"] = (info["spans"], "count")
    metrics["trace.overhead_ratio"] = (traced["wall"] / median_wall(w1), "ratio")
    run.samples = {
        "spans_path": info["spans_path"], "wall_s_w1": [r["wall"] for r in w1],
        "wall_s_w2": w2["wall"], "wall_s_traced": traced["wall"], "scale_quartiles": statistics.quantiles(run.scales, n=4),
    }
    return metrics


def _commit() -> str:
    head = wl.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = wl.ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (wl.ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "sigmaperfect" / "__init__.py").is_file():
        print(f"error: program sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    wl.OUT_DIR.mkdir(exist_ok=True)

    run = Run(args)
    load_before = os.getloadavg()
    metrics = trace_layers(run, args.seconds) if args.trace else measure(run, args.seconds)
    correct = not run.failures and bool(metrics)
    failed = max(len(run.failures), 0 if correct else 1)
    attempted = max(run.attempted, failed, 1)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:16.6f} ratio")
    for what in run.failures[:5]:
        print(f"FAILED: {what}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "workers2": run.workers2, "python": platform.python_version(),
        "cpu_model": _cpu_model(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "commit": _commit(), "samples": run.samples,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
