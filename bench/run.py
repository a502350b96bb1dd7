"""Benchmark of the grushin toolkit: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload classify_grid --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See bench/README.md for what each metric means.

This process is the harness: it makes the inputs, starts the worker process
that runs the program (bench/worker.py), times the set-up launches, and checks
every output against computations done apart from the program
(bench/checks.py).  Only one process works at a time.
"""

from __future__ import annotations

import os

# one thread per process: the worker and this harness never use more than two
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS, Workload, warmup_round  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SEGMENTS = 3
TAIL_BEYOND = 10  # latency_tail_ms has at least this many samples above it
TAIL_MIN_SAMPLES = 40  # with fewer, that percentile is no tail and the median stands in
STOP_TIMEOUT_S = 30


class BenchmarkError(RuntimeError):
    pass


def find_root() -> Path:
    """The checkout root: the directory that holds bench/ and src/grushin/."""
    root = BENCH_DIR.parent
    if not (root / "src" / "grushin" / "cli.py").is_file():
        raise BenchmarkError(f"no program to run: {root / 'src' / 'grushin'} is missing")
    return root


def build(root: Path):
    """Byte-compile the program and the benchmark, so no timed launch compiles."""
    for path in (root / "src", BENCH_DIR):
        if not compileall.compile_dir(str(path), quiet=1):
            raise BenchmarkError(f"could not compile {path}")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + str(BENCH_DIR)
    return env


class Worker:
    """The long-lived process that runs the program, one round at a time."""

    def __init__(self, root: Path, workload: str, outdir: Path, trace_file: Path | None):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--outdir", str(outdir)]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=worker_env(root), cwd=str(root), text=True)

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> dict:
        reply = self.request({"exit": True})
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        return reply

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_launch(root: Path, workload: str, outdir: Path, refs: list) -> tuple:
    """(start, wall time) of one fresh interpreter that imports the program and
    warms up.  Host-speed samples are taken just before and after it."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--outdir", str(outdir), "--probe"]
    refs += hostspeed.samples()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=worker_env(root), cwd=str(root), stdout=subprocess.DEVNULL,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    refs += hostspeed.samples()
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up launch exited with code {proc.returncode}")
    return t0 + elapsed / 2.0, elapsed


def tail_latency(samples) -> float:
    """The highest percentile that still has TAIL_BEYOND samples above it.

    Below TAIL_MIN_SAMPLES samples that percentile lies under p75, so the
    median is reported instead.
    """
    if len(samples) < TAIL_MIN_SAMPLES:
        return statistics.median(samples)
    ordered = sorted(samples)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


class Tally:
    """Counts and latencies of the operations a run attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.latencies: list = []  # (start, seconds) of each completed operation
        self.refs: list = []  # host-speed samples
        self.specs: list = []  # in the worker's order, for the trace
        self.traced_round_s: list = []
        self.plain_round_s: list = []

    def add_round(self, ops, reply, traced: bool):
        for spec, result in zip(ops, reply["results"]):
            failed, errors = checks.check(spec, result)
            self.attempted += 1
            self.specs.append(spec)
            if failed:
                self.failed += 1
                print(f"failed: {spec['kind']} {spec.get('argv') or spec.get('args')}: "
                      f"{result.get('error') or result['out']!r:.300}", file=sys.stderr)
                continue
            self.latencies.append((result["t"], result["s"]))
            for e in errors:
                self.errors.append(f"{spec['kind']}: {e}")
        self.refs += reply["refs"]
        op_s = sum(r["s"] for r in reply["results"])
        (self.traced_round_s if traced else self.plain_round_s).append(op_s)


def end_to_end(setup_s, latencies, final, scale) -> dict:
    """The end-to-end metrics, each timing scaled by the host speed when it was taken."""
    setup = [s * scale(t) for t, s in setup_s]
    lat_ms = [s * scale(t) * 1e3 for t, s in latencies]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": 1e3 * len(lat_ms) / sum(lat_ms), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_tail_ms": {"value": tail_latency(lat_ms), "unit": "ms"},
        "peak_rss_mb": {"value": final["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def run(args) -> dict:
    root = find_root()
    build(root)
    out = root / ".bench_out"
    outdir = out / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.npz" if args.trace else None
    gen = Workload(args.workload, args.seed)
    tally = Tally()
    setup_s = []
    worker = Worker(root, args.workload, outdir, trace_file)
    try:
        warm = worker.request({"ops": warmup_round(args.workload), "trace": False,
                               "first_op": -1})
        if any(r["rc"] != 0 for r in warm["results"]):
            raise BenchmarkError("warm-up call failed in the worker")
        # set-up launches are spread through the run: one before each of the
        # SEGMENTS equal stretches of measuring time, and one after the last.
        # A traced run alternates untraced and traced stretches and needs both.
        spent, segment = 0.0, 0
        while spent < args.seconds or (args.trace and not (tally.traced_round_s
                                                          and tally.plain_round_s)):
            if spent >= segment * args.seconds / SEGMENTS:
                if not args.trace:
                    setup_s.append(setup_launch(root, args.workload, outdir, tally.refs))
                segment += 1
            traced = bool(args.trace) and segment % 2 == 0
            ops = gen.next_round()
            reply = worker.request({"ops": ops, "trace": traced, "first_op": tally.attempted})
            spent += reply["wall_s"]
            tally.add_round(ops, reply, traced)
        if not args.trace:
            setup_s.append(setup_launch(root, args.workload, outdir, tally.refs))
        final = worker.close()
    finally:
        worker.kill()
        shutil.rmtree(outdir, ignore_errors=True)
    if not tally.latencies:
        raise BenchmarkError("no operation completed")
    for e in tally.errors[:20]:
        print(f"wrong output: {e}", file=sys.stderr)
    summary = {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed}
    if args.trace:
        from layers import layer_metrics

        summary["metrics"] = layer_metrics(trace_file, tally, final)
    else:
        speed = hostspeed.HostSpeed(tally.refs)
        summary["metrics"] = end_to_end(setup_s, tally.latencies, final, speed.scale)
        unscaled = end_to_end(setup_s, tally.latencies, final, lambda t: 1.0)
        summary["unscaled"] = unscaled
        print("unscaled: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in unscaled.items())
              + f"; median reference work {statistics.median(speed.s) * 1e3:.3f} ms",
              file=sys.stderr)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    summary.pop("unscaled", None)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
