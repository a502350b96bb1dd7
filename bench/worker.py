"""The process that runs the program: it executes operation specs and times them.

Run by ``run.py``, never by hand.  Two modes:

* ``worker.py --workload W --outdir D --probe`` is one set-up launch: import
  ``grushin.cli`` and the modules the workload calls, make one warm-up call of
  each operation kind, exit.  ``run.py`` times the whole process.
* ``worker.py --workload W --outdir D [--trace-file F]`` serves rounds: it
  reads one JSON request per line on stdin and answers one JSON line on
  stdout.  A request ``{"ops": [...], "trace": bool, "first_op": i}`` runs
  one round, numbering its operations from i in the trace.  The reply
  holds each operation's result and start time, and the host-speed samples
  (see hostspeed.py) taken before operations during the round;
  ``{"exit": true}`` ends the process after reporting its peak memory.

Only the call into the program is timed.  Writing input files, reading output
files back, host-speed samples and sending results happen outside the timed
region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

IMPORT_START = time.perf_counter()
import grushin.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START

import hostspeed  # noqa: E402


def _oracle(a, b, h, beta, delta):
    from grushin import bessel

    return bessel.weighted_L2_membership_oracle(
        bessel.BesselModelOp(a, b, h, beta, delta=delta), "u2")


def _kernel(a, b, h, beta, xs):
    from grushin import bessel

    pair = bessel.kernel_solutions(bessel.BesselModelOp(a, b, h, beta))
    return {which: [[pair.u(which, x), pair.du(which, x), pair.ddu(which, x)] for x in xs]
            for which in ("u1", "u2")}


LIBRARY_CALLS = {"oracle": _oracle, "kernel": _kernel}


def execute(spec: dict, outdir: str) -> dict:
    """Run one operation; returns its latency, exit code, output and files read back."""
    for name, content in spec.get("write", {}).items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    result = {"rc": 0, "out": None, "files": {}, "error": None}
    t0 = time.perf_counter()
    try:
        if "argv" in spec:
            argv = [a.replace("{outdir}", outdir) for a in spec["argv"]]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
            result["rc"], result["out"] = rc, buf.getvalue()
        else:
            fn = LIBRARY_CALLS[spec["call"]]
            t0 = time.perf_counter()
            out = fn(**spec["args"])
            elapsed = time.perf_counter() - t0
            result["out"] = out
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        elapsed = time.perf_counter() - t0
        result["rc"], result["error"] = -1, f"{type(exc).__name__}: {exc}"
    for name in spec.get("read", []):
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                result["files"][name] = fh.read()
    result["s"] = elapsed
    return result


def serve(args) -> int:
    chan = sys.stdout
    sys.stdout = sys.stderr  # nothing but the protocol goes to the parent's pipe
    recorder = None
    last_ref = float("-inf")
    if args.trace_file:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            if recorder is not None:
                recorder.dump(args.trace_file)
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     "import_s": IMPORT_S}
            chan.write(json.dumps(reply) + "\n")
            chan.flush()
            return 0
        traced = bool(request.get("trace")) and recorder is not None
        if traced:
            recorder.install()
        results, refs, wall = [], [], 0.0
        for offset, spec in enumerate(request["ops"]):
            if time.perf_counter() - last_ref >= hostspeed.REFERENCE_EVERY_S:
                refs += hostspeed.samples()
                last_ref = refs[-1][0]
            if traced:
                recorder.current_op = request["first_op"] + offset
            t0 = time.perf_counter()
            results.append(execute(spec, args.outdir))
            wall += time.perf_counter() - t0
            results[-1]["t"] = t0
        if traced:
            recorder.uninstall()
            recorder.current_op = -1
        chan.write(json.dumps({"results": results, "wall_s": wall, "refs": refs}) + "\n")
        chan.flush()
    return 0


def probe(args) -> int:
    """One set-up launch: ``grushin.cli`` was imported at module load, and the
    warm-up calls import whatever else the workload's operations need."""
    from workloads import warmup_round

    with contextlib.redirect_stdout(sys.stderr):
        for spec in warmup_round(args.workload):
            result = execute(spec, args.outdir)
            if result["rc"] != 0:
                print(f"warm-up {spec['kind']} failed: {result}", file=sys.stderr)
                return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    return probe(args) if args.probe else serve(args)


if __name__ == "__main__":
    sys.exit(main())
