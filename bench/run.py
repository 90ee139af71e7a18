"""Run one k3bv benchmark workload and print its metrics.

    python3 bench/run.py --workload mirror_map --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; k3bv is imported from ``src/`` there
and nowhere else. With ``--trace 0`` one client runs the workload's ops
in a closed loop for ``--seconds`` seconds, untraced, and the metrics are
the end-to-end ones. With ``--trace 1`` a fixed number of ops (set by
``--seconds``) runs once untraced and once with span wrappers
installed, and the metrics are the per-layer ones.

Every op's output is checked exactly, outside the timed region. The
last stdout line is the result object; the line before it is a report
with the environment, input digest, sample count, fail ratio and the
unbounded end-to-end metrics, also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, REPORTED, SPAN_FIELDS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Set-ups per untraced run: one before the first op, the rest spread
# evenly through the run, so their median samples the same host
# conditions as the ops instead of the first half second.
SETUP_REPEATS = 7
# Nominal untraced ops per second; with ``--seconds`` they fix how many
# ops a traced run makes, so its counts depend on nothing measured.
TRACE_RATE = {"mirror_map": 21, "lattice_growth": 7, "mirror_involution": 5, "cli_cold": 4}


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop; shows machine drift only."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def p90(samples: list) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


class Runner:
    """Runs ops and checks them, counting attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, fn, x, tracer=None) -> tuple[float, object]:
        """Time fn(x), traced when a tracer is given; check its output
        untimed and untraced. Returns (seconds, output)."""
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(self.attempted)
        t0 = time.perf_counter()
        try:
            out, error = fn(x), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is not None:
            self.fail(f"{type(error).__name__}: {error}")
            return dt, None
        try:
            self.wl.check(x, out)
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
        return dt, out

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message[:300])


def setup(name: str, seed: int) -> tuple:
    """One set-up: a fresh workload builds the seed's pool and hands it to
    the program. Returns (workload, pool, inputs, seconds)."""
    from workloads import workload

    t0 = time.perf_counter()
    wl = workload(name, ROOT)
    pool = wl.make_pool(seed)
    inputs = wl.setup(pool)
    return wl, pool, inputs, time.perf_counter() - t0


def run_untraced(wl, runner: Runner, inputs: list, seconds: float, seed: int,
                 setup_times: list) -> dict:
    """Closed loop for ``seconds``. Between ops, at evenly spaced times,
    set up again on a fresh workload (outside the op samples) and append
    its time to ``setup_times``; the ops keep using the first set-up."""
    samples = []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    step = seconds / (SETUP_REPEATS - 1)
    due = [t_start + (k + 0.5) * step for k in range(SETUP_REPEATS - 1)]
    i = 0
    while True:
        dt, _ = runner.run(wl.op, inputs[i % len(inputs)])
        samples.append(dt)
        i += 1
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            setup_times.append(setup(wl.name, seed)[3])
        if time.perf_counter() >= t_end:
            break
    setup_times.extend(setup(wl.name, seed)[3] for _ in due)
    return {"samples": samples,
            "metrics": {"ops_per_s": len(samples) / sum(samples),
                        "op_p50_ms": statistics.median(samples) * 1e3,
                        "op_p90_ms": p90(samples) * 1e3}}


def timed_pass(fn, runner: Runner, ops: list, tracer=None) -> float:
    return sum(runner.run(fn, x, tracer)[0] for x in ops)


def median_spawn_ms(wl, code: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.env, check=True,
                       capture_output=True, timeout=120)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run_traced(wl, runner: Runner, inputs: list, seconds: float, out_base: str) -> dict:
    from tracing import Tracer

    n = max(wl.block, int(seconds * TRACE_RATE[wl.name] / 3))
    n = -(-n // wl.block) * wl.block
    ops = [inputs[i % len(inputs)] for i in range(n)]
    metrics = {name: 0 for name, _ in PER_LAYER}

    if wl.name == "cli_cold":
        # The child process is never wrapped, so the traced run compares
        # in-process cli.run with and without wrappers; the cold process
        # cost is split into interpreter, import and the rest.
        interp = median_spawn_ms(wl, "pass")
        metrics["cli.interpreter_ms"] = interp
        metrics["cli.import_ms"] = median_spawn_ms(wl, "import k3bv.cli") - interp
        spawned = timed_pass(wl.op, runner, ops)
        per_cmd: dict[str, list] = {}
        untraced = 0.0
        for x in ops:
            dt, _ = runner.run(wl.traced_op, x)
            per_cmd.setdefault(x[0], []).append(dt)
            untraced += dt
        for cmd, times in per_cmd.items():
            metrics[f"cli.run.{cmd}.ms"] = statistics.fmean(times) * 1e3
        metrics["cli.startup_ms"] = (spawned - untraced) / n * 1e3
    else:
        untraced = timed_pass(wl.op, runner, ops)

    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_pass(wl.traced_op, runner, ops, tracer)
    finally:
        tracer.uninstall()

    stats = tracer.aggregate()
    for span, fields in SPAN_FIELDS:
        s = stats.get(span, {"calls": 0, "ns": 0, "self_ns": 0})
        values = {"calls": s["calls"], "ms": s["ns"] / n / 1e6, "self_ms": s["self_ns"] / n / 1e6,
                  "max_bits": tracer.bits.get(f"{span}.max_bits", 0)}
        metrics.update((f"{span}.{f}", values[f]) for f in fields)
    metrics["trace.untraced_ops_per_s"] = n / untraced
    metrics["trace.traced_ops_per_s"] = n / traced
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    nesting = tracer.nesting_errors()
    if nesting:
        runner.fail(f"{nesting} spans do not nest inside their parents")
    tracer.write(out_base + ".spans.jsonl")
    return {"metrics": metrics, "traced_ops": n, "spans": len(tracer.spans),
            "nesting_errors": nesting}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "k3bv", "__init__.py")):
        print(f"bench: no k3bv package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import k3bv
    if os.path.dirname(os.path.dirname(os.path.abspath(k3bv.__file__))) != SRC:
        print(f"bench: imported k3bv from {k3bv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import digest

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": commit(), "loadavg_start": os.getloadavg(),
           "calibration_ms_before": calibration_ms()}
    wl, pool, inputs, first_setup = setup(args.workload, args.seed)
    setup_times = [first_setup]
    runner = Runner(wl)
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_base = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pool_size": len(pool), "input_digest": digest(pool)}
    if args.trace:
        result = run_traced(wl, runner, inputs, args.seconds, out_base)
        metrics = result["metrics"]
        report.update(traced_ops=result["traced_ops"], spans=result["spans"],
                      nesting_errors=result["nesting_errors"])
        units = dict(PER_LAYER)
    else:
        result = run_untraced(wl, runner, inputs, args.seconds, args.seed, setup_times)
        metrics = dict(result["metrics"], setup_s=statistics.median(setup_times),
                       peak_rss_mb=peak_rss_mb(children=args.workload == "cli_cold"))
        report["samples"] = len(result["samples"])
        report["setups"] = len(setup_times)
        report.update((k, metrics[k]) for k in REPORTED)
        units = dict(END_TO_END)
    env["calibration_ms_after"] = calibration_ms()
    report.update(env=env, attempted=runner.attempted, failed=runner.failed,
                  fail_ratio=runner.failed / runner.attempted, failures=runner.failures)
    line = {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    report["result"] = line
    with open(out_base + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
