"""Benchmark of the ainfinity library: end-to-end metrics per workload, or
per-layer metrics from a separate traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduced-large --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 0

Each workload run happens in fresh single-threaded child processes
(`worker.py`), one at a time, with the library imported from `src/`.
`--trace 0` reports the end-to-end metrics: it measures set-up in
`SETUP_SAMPLES` set-up-only children plus the measuring child and reports
their median, and takes peak RSS from the measuring child.  `--trace 1`
runs one untraced pass and one traced pass in two children and reports the
per-layer metrics, with the difference of the two pass times as the
tracing overhead.  `--smoke` shrinks every workload for the benchmark's
own tests.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The full
record, with the environment, is also written to `.bench_out/`.  The exit
status is 0 when every operation passed its check, 1 when one failed and
2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("reduced-large", "brute-oracle", "query-file")
SETUP_SAMPLES = 5


def run_limit(seconds: int) -> float:
    """Seconds after which a workload run, children included, is taken to
    hang and is stopped.  A run takes a few times `seconds`; the margin
    lets a much slower program still be measured."""
    return 120 + 20 * seconds

#: end-to-end metrics: (name, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p90_us", "us", "lower"),
    ("queries_per_s", "1/s", "higher"),
]

sys.path.insert(0, str(BENCH))
import numpy  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402


class BenchError(Exception):
    """The run could not be made (missing sources, a child that crashed
    or overran); no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(spec: dict, deadline: float) -> tuple[dict, float, int]:
    """Run worker.py with the spec; returns (result, start time, peak RSS
    in KiB).  The child is killed and reaped if it outlives the deadline."""
    out = OUT / f"child-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    spec = dict(spec, out=str(out), artifacts=str(OUT))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                            env=child_env(), cwd=ROOT, stdout=sys.stderr)
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                raise BenchError(f"{spec['role']} child overran the run deadline")
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # overran or interrupted: stop the child and reap it
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{spec['role']} child exited with status {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, start, usage.ru_maxrss


def environment() -> dict:
    """Where and on what the numbers were taken."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: int, smoke: bool,
            deadline: float) -> dict:
    """End-to-end metrics of one workload run."""
    base = {"workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke}
    setups, attempted, failed, problems = [], 0, 0, []
    for _ in range(1 if smoke else SETUP_SAMPLES):
        res, start, _ = run_child(dict(base, role="setup"), deadline)
        setups.append(res["ready"] - start)
        attempted, failed = attempted + res["attempted"], failed + res["failed"]
        problems += res["problems"]
    res, start, rss_kib = run_child(dict(base, role="timed"), deadline)
    setups.append(res["ready"] - start)
    metrics = {
        "wall_s": res["wall_s"],
        "peak_rss_mb": rss_kib / 1024,
        "setup_s": statistics.median(setups),
        "query_p50_us": res["query_p50_us"],
        "query_p90_us": res["query_p90_us"],
        "queries_per_s": res["queries_per_s"],
    }
    samples = {"wall_s": f"summed least time of each operation over "
                         f"{len(res['pass_wall_s'])} passes {_spread(res['pass_wall_s'])}",
               "peak_rss_mb": "1 process",
               "setup_s": f"median of {len(setups)} set-ups {_spread(setups)}",
               **{name: f"{res['queries']} queries, least of {res['rounds']} rounds each"
                  for name in ("query_p50_us", "query_p90_us", "queries_per_s")}}
    return {"metrics": metrics, "units": dict((n, u) for n, u, _ in END_TO_END),
            "samples": samples, "pass_wall_s": res["pass_wall_s"],
            "setup_samples_s": setups,
            "attempted": attempted + res["attempted"],
            "failed": failed + res["failed"],
            "problems": problems + res["problems"]}


def trace(workload: str, seed: int, seconds: int, smoke: bool,
          deadline: float) -> dict:
    """Per-layer metrics of one traced pass, and the tracing overhead
    against one untraced pass of the same inputs."""
    base = {"workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke}
    plain, _, _ = run_child(dict(base, role="once"), deadline)
    spans = OUT / f"spans-{workload}.json"
    traced, _, _ = run_child(dict(base, role="traced", spans=str(spans)), deadline)

    metrics = layer_metrics(traced["layers"], traced["counters"],
                            traced["window_length"], traced["wall_s"] - plain["wall_s"])
    problems = plain["problems"] + traced["problems"]
    failed = plain["failed"] + traced["failed"]
    if traced["zero_call_entry_points"]:
        problems.append("entry points with no recorded call: "
                        + ", ".join(traced["zero_call_entry_points"]))
        failed += 1
    return {"metrics": metrics, "units": dict((n, u) for n, u, _ in PER_LAYER),
            "samples": {}, "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"], "spans_file": str(spans.relative_to(ROOT)),
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": failed, "problems": problems}


def _spread(values: list) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"(quartiles {q1:.4g}..{q3:.4g})"


def report(workload: str, seed: int, mode: str, outcome: dict) -> list[str]:
    lines = [f"{workload} seed={seed} {mode}: {outcome['attempted']} operations, "
             f"{outcome['failed']} failed, failed_fraction "
             f"{outcome['failed'] / outcome['attempted']:.6g}"]
    for name, value in outcome["metrics"].items():
        note = outcome["samples"].get(name, "")
        lines.append(f"  {name:44s} {value:>16.6g} {outcome['units'][name]:9s} {note}")
    lines += [f"  FAILED {p}" for p in outcome["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    deadline = time.monotonic() + run_limit(args.seconds)
    try:
        if not (SRC / "ainfinity" / "__init__.py").is_file():
            raise BenchError(f"library sources not found under {SRC}")
        OUT.mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        step = trace if args.trace else measure
        mode = "traced" if args.trace else "untraced"
        outcomes = {}
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + run_limit(args.seconds)
            outcomes[name] = step(name, args.seed, args.seconds, args.smoke, deadline)
        env = environment()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, outcome in outcomes.items():
        for line in report(name, args.seed, mode, outcome):
            print(line)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    lines = {}
    for name, outcome in outcomes.items():
        lines[name] = {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {k: {"value": v, "unit": outcome["units"][k]}
                        for k, v in outcome["metrics"].items()},
        }
        record = dict(outcome, workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, smoke=args.smoke, environment=env)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
    final = lines[args.workload] if args.workload != "all" else lines
    print(json.dumps(final))
    return 0 if all(o["failed"] == 0 for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
