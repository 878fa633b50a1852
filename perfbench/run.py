"""Benchmark of ssdual: one workload per run, measured from outside the library.

    python3 perfbench/run.py --workload verify-coupled --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates its inputs from ``--seed``, computes independent references,
measures set-up (three fresh-interpreter imports of ssdual and one warm-up
round that is not counted among the requests), then serves whole rounds of
requests, one at a time, for about ``--seconds`` seconds of request time.
A fixed calibration runs after every request, outside its timing, and the
throughput is also reported adjusted to the host speed it measured.
Every output is checked against the references after its request.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
Spans of a traced run go to ``.perfbench_out/``.
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
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("verify-coupled", "exact-size", "exact-horizon", "cli-cold")
#: fresh-interpreter imports per run; set-up reports their median
IMPORT_PROBES = 3
#: typical times of the two calibrations on the reference machine (see README)
CALIBRATION_REF_S = 0.020
STARTUP_REF_S = 0.115


def calibration() -> float:
    """A fixed loop that does not touch ssdual; its time follows the host's speed."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return perf_counter() - start


def startup() -> float:
    """The start of a fresh interpreter that does nothing: the host's speed for cli-cold."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return perf_counter() - start


def import_probe() -> float:
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), "import"],
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)["import_s"]


def percentiles(times: list[float]) -> list[tuple[str, float]]:
    """The median, and the highest whole percentile with ten requests beyond it.

    With fewer than forty requests that percentile would be no tail, so the
    median is reported alone.
    """
    out = [("p50", statistics.median(times))]
    if len(times) >= 40:
        p = int(100 * (1 - 10 / len(times)))
        out.append((f"p{p}", statistics.quantiles(times, n=100)[p - 1]))
    return out


def machine() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return (f"python {platform.python_version()}, {os.cpu_count()} cpus, "
            f"{platform.machine()}, OPENBLAS_NUM_THREADS={threads}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Verdicts

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workload = WORKLOADS[name](seed, root=ROOT, workdir=workdir, traced=traced)
        workload.prepare()
        imports = [import_probe() for _ in range(IMPORT_PROBES)]
        library = name != "cli-cold"
        # a child's start follows the host's speed at starting processes, which
        # the loop does not: for cli-cold it tracks request time much closer
        calibrate, reference = (calibration, CALIBRATION_REF_S) if library else (startup, STARTUP_REF_S)
        workload.load()
        verdicts = Verdicts()

        start = perf_counter()
        for i in range(workload.round_size):
            workload.request(i)
        warmup = perf_counter() - start

        calib: list[float] = []
        tracer = Tracer() if traced else None
        if tracer and library:
            tracer.install()
        times: list[float] = []
        rounds = 0
        while True:
            for _ in range(workload.round_size):
                index = len(times)
                if tracer:
                    tracer.request = index
                t0 = perf_counter()
                outcomes = workload.request(index)
                times.append(perf_counter() - t0)
                calib.append(calibrate())
                if tracer and not library:
                    with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
                        child = json.load(fh)
                    tracer.merge([["cli.import", 0.0, child["import_s"], -1, 0, 0]])
                    tracer.merge(child["spans"])
                workload.check(index, outcomes, verdicts)
            rounds += 1
            spent = sum(times)
            if spent + 0.5 * spent / rounds >= seconds:
                break
        if tracer:
            tracer.uninstall()
        problems = workload.run_checks(verdicts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN)
    requests_per_s = len(times) / sum(times)
    summary = {
        "setup_s": statistics.median(imports) + warmup,
        # the host's speed drifts by 10-15 % over minutes; the calibration,
        # timed after every request, follows it, so the ratio cancels most of it
        "adjusted_requests_per_s": requests_per_s * statistics.fmean(calib) / reference,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "adjusted_requests_per_s": "1/s", "peak_rss_mb": "MB"}
    print(f"{name} seed {seed}: {len(times)} requests in {sum(times):.2f} s ({rounds} rounds), "
          f"attempted {verdicts.attempted}, failed {verdicts.failed}; {machine()}")
    for problem in verdicts.problems + problems:
        print(f"  problem: {problem}")
    line = [f"{k} {v:.6g} {units[k]}" for k, v in summary.items()]
    line.append(f"requests_per_s {requests_per_s:.6g} 1/s")
    line += [f"request_s.{label} {value:.6g} s" for label, value in percentiles(times)]
    line.append(f"host.calibration_s {statistics.median(calib):.6g} s")
    line.append(f"import_s {statistics.median(imports):.4g} s, warm-up {warmup:.4g} s")
    print("  " + " | ".join(line))
    if getattr(workload, "rejections", None) is not None:
        print(f"  gate rejections (not failures): {workload.rejections}")

    if tracer:
        metrics = tracer.layer_metrics(len(times))
        metrics["host.calibration_s"] = {"value": statistics.median(calib), "unit": "s"}
        metrics["trace.requests_per_s"] = {"value": requests_per_s, "unit": "1/s"}
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz")
        tracer.dump(path)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        for key, metric in metrics.items():
            print(f"  {key} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in summary.items()}
    return {"correct": not problems, "attempted": verdicts.attempted,
            "failed": verdicts.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout + proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            result["metrics"][f"{name}/{key}"] = metric
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ssdual", "__init__.py")):
        print(f"error: no ssdual sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
