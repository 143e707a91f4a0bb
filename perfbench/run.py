"""The ncwishart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is run the way a researcher
runs it: one CLI command at a time, each in a fresh `python3 -m
ncwishart.cli` process with PYTHONPATH=src, each waiting for the one before
it (a closed loop with one client).  BLAS threads stay at the library
default.  The seeded generator in workloads.py draws the jobs; the program
sees only their argv.  Every job's output is checked (checks.py); a wrong
exit code, a wrong report or a timeout is a failed job.

--trace 0 measures the end-to-end metrics: the round of jobs is repeated
for S seconds, and each job's wall time, CPU time and peak RSS are taken
as the median over its runs.  Wall times are scaled to a reference
machine speed (see CALIBRATION_CODE).  The known-defect probes run once and count
toward pass_share only.

--trace 1 runs the round, extended by the coverage jobs of workloads.py,
once untraced and once through tracer.py, and reports the per-layer
metrics of the traced round, the per-command rates of the untraced one,
and the difference of the two as trace.overhead_s.  Every per-layer
metric is reported on every workload; one that recorded nothing even so
means the tracer has lost track of a layer, and fails the run.

The last line of stdout is the JSON result; the full record (environment,
seed, argv list, every job execution, spans) is written to
.bench_out/<workload>-<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path(".bench_out")
# set-up samples taken before each round, after one unmeasured warm-up
SETUP_PER_ROUND = 2
# A run never starts a job after this many seconds, so that it ends well
# within the 180 s a run may take even when the program regresses badly.
HARD_DEADLINE_S = 150.0
SETUP_CODE = "import ncwishart.cli as cli; cli.build_parser()"
# A fixed piece of interpreter work that does not touch the program:
# start python, import numpy, run a short pure-Python loop.  On a shared
# machine the speed of a core drifts, by up to 2x between runs minutes
# apart and between modes that last seconds.  Each timed job and set-up
# sample is preceded by one run of this code, and wall times are reported
# as on a machine on which it takes CALIBRATION_REF_S (see end_to_end).
CALIBRATION_CODE = "import numpy; sum(i * i % 7 for i in range(300000))"
CALIBRATION_REF_S = 0.25

ENV_CODE = r"""
import ctypes, glob, json, os, platform
import numpy, ncwishart
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "ncwishart_path": os.path.relpath(ncwishart.__file__),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "l3_size": None,
        "blas": None, "blas_threads": None,
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
try:
    with open("/proc/cpuinfo") as fh:
        info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                  if ln.startswith("model name")), None)
except OSError:
    pass
for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
    try:
        with open(f"{index}/level") as fh:
            if fh.read().strip() == "3":
                with open(f"{index}/size") as fh:
                    info["l3_size"] = fh.read().strip()
    except OSError:
        pass
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    pass
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
print(json.dumps(info))
"""


@dataclass
class Execution:
    job: workloads.Job
    round: int
    traced: bool
    exit_code: int | None  # None: timed out
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    failure: str | None
    work: int
    stdout: bytes
    stderr: bytes
    calibration_s: float | None = None  # wall of CALIBRATION_CODE just before

    def record(self) -> dict:
        return {
            "argv": list(self.job.argv), "kind": self.job.kind, "probe": self.job.probe,
            "round": self.round, "traced": self.traced, "exit_code": self.exit_code,
            "wall_s": self.wall_s, "cpu_s": self.cpu_s, "maxrss_kb": self.maxrss_kb,
            "failure": self.failure, "work": self.work, "calibration_s": self.calibration_s,
            "stderr_tail": self.stderr[-400:].decode("utf-8", errors="replace"),
        }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], timeout_s: float) -> tuple[int | None, bytes, bytes, float, float, int]:
    """Run cmd to completion; return (exit code or None on timeout, stdout,
    stderr, spawn-to-exit wall seconds, user+system CPU seconds, peak RSS
    in KiB).  CPU and RSS come from the child's own rusage (wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env())
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    deadline = start + timeout_s
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                timed_out = True
                proc.kill()
            for key, _ in sel.select(timeout=1.0 if timed_out else max(remaining, 0.05)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        None if timed_out else proc.returncode,
        b"".join(chunks[out_fd]),
        b"".join(chunks[err_fd]),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
    )


class Runner:
    """Runs jobs against the run's deadline and checks their output; an
    output already checked for the same job is not checked again."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.memo: dict[tuple, tuple[str | None, int]] = {}

    def remaining(self) -> float:
        return HARD_DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, job: workloads.Job, round_index: int, trace_file: Path | None = None) -> Execution:
        if trace_file is None:
            cmd = [sys.executable, "-m", "ncwishart.cli", *job.argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file),
                   f"r{round_index}:{' '.join(job.argv)}", *job.argv]
        timeout = min(job.timeout_s, self.remaining())
        if timeout <= 0:
            return Execution(job, round_index, trace_file is not None, None, 0.0, 0.0, 0,
                             "not started: the run's deadline had passed", 0, b"", b"")
        code, out, err, wall, cpu, rss = spawn(cmd, timeout)
        key = (job, code, checks.normalize(out))
        if key not in self.memo:
            self.memo[key] = checks.check_job(job, code, out)
        failure, work = self.memo[key]
        return Execution(job, round_index, trace_file is not None, code, wall, cpu, rss,
                         failure, work, out, err)


def environment() -> dict:
    proc = subprocess.run([sys.executable, "-c", ENV_CODE], capture_output=True,
                          env=child_env(), timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError("cannot import ncwishart and numpy from ./src: "
                           + proc.stderr.decode(errors="replace")[-300:])
    return json.loads(proc.stdout)


def measure(code: str) -> float:
    """Spawn-to-exit wall of `python3 -c CODE`."""
    exit_code, _, err, wall, _, _ = spawn([sys.executable, "-c", code], 60.0)
    if exit_code != 0:
        raise RuntimeError(f"{code!r} failed: " + err.decode(errors="replace")[-300:])
    return wall


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(jobs, executions, probe_runs, setup, setup_calibration) -> dict:
    """Job walls are scaled by CALIBRATION_REF_S over the median of every
    calibration in the run.  A set-up sample does the same kind of work as
    the calibration just before it, so each is scaled by that one alone.
    CPU time is not scaled: it leaves out the time a process waits for a
    core, and on a busy host that wait is what slows the calibration most."""
    scale = CALIBRATION_REF_S / _median(
        [e.calibration_s for e in executions] + setup_calibration)
    setup_scaled = [s * CALIBRATION_REF_S / c for s, c in zip(setup, setup_calibration)]
    by_job = [[e for e in executions if e.job is job] for job in jobs]
    walls = [_median([e.wall_s for e in runs]) for runs in by_job]
    cpus = [_median([e.cpu_s for e in runs]) for runs in by_job]
    rss = [_median([e.maxrss_kb for e in runs]) for runs in by_job]
    passed = sum(all(e.failure is None for e in runs) for runs in by_job)
    passed += sum(e.failure is None for e in probe_runs)
    return {
        "wall_s": (sum(walls) * scale, "s"),
        "setup_s": (_median(setup_scaled), "s"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        "pass_share": (passed / (len(jobs) + len(probe_runs)), "ratio"),
    }


RATE_METRICS = {
    "tables": "table_entries_per_s",
    "verify": "checks_per_s",
    "enumerate": "diagrams_per_s",
    "mc": "mc_samples_per_s",
}


def per_layer(untraced, traced, traces) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced round (see tracer.py), and the names
    of those whose layer recorded no call, span or cache entry, or whose
    command did not run; these are reported as 0."""
    calls, seconds, counters, gauges = {}, {}, {}, {}
    span_total: dict[str, float] = {}
    for tr in traces:
        for name, value in tr["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in tr["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in tr["gauges"].items():
            if value:
                gauges[name] = max(gauges.get(name, 0), value)
        spans = tr["spans"]
        for name, start, end, parent, _ in spans:
            # only the outermost span of a name counts toward its total
            p, nested = parent, False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                span_total[name] = span_total.get(name, 0.0) + (end - start)

    # span seconds, tally calls and tally seconds; None when nothing was
    # recorded under the name
    s, n, t = span_total.get, calls.get, seconds.get

    def total(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def ratio(a, b):
        return a / b if a is not None and b else None

    nc_swept = counters.get("perms.partitions_swept.enum_nc")
    snc_swept = counters.get("perms.partitions_swept.iter_snc_images")
    snc_yielded = total(n("perms.snc_yielded"), n("perms.iter_snc_images"))
    gram_s, power_s = t("rmt.gram"), t("rmt.power_matmul")
    flop = counters.get("rmt.matmul_flop")
    gflop = flop / 1e9 if flop else None
    apply_s = t("wick.apply")
    main_s = s("cli.main")
    render_s = None if main_s is None else main_s - (s("cli.handler") or 0.0)
    m = {
        "cli.handler_s": (s("cli.handler"), "s"),
        "cli.render_s": (render_s, "s"),
        "polyc.mul_calls": (n("polyc.mul"), "count"),
        "polyc.mul_s": (t("polyc.mul"), "s"),
        "polyc.add_calls": (n("polyc.add"), "count"),
        "polyc.div_exact_calls": (n("polyc.div_exact"), "count"),
        "families.inverse_table_s": (s("families.inverse_table"), "s"),
        "families.transition_matrix_s": (s("families.transition_matrix"), "s"),
        "families.invert_s": (s("families.invert"), "s"),
        "families.series_s": (s("families.series"), "s"),
        "families.poly_cache_entries": (gauges.get("families.poly_cache_entries"), "count"),
        "perms.enum_nc_s": (s("perms.enum_nc"), "s"),
        "perms.partitions_swept": (total(nc_swept, snc_swept), "count"),
        "perms.nc_kept": (counters.get("perms.nc_kept"), "count"),
        "perms.nc_keep_ratio": (ratio(counters.get("perms.nc_kept"), nc_swept), "ratio"),
        "perms.enum_snc_s": (total(s("perms.enum_snc"), t("perms.iter_snc_images")), "s"),
        "perms.snc_yielded": (snc_yielded, "count"),
        "perms.snc_keep_ratio": (ratio(snc_yielded, snc_swept), "ratio"),
        "perms.cache_entries": (gauges.get("perms.cache_entries"), "count"),
        "halfperm.enum_ncc_s": (s("halfperm.enum_ncc"), "s"),
        "halfperm.enum_ncl_s": (s("halfperm.enum_ncl"), "s"),
        "halfperm.diagrams_built": (n("halfperm.diagrams_built"), "count"),
        "halfperm.cut_calls": (n("halfperm.cut"), "count"),
        "halfperm.cut_s": (t("halfperm.cut"), "s"),
        "halfperm.reassemble_calls": (n("halfperm.reassemble"), "count"),
        "halfperm.reassemble_s": (t("halfperm.reassemble"), "s"),
        "halfperm.weighted_count_s": (t("halfperm.weighted_count"), "s"),
        "halfperm.lineardecomp_s": (s("halfperm.lineardecomp"), "s"),
        "halfperm.cache_entries": (gauges.get("halfperm.cache_entries"), "count"),
        "dots.encode_calls": (n("dots.encode"), "count"),
        "dots.encode_s": (t("dots.encode"), "s"),
        "dots.decode_calls": (n("dots.decode"), "count"),
        "dots.decode_s": (t("dots.decode"), "s"),
        "dots.enum_dots_s": (t("dots.enum_dots"), "s"),
        "colored.enum_colored_ncc_s": (s("colored.enum_colored_ncc"), "s"),
        "wick.wick_report_s": (s("wick.wick_report"), "s"),
        "wick.operator_applications": (n("wick.apply"), "count"),
        "wick.apply_self_s": (None if apply_s is None
                              else apply_s - seconds.get("wick.kron_in_apply", 0.0), "s"),
        "wick.kron_calls": (n("wick.kron"), "count"),
        "wick.kron_s": (t("wick.kron"), "s"),
        "rmt.sample_traces_s": (s("rmt.sample_traces"), "s"),
        "rmt.rng_s": (t("rmt.rng"), "s"),
        "rmt.gram_s": (gram_s, "s"),
        "rmt.power_matmul_s": (power_s, "s"),
        "rmt.trace_einsum_s": (t("rmt.trace_einsum"), "s"),
        "rmt.matmul_gflop": (gflop, "GFLOP"),
        "rmt.matmul_gflops": (ratio(gflop, total(gram_s, power_s)), "GFLOP/s"),
        "rmt.evaluate_statistics_s": (s("rmt.evaluate_statistics"), "s"),
        "rmt.predict_covariance_s": (s("rmt.predict_covariance"), "s"),
        "rmt.matrices_sampled": (counters.get("rmt.matrices_sampled"), "count"),
        "trace.overhead_s": (sum(e.wall_s for e in traced) - sum(e.wall_s for e in untraced), "s"),
    }
    for kind, name in RATE_METRICS.items():
        runs = [e for e in untraced if e.job.kind == kind]
        m[name] = (ratio(sum(e.work for e in runs), sum(e.wall_s for e in runs)), "1/s")
    missing = [name for name, (value, _) in m.items() if value is None]
    return {name: (value or 0, unit) for name, (value, unit) in m.items()}, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not Path("src/ncwishart/cli.py").is_file():
        print("error: run from the root of an ncwishart checkout (no src/ncwishart/cli.py)",
              file=sys.stderr)
        return 2
    try:
        env = environment()
        if not env["ncwishart_path"].startswith(os.path.join("src", "ncwishart")):
            raise RuntimeError(f"ncwishart resolves to {env['ncwishart_path']}, not ./src")
        measure(SETUP_CODE)  # warm-up: compiles bytecode
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(env)}", flush=True)

    jobs = workloads.generate(args.workload, args.seed)
    runner = Runner(started)
    OUT_DIR.mkdir(exist_ok=True)
    executions: list[Execution] = []
    probe_runs: list[Execution] = []
    traces: list[dict] = []
    setup: list[float] = []
    setup_calibration: list[float] = []
    missing: list[str] = []

    if args.trace == 0:
        # The first round always runs whole.  After it, a job runs again
        # only if its calibration and run, as long as they took last time,
        # still end within --seconds; so the last round may stop part-way.
        deadline = min(time.perf_counter() + args.seconds, started + HARD_DEADLINE_S)
        spent: dict[workloads.Job, float] = {}
        for round_index, job in ((r, job) for r in itertools.count() for job in jobs):
            if job in spent and time.perf_counter() + spent[job] > deadline:
                break
            if job is jobs[0]:
                for _ in range(SETUP_PER_ROUND):
                    setup_calibration.append(measure(CALIBRATION_CODE))
                    setup.append(measure(SETUP_CODE))
            start = time.perf_counter()
            calibration_s = measure(CALIBRATION_CODE)
            executions.append(runner.run(job, round_index))
            executions[-1].calibration_s = calibration_s
            spent[job] = time.perf_counter() - start
        probe_runs = [runner.run(job, 0) for job in workloads.probes(args.workload)]
        metrics = end_to_end(jobs, executions, probe_runs, setup, setup_calibration)
    else:
        jobs = jobs + workloads.coverage()
        untraced = [runner.run(job, 0) for job in jobs]
        traced = []
        trace_file = OUT_DIR / f"trace-{os.getpid()}.json"
        for job in jobs:
            traced.append(runner.run(job, 1, trace_file))
            if trace_file.is_file():
                traces.append(json.loads(trace_file.read_text()))
                trace_file.unlink()
        for u, t in zip(untraced, traced):
            if t.failure is None and checks.normalize(u.stdout) != checks.normalize(t.stdout):
                t.failure = "traced output differs from the untraced output"
        executions = untraced + traced
        metrics, missing = per_layer(untraced, traced, traces)

    attempted = len(executions)
    failed = sum(e.failure is not None for e in executions)
    if missing:
        # unless a job failed, the tracer has lost a layer: update tracer.py
        failed = max(failed, 1)
        print(f"FAILED: tracer recorded nothing for {', '.join(missing)}", file=sys.stderr)
    for e in executions + probe_runs:
        if e.failure is not None:
            tag = "probe" if e.job.probe else "FAILED"
            print(f"{tag}: {' '.join(e.job.argv)}: {e.failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "holdout_seed": workloads.HOLDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "argv": [list(job.argv) for job in jobs],
        "probes": [list(job.argv) for job in workloads.probes(args.workload)],
        "setup_s": setup,
        "setup_calibration_s": setup_calibration,
        "executions": [e.record() for e in executions + probe_runs],
        "spans": [span for tr in traces for span in tr["spans"]],
        "result": result,
    }
    (OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
