"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout; the CLI jobs run from ./src.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(200)


def cli(argv) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "ncwishart.cli", *argv], cwd=ROOT,
                          env=run.child_env(), capture_output=True, check=False)
    return proc.returncode, proc.stdout


def traced(argv, tmp_path) -> tuple[int, bytes, dict]:
    out = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(out), "job-1", *argv],
                          cwd=ROOT, env=run.child_env(), capture_output=True, check=False)
    return proc.returncode, proc.stdout, json.loads(out.read_text())


# -- generator --------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert len({tuple(workloads.generate(workload, s)) for s in range(10)}) > 1


def test_every_drawable_job_has_goldens():
    goldens = checks.load_goldens()
    for workload in workloads.WORKLOADS:
        for seed in [*SEEDS, workloads.HOLDOUT_SEED]:
            for job in workloads.generate(workload, seed) + workloads.coverage():
                argv = job.argv
                if job.kind == "verify":
                    assert checks._argv_key(argv) in goldens["verify"], argv
                elif job.kind == "enumerate":
                    a = argv[argv.index("--m") + 1] if argv[1] == "snc" else argv[argv.index("--n") + 1]
                    b = argv[argv.index("--n") + 1] if argv[1] == "snc" else argv[argv.index("--k") + 1]
                    assert f"{argv[1]} {a} {b}" in goldens["enumerate"], argv
                elif job.kind == "mc":
                    key = checks._argv_key(argv, ("--format", "--seed", "--N"))
                    assert key in goldens["mc"], argv
                    assert int(argv[argv.index("--seed") + 1]) in workloads.MC_SEEDS


def test_mc_draws_stay_inside_the_verified_space():
    space = {(fixed, n) for fixed, n in workloads.mc_space()}
    for seed in SEEDS:
        for job in workloads.generate("montecarlo", seed):
            argv = job.argv
            fixed = argv[1:argv.index("--N")]
            assert (fixed, int(argv[argv.index("--N") + 1])) in space


# -- reference values -------------------------------------------------------


def test_arcsine_closed_form_satisfies_its_band_recursion():
    for n in range(12):
        for k in range(1, n + 2):
            lhs = checks.arcsine_inverse(n + 1, k)
            rhs = checks.padd(checks.padd(checks.arcsine_inverse(n, k - 1),
                                          checks.pmul((1, 1), checks.arcsine_inverse(n, k))),
                              checks.pscale(checks.arcsine_inverse(n, k + 1), 1, 1))
            assert lhs == rhs
        col0 = checks.padd(checks.pmul((1, 1), checks.arcsine_inverse(n, 0)),
                           checks.pscale(checks.arcsine_inverse(n, 1), 2, 1))
        assert checks.arcsine_inverse(n + 1, 0) == col0


def test_parse_poly_round_trips_printed_forms():
    assert checks.parse_poly("1 + 4*c + c^2") == (1, 4, 1)
    assert checks.parse_poly("-c - c^3") == (0, -1, 0, -1)
    assert checks.parse_poly("0") == ()
    with pytest.raises(checks.CheckFailed):
        checks.parse_poly("3/2 + c")


# -- output checks ----------------------------------------------------------

CORRUPTIONS = [
    ("tables pi-inverse --rows 19 --format text --check", b"n=7 | ", b"n=7 | 2*c + "),
    ("tables gamma --rows 27 --format json", b'"3 + 3*c + 3*c^2"', b'"3 + 4*c + 3*c^2"'),
    ("tables gamma-tilde --rows 24 --format text", b"status: pass", b"status: fail"),
    ("enumerate ncl --n 8 --k 3 --format text", b"count: ", b"count: 1"),
    ("enumerate snc --m 4 --n 4 --format json", b'"weight_exponents": [\n    1', b'"weight_exponents": [\n    2'),
    ("enumerate ncc --n 7 --k 3 --format text", b"(1)(2)", b"(2)(1)"),
    ("verify lineardecomp --max-n 8 --format text", b"n=8 (1 + ", b"n=8 (2 + "),
    ("verify bijections --max-n 6 --format json", b"diagrams", b"diagram"),
    ("verify series --order 11 --max-k 7 --format text", b"[ok]", b"[FAIL]"),
    ("mc raw-cov --p 1 --samples 1000 --m 2 --n 3 --N 56 --seed 11 --format json",
     b'"predicted": ', b'"predicted": 1'),
]


@pytest.mark.parametrize("argv,old,new", CORRUPTIONS)
def test_check_accepts_the_report_and_rejects_a_corrupted_one(argv, old, new):
    job = workloads.Job(argv.split()[0], tuple(argv.split()))
    code, out = cli(job.argv)
    assert checks.check_job(job, code, out)[0] is None
    assert old in out
    bad = out.replace(old, new, 1)
    assert checks.check_job(job, code, bad)[0] is not None
    assert checks.check_job(job, 1, out)[0] is not None
    assert checks.check_job(job, None, out)[0] is not None


def test_mc_check_recomputes_the_tolerance_band():
    argv = "mc raw-cov --p 1 --samples 1000 --m 2 --n 3 --N 56 --seed 11 --format json"
    job = workloads.Job("mc", tuple(argv.split()))
    code, out = cli(job.argv)
    report = json.loads(out)
    rec = report["covariance"][0]
    band = checks.tolerance_band(rec["se"], rec["predicted"], 56)
    assert abs(rec["tolerance"] - band) <= 1e-12 * band
    # a report that widens its own band to cover a stray estimate is rejected
    rec["estimate"] = rec["predicted"] + 2 * band
    rec["tolerance"] = 1e9
    bad = json.dumps(report).encode()
    assert "tolerance band" in checks.check_job(job, code, bad)[0]


def test_probe_needs_a_verdict():
    probe = workloads.probes("montecarlo")[0]
    assert checks.check_job(probe, 2, b"")[0] is not None
    assert checks.check_job(probe, None, b"")[0] is not None
    assert checks.check_job(probe, 1, b'{"status": "fail"}')[0] is None


# -- tracing ----------------------------------------------------------------

TRACED = [
    "tables pi-inverse --rows 8 --check",
    "tables gamma --rows 6 --format json",
    "enumerate ncc --n 5 --k 2",
    "enumerate snc --m 2 --n 3 --format json",
    "verify cut-reassemble --max-total 5",
    "verify bijections --max-n 3 --format json",
    "verify wick --depth 4 --algebra scalar",
    "verify series --order 6 --max-k 4",
    "mc raw-cov --m 2 --n 3 --N 16 --samples 64",
    "mc diagonalize --N 12 --samples 64 --c 1/2 --format json",
]


@pytest.mark.parametrize("argv", TRACED)
def test_traced_output_matches_untraced(argv, tmp_path):
    code, out = cli(argv.split())
    tcode, tout, trace = traced(argv.split(), tmp_path)
    assert (tcode, checks.normalize(tout)) == (code, checks.normalize(out))
    assert trace["spans"][0][0] == "cli.main"
    assert all(span[4] == "job-1" for span in trace["spans"])
    assert all(-1 <= span[3] < i for i, span in enumerate(trace["spans"]))


def test_sampler_layers_are_traced(tmp_path):
    _, _, trace = traced("mc diagonalize --N 12 --samples 64".split(), tmp_path)
    for name in ("rmt.rng", "rmt.gram", "rmt.power_matmul", "rmt.trace_einsum"):
        assert trace["calls"][name] > 0
    assert trace["counters"]["rmt.matrices_sampled"] == 128


def test_tracer_fails_when_a_wrapped_name_is_gone(tmp_path):
    code = ("import runpy, sys; import ncwishart.cli as cli; del cli.enum_snc; "
            f"sys.argv = ['tracer.py', {str(tmp_path / 'trace.json')!r}, 'job-1', "
            "'tables', 'pi', '--rows', '3']; "
            f"runpy.run_path({str(HERE / 'tracer.py')!r}, run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, check=False)
    assert proc.returncode != 0
    assert "has no 'enum_snc' to wrap" in proc.stderr


def test_per_layer_reports_every_metric_and_names_the_empty_ones():
    trace = {
        "calls": {"polyc.mul": 3}, "seconds": {"polyc.mul": 0.5}, "counters": {},
        "gauges": {"perms.cache_entries": 0, "families.poly_cache_entries": 4},
        "spans": [["cli.main", 0.0, 2.0, -1, "j"], ["cli.handler", 0.5, 1.5, 0, "j"]],
    }
    metrics, missing = run.per_layer([], [], [trace])
    assert metrics["polyc.mul_calls"] == (3, "count")
    assert metrics["cli.render_s"] == (1.0, "s")
    assert metrics["families.poly_cache_entries"] == (4, "count")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in manifest["per_layer"]}
    for name in ("perms.cache_entries", "rmt.rng_s", "rmt.matmul_gflops",
                 "perms.nc_keep_ratio", "wick.apply_self_s", "mc_samples_per_s"):
        assert name in missing and metrics[name][0] == 0
    assert "polyc.mul_calls" not in missing


def test_coverage_jobs_pass_and_reach_every_layer(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runner = run.Runner(time.perf_counter())
    untraced, traced_runs, traces = [], [], []
    for job in workloads.coverage():
        untraced.append(runner.run(job, 0))
        traced_runs.append(runner.run(job, 1, tmp_path / "trace.json"))
        traces.append(json.loads((tmp_path / "trace.json").read_text()))
    assert [e.failure for e in untraced + traced_runs if e.failure] == []
    _, missing = run.per_layer(untraced, traced_runs, traces)
    assert missing == []


def test_end_to_end_times_are_scaled_by_the_calibration():
    job = workloads.Job("tables", ("tables", "pi", "--rows", "3"))

    def execution(wall, calibration):
        return run.Execution(job, 0, False, 0, wall, wall / 2, 1024, None, 1, b"", b"",
                             calibration_s=calibration)

    ref = run.CALIBRATION_REF_S
    runs = [execution(2.0, ref), execution(4.0, 2 * ref), execution(2.2, 2 * ref)]
    metrics = run.end_to_end([job], runs, [], [0.3, 0.5], [ref, 2 * ref])
    # jobs: the median wall over the median calibration of the run
    assert metrics["wall_s"] == (2.2 / 2, "s")
    assert metrics["cpu_s"] == (1.1, "s")  # CPU time is not scaled
    # set-up: each sample over the calibration just before it
    assert metrics["setup_s"] == (0.275, "s")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
