"""Run the benchmark over several seeds and print every metric by name,
unit and workload, as the median and quartiles over runs.

    python3 perfbench/summary.py [--seeds 1-10] [--trace 0|1]

Run from the root of a checkout.  Every workload of BENCHMARK.json is run
once per seed, for its run_seconds.  The spread column is the interquartile
range as a share of the median, the figure BENCHMARK.json bounds.  Each
run's result line is also appended to .bench_out/summary.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    log = Path(".bench_out") / "summary.jsonl"
    log.parent.mkdir(exist_ok=True)
    status = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in args.seeds:
            cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-500:]}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, **result}) + "\n")
            failed += result["failed"]
            attempted += result["attempted"]
            if not result["correct"]:
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {len(args.seeds)} runs, {failed}/{attempted} job executions failed")
        print(f"  {'metric':32} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:32} {units[name]:8} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound:>6}")
    return status


if __name__ == "__main__":
    sys.exit(main())
