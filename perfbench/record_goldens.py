"""Record perfbench/goldens.json from the ncwishart sources in ./src.

Run from the root of a checkout:  python3 perfbench/record_goldens.py

It records, for every argv the generator in workloads.py can draw and
every job of its coverage set:

* the digest of each enumerated cell's sorted diagram set;
* the number of identity instances of each verify suite (a floor: later
  versions may check more instances, never fewer);
* the ordered statistics and exact predicted limits of each mc template;

and it fails unless every mc (template, N, sampler seed) combination the
generator can draw passes all of the benchmark's checks.  The values are
taken from the code at the commit that defined the benchmark; the checks
in checks.py recompute everything they can from closed forms instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import checks  # noqa: E402
import workloads  # noqa: E402
from ncwishart import cli  # noqa: E402

ENUMERATE_CELLS = (
    [("ncc", n, k) for n in (7, 8) for k in (1, 2, 3)]
    + [("ncl", n, k) for n in (8, 9) for k in (1, 2, 3)]
    + [("snc", m, n) for a, b in ((2, 6), (3, 5), (4, 4), (3, 6), (4, 5))
       for m, n in ((a, b), (b, a))]
)

# plus the cells and suites of the traced run's coverage set
ENUMERATE_CELLS += [("snc", 2, 3)]

VERIFY_ARGVS = (
    [("verify", "recursions", "--max-n", "8")]
    + [("verify", "series", "--order", str(o), "--max-k", str(k))
       for o in (9, 10, 11) for k in (5, 6, 7)]
    + [("verify", "wick", "--depth", "5", "--algebra", "function"),
       ("verify", "wick", "--depth", "4", "--algebra", "all")]
    + [("verify", "cut-reassemble", "--max-total", "7"),
       ("verify", "bijections", "--max-n", "6"),
       ("verify", "lineardecomp", "--max-n", "8")]
    + [("verify", "series", "--order", "4", "--max-k", "3"),
       ("verify", "wick", "--depth", "4", "--algebra", "scalar"),
       ("verify", "cut-reassemble", "--max-total", "4"),
       ("verify", "bijections", "--max-n", "3"),
       ("verify", "lineardecomp", "--max-n", "4")]
)


def run_json(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv) + ["--format", "json"])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def main() -> None:
    goldens: dict = {"enumerate": {}, "verify": {}, "mc": {}}
    for kind, a, b in ENUMERATE_CELLS:
        if kind == "snc":
            argv, key = ("enumerate", "snc", "--m", str(a), "--n", str(b)), f"snc {a} {b}"
        else:
            argv, key = ("enumerate", kind, "--n", str(a), "--k", str(b)), f"{kind} {a} {b}"
        diagrams = run_json(argv)["diagrams"]
        goldens["enumerate"][key] = hashlib.sha256("\n".join(sorted(diagrams)).encode()).hexdigest()
        print(f"enumerate {key}: {len(diagrams)} diagrams", file=sys.stderr)
    for argv in VERIFY_ARGVS:
        goldens["verify"][" ".join(argv)] = run_json(argv)["instances"]
        print(f"{' '.join(argv)}: {goldens['verify'][' '.join(argv)]} instances", file=sys.stderr)

    reports = []
    for fixed, n in workloads.mc_space():
        argv = ("mc",) + fixed
        key = " ".join(argv)
        for seed in workloads.MC_SEEDS:
            full = argv + ("--N", str(n), "--seed", str(seed))
            report = run_json(full)
            want = [("mean", r["key"], r["key"], r["predicted_mean"]) for r in report["statistics"]]
            want += [(r["kind"], r["key_a"], r["key_b"], r["predicted"])
                     for r in report["covariance"]]
            if goldens["mc"].setdefault(key, want) != want:
                raise SystemExit(f"{key}: predicted limits depend on N or the seed")
            reports.append((full, report))
        print(f"{key}: N={n} sampled", file=sys.stderr)

    failed = []
    for full, report in reports:
        job = workloads.Job("mc", full + ("--format", "json"))
        reason, _ = checks.check_job(job, 0, json.dumps(report).encode(), goldens)
        if reason is not None:
            failed.append(f"{' '.join(full)}: {reason}")
    if failed:
        raise SystemExit("mc draws that fail their checks:\n" + "\n".join(failed))
    checks.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDENS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
