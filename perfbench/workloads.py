"""Seeded job generator for the ncwishart benchmark.

A workload is a fixed mix of CLI invocations ("jobs").  The workload seed
draws every free parameter of the mix: sizes, formats, flags, letter and
sampler seeds, and the job order.  Sizes are drawn within cost strata or
as antithetic pairs (one job above the centre, one as far below it), so
that the work in a round barely depends on the seed while every draw still
changes the argv the program receives.

The program sees only the generated argv lists.  `generate` is a pure
function of (workload, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("algebra", "diagrams", "montecarlo")

# A second seed, never used while the benchmark or a change is tuned, for
# hold-out checks of a claimed gain.
HOLDOUT_SEED = 7919

# Sampler seeds the `mc` jobs draw from.  Each (template, N, seed) the
# generator can emit was run at the commit that defined the benchmark and
# passed its statistical checks; see goldens.json and record_goldens.py.
MC_SEEDS = (11, 23, 37, 41)

# Wall-clock limit of one job; the probes have their own, shorter limit.
JOB_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 4.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `ncwishart <argv>`."""

    kind: str  # tables | enumerate | verify | mc
    argv: tuple[str, ...]
    probe: bool = False
    timeout_s: float = JOB_TIMEOUT_S


def _fmt(rng: random.Random) -> str:
    return rng.choice(("text", "json"))


def _strata(rng: random.Random, names, strata) -> dict:
    """Give each name one value drawn uniformly from its own stratum; the
    strata are dealt to the names by a seeded permutation."""
    order = list(strata)
    rng.shuffle(order)
    return {name: rng.randint(lo, hi) for name, (lo, hi) in zip(names, order)}


def _antithetic(rng: random.Random, centre: int, spread: int, step: int = 1) -> tuple[int, int]:
    d = step * rng.randint(0, spread // step)
    return (centre - d, centre + d) if rng.random() < 0.5 else (centre + d, centre - d)


def _algebra(rng: random.Random) -> list[Job]:
    jobs = []
    forward = _strata(rng, ("gamma-tilde", "gamma", "pi"), ((22, 24), (25, 27), (28, 30)))
    inverse = _strata(
        rng,
        ("gamma-tilde-inverse", "gamma-inverse", "pi-inverse"),
        ((16, 17), (18, 19), (20, 21)),
    )
    for family, rows in forward.items():
        jobs.append(Job("tables", ("tables", family, "--rows", str(rows), "--format", _fmt(rng))))
    for family, rows in inverse.items():
        argv = ["tables", family, "--rows", str(rows), "--format", _fmt(rng)]
        if rng.random() < 0.5:
            argv.append("--check")
        jobs.append(Job("tables", tuple(argv)))
    jobs.append(Job("verify", ("verify", "recursions", "--max-n", "8", "--format", _fmt(rng))))
    for order in _antithetic(rng, 10, 1):
        jobs.append(
            Job("verify", ("verify", "series", "--order", str(order),
                           "--max-k", str(rng.randint(5, 7)), "--format", _fmt(rng)))
        )
    # The algebra of each Wick depth is fixed, because the algebras' costs
    # differ several-fold and drawing them would make the round's work
    # depend on the seed.  The matrix algebra at depth 5 is left out: it
    # alone would take a third of the round.  The letter seeds are drawn.
    for depth, algebra in (("5", "function"), ("4", "all")):
        jobs.append(
            Job("verify", ("verify", "wick", "--depth", depth, "--algebra", algebra,
                           "--seed", str(rng.randint(0, 999)), "--format", _fmt(rng)))
        )
    return jobs


def _diagrams(rng: random.Random) -> list[Job]:
    jobs = []
    # One cell per (kind, n), with the two k of a kind drawn as an antithetic
    # pair; per kind one cell streams as text and one materialises as JSON.
    for kind, sizes in (("ncc", (7, 8)), ("ncl", (8, 9))):
        formats = ["text", "json"]
        rng.shuffle(formats)
        for n, fmt, k in zip(sizes, formats, _antithetic(rng, 2, 1)):
            jobs.append(Job("enumerate", ("enumerate", kind, "--n", str(n), "--k", str(k),
                                          "--format", fmt)))
    formats = ["text", "json"]
    rng.shuffle(formats)
    for menu, fmt in zip((((2, 6), (3, 5), (4, 4)), ((3, 6), (4, 5))), formats):
        m, n = rng.choice(menu)
        if rng.random() < 0.5:
            m, n = n, m
        jobs.append(Job("enumerate", ("enumerate", "snc", "--m", str(m), "--n", str(n),
                                      "--format", fmt)))
    jobs.append(Job("verify", ("verify", "cut-reassemble", "--max-total", "7",
                               "--format", _fmt(rng))))
    jobs.append(Job("verify", ("verify", "bijections", "--max-n", "6", "--format", _fmt(rng))))
    jobs.append(Job("verify", ("verify", "lineardecomp", "--max-n", "8", "--format", _fmt(rng))))
    return jobs


# The fixed argv of each mc template and the (centre, spread) of its N.  N
# is drawn in antithetic pairs around the centre, in steps of 2 so that
# c = 1/2 keeps M integral.
MC_SQUARE = ("diagonalize", "--p", "2", "--max-degree", "3", "--c", "1", "--samples", "1000")
MC_RECT = ("diagonalize", "--p", "2", "--max-degree", "3", "--c", "1/2", "--samples", "1000")
MC_RAW = ("raw-cov", "--p", "1", "--samples", "1000")
MC_SQUARE_N = (60, 4)
MC_RECT_N = (84, 4)
MC_RAW_N = (60, 4)
MC_RAW_PAIRS = tuple((m, n) for n in range(1, 5) for m in range(1, n + 1))


def mc_space():
    """Every (fixed argv, N) an mc job can carry, before the sampler seed is
    drawn from MC_SEEDS: the montecarlo generator's and the coverage job's."""
    out = [(MC_SQUARE, COVERAGE_MC_N)]
    for fixed, (centre, spread) in ((MC_SQUARE, MC_SQUARE_N), (MC_RECT, MC_RECT_N)):
        for n in range(centre - spread, centre + spread + 1, 2):
            out.append((fixed, n))
    centre, spread = MC_RAW_N
    for m, k in MC_RAW_PAIRS:
        for n in range(centre - spread, centre + spread + 1, 2):
            out.append((MC_RAW + ("--m", str(m), "--n", str(k)), n))
    return out


def _mc_job(rng: random.Random, fixed: tuple[str, ...], n: int) -> Job:
    argv = ("mc",) + fixed + ("--N", str(n), "--seed", str(rng.choice(MC_SEEDS)),
                              "--format", "json")
    return Job("mc", argv)


def _montecarlo(rng: random.Random) -> list[Job]:
    jobs = []
    for fixed, (centre, spread) in ((MC_SQUARE, MC_SQUARE_N), (MC_RECT, MC_RECT_N)):
        for n in _antithetic(rng, centre, spread, 2):
            jobs.append(_mc_job(rng, fixed, n))
    # One raw-cov job per top power 2..4 keeps the power-matmul count fixed.
    raw_n = list(_antithetic(rng, *MC_RAW_N, 2)) + [MC_RAW_N[0]]
    rng.shuffle(raw_n)
    for top, n in zip((2, 3, 4), raw_n):
        m = rng.randint(1, top)
        jobs.append(_mc_job(rng, MC_RAW + ("--m", str(m), "--n", str(top)), n))
    return jobs


# N of the coverage set's mc job, small enough to take a fraction of a
# second; the job uses the MC_SQUARE template, so it shares its goldens.
COVERAGE_MC_N = 16


def coverage() -> list[Job]:
    """Small fixed jobs that together reach every traced layer and run
    every command.  The traced run (--trace 1) adds them to the round of
    every workload, so every per-layer metric is measured on every
    workload; where a workload's own jobs do not reach a layer, that
    layer's numbers come from these jobs alone.  Wick below depth 4 is
    left out because the program rejects it (a word exceeds the depth cap)."""
    return [
        Job("tables", ("tables", "gamma-inverse", "--rows", "6", "--check", "--format", "json")),
        Job("verify", ("verify", "series", "--order", "4", "--max-k", "3", "--format", "json")),
        Job("verify", ("verify", "wick", "--depth", "4", "--algebra", "scalar",
                       "--format", "json")),
        Job("verify", ("verify", "cut-reassemble", "--max-total", "4", "--format", "json")),
        Job("verify", ("verify", "bijections", "--max-n", "3", "--format", "json")),
        Job("verify", ("verify", "lineardecomp", "--max-n", "4", "--format", "json")),
        Job("enumerate", ("enumerate", "snc", "--m", "2", "--n", "3", "--format", "text")),
        Job("mc", ("mc",) + MC_SQUARE + ("--N", str(COVERAGE_MC_N), "--seed", str(MC_SEEDS[0]),
                                         "--format", "json")),
    ]


def probes(workload: str) -> list[Job]:
    """Known-defect probes: they count toward pass_share only and are
    excluded from every timing and rate."""
    if workload != "montecarlo":
        return []
    return [
        # m + n = 13 exceeds the annular enumeration cap; the correct
        # result is a verdict (exit 0 or 1), not a usage error.
        Job("mc", ("mc", "raw-cov", "--m", "6", "--n", "7", "--N", "8", "--samples", "16",
                   "--seed", "1", "--format", "json"),
            probe=True, timeout_s=PROBE_TIMEOUT_S),
        # max-degree 7 enumerates annuli up to m + n = 14 for the
        # covariance limits; it must reach a verdict within the timeout.
        Job("mc", ("mc", "diagonalize", "--max-degree", "7", "--N", "4", "--samples", "4",
                   "--seed", "1", "--format", "json"),
            probe=True, timeout_s=PROBE_TIMEOUT_S),
    ]


_MIXES = {"algebra": _algebra, "diagrams": _diagrams, "montecarlo": _montecarlo}


def generate(workload: str, seed: int) -> list[Job]:
    """The round of timed jobs for a workload, in run order."""
    if workload not in _MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _MIXES[workload](rng)
    rng.shuffle(jobs)
    return jobs
