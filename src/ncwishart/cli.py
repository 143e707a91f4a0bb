"""Command-line entry point: coefficient tables, diagram enumeration,
verification suites, and Monte Carlo experiments.

Every subcommand echoes its parsed configuration into the report it
emits, renders to text, JSON, or CSV, and uses the exit-code contract
0 = pass, 1 = a check failed, 2 = usage error.  Reports are deterministic
given the full flag set (including --seed); the one exception is the
wall-clock `elapsed_s` field of Monte Carlo reports.

Each variant of `enumerate`, `verify` and `mc` (a diagram kind, a suite,
an experiment) is a sub-parser that declares only the flags it reads.  A
new verify suite is one `VERIFY_SUITES` entry, its record builder and its
flags, plus its name in the `suite` enum of verify.schema.json; the
builder starts by loading the modules it computes with, `_load(...)`.

Arguments are parsed and range-checked before any module that computes
is loaded: the parser reads only the caps of `ncwishart.limits`, and each
handler or record builder checks its sizes, then loads the modules it
runs and no other.  So `--help` and a usage error load none of them,
`tables` and `verify series` leave the diagram modules out, and only `mc`
and `verify wick` import numpy.  Only `perms` is imported with this
module.  The sampler's sizes, its memory caps included, are checked by
`limits.check_sampler_sizes` before `rmt` is loaded.
"""

from __future__ import annotations

import argparse
import importlib
import io
import math
import os
import re
import sys
import time
from collections import Counter
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Iterator, NamedTuple

from .limits import (
    ANNULAR_CAP,
    DISC_CAP,
    MAX_BATCH_ENTRIES,
    MAX_DEGREE,
    MAX_MATRICES,
    MAX_STORED_TRACES,
    check_sampler_sizes,
)
# `perms` is imported with this module, not on demand like the others: the
# benchmark's tracer test deletes `enum_snc` here right after the import
# and expects the tracer to find it missing
from .perms import Perm, enum_nc, enum_snc, iter_snc_images

# The names this module reads from each module that computes, bound by
# _load when a command first needs them: by the handler or record builder,
# after its range checks.  So the parser, --help and a usage error load
# none of these modules, and each command loads only those it runs.
_LAZY = {
    "polyc": ("PolyC", "PolyXC", "SeriesZ"),
    "families": (
        "Family",
        "TransitionMatrix",
        "chebyshev_C",
        "chebyshev_S",
        "gamma",
        "gamma_tilde",
        "integrate_against_reference",
        "inverse_table",
        "moments",
        "pi_poly",
        "predict_covariance",
        "series_G",
        "series_G0",
        "series_P",
        "series_P0",
        "transition_matrix",
    ),
    "halfperm": (
        "WeightRule",
        "cut",
        "enum_ncc",
        "enum_ncl",
        "linear_case",
        "linear_remove",
        "lineardecomp_check",
        "pair_up_odd",
        "reassemble",
        "weighted_count",
    ),
    "dots": ("dot_decode", "dot_encode", "enum_dots"),
    "colored": ("enum_colored_ncc", "open_profile"),
    "rmt": (
        "EnsembleConfig",
        "evaluate_statistics",
        "pair_variance_check",
        "power_covariance_check",
        "sample_traces",
    ),
    "wick": ("function_algebra", "matrix_algebra", "scalar_algebra", "wick_report"),
}
# the modules that import numpy, and the variables the BLAS library reads
# for its thread count when numpy first loads
_FLOATING_POINT = ("rmt", "wick")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# stated by the help of the two commands that load numpy
_BLAS_RULE = ("BLAS runs on one thread (OPENBLAS_NUM_THREADS=1) unless one of "
              f"{', '.join(BLAS_THREAD_VARIABLES)} is set.")


def _load(*modules: str) -> None:
    """Bind this module's names from each of `modules`; a name already set
    here (a wrapper or a test double, say) is kept.

    Before numpy first loads, BLAS is set to one thread unless one of
    BLAS_THREAD_VARIABLES is set: the sampler's products and the Fock
    operators are too small for a second thread to help, and the
    sampler's draw worker runs on the other core."""
    for module in modules:
        if (module in _FLOATING_POINT and "numpy" not in sys.modules
                and not any(v in os.environ for v in BLAS_THREAD_VARIABLES)):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the inductive step of the wick suite concatenates two 2-letter words, so
# it needs tensor words of length 4 under the depth cap
MIN_REPORT_DEPTH = 4
# the truncated Fock basis grows by the algebra's dimension per level: the
# 2x2 matrix algebra takes about 0.28 s at depth 5, and 1.7 s and 78 MB
# peak RSS at depth 6 (all three algebras: 1.9 s), on a 2-core Xeon VM
MAX_REPORT_DEPTH = 6
# the exact suites' sizes grow their polynomial work as a power of the
# size: `verify recursions --max-n 25` takes about 0.7 s (30: 0.9 s) and
# `verify series --order 50` about 4-5 s (60: 10 s), and `--order 50
# --max-k 50`, the slowest series run in range, 5-6 s on a 2-core Xeon VM
MAX_RECURSIONS_N = 25
MAX_SERIES_ORDER = 50
# the slowest table is `gamma-inverse`, which inverts its forward table in
# O(rows^3) polynomial operations: 60 rows take about 1.4 s and 80 from 4
# to 7 s on a 2-core Xeon VM
MAX_TABLE_ROWS = 80
# the records that enumerate half-permutations cell by cell (the census
# recursion of `verify recursions`, the linear maps and the odd pairing of
# `verify bijections`) stop at circles of this size, whatever --max-n: the
# linear maps and the odd pairing take about 0.09 s up to it, and 1.5 s
# up to n = 8, on a 2-core Xeon VM
MAX_ENUMERATED_N = 6


class UsageError(Exception):
    """A semantic command-line problem; reported on stderr with exit 2."""


# ---------------------------------------------------------------------------
# built-in golden fixtures
# ---------------------------------------------------------------------------

# First five rows of the three inverse coefficient tables.  These are data,
# not derived values: the exact-arithmetic tables are compared against them
# by `tables --check`, by the two decomposition fixtures of `verify
# bijections` and by the acceptance suite.
GOLDEN_ROWS = {
    "gamma-tilde-inverse": (
        ("1",),
        ("1 + c", "1"),
        ("1 + 4*c + c^2", "2 + 2*c", "1"),
        ("1 + 9*c + 9*c^2 + c^3", "3 + 9*c + 3*c^2", "3 + 3*c", "1"),
        (
            "1 + 16*c + 36*c^2 + 16*c^3 + c^4",
            "4 + 24*c + 24*c^2 + 4*c^3",
            "6 + 16*c + 6*c^2",
            "4 + 4*c",
            "1",
        ),
    ),
    "gamma-inverse": (
        ("1",),
        ("c", "1"),
        ("c + c^2", "2 + 2*c", "1"),
        ("c + 3*c^2 + c^3", "3 + 9*c + 3*c^2", "3 + 3*c", "1"),
        (
            "c + 6*c^2 + 6*c^3 + c^4",
            "4 + 24*c + 24*c^2 + 4*c^3",
            "6 + 16*c + 6*c^2",
            "4 + 4*c",
            "1",
        ),
    ),
    "pi-inverse": (
        ("1",),
        ("c", "1"),
        ("c + c^2", "1 + 2*c", "1"),
        ("c + 3*c^2 + c^3", "1 + 5*c + 3*c^2", "2 + 3*c", "1"),
        (
            "c + 6*c^2 + 6*c^3 + c^4",
            "1 + 9*c + 14*c^2 + 4*c^3",
            "3 + 11*c + 6*c^2",
            "3 + 4*c",
            "1",
        ),
    ),
}

# The pictured decomposition of the square monomial into the centered
# arc-sine family: its coefficients are row 2 of GOLDEN_ROWS["gamma-inverse"],
# and this is the weight multiset of the pictured circular diagrams per
# open-block count.
SQUARE_DECOMPOSITION_FIXTURE = {
    "weight_multisets": {1: ("1", "1", "c", "c"), 2: ("1",)},
}

# The pictured two-letter product decomposition: x^2 expands with the
# second-kind row-2 coefficients, y with the row-1 coefficients (rows 2 and
# 1 of GOLDEN_ROWS["pi-inverse"]), and the four pictured colored circular
# diagrams carry both letters' open blocks.
PRODUCT_DECOMPOSITION_FIXTURE = {
    "cell_weight_multisets": {(1, 1): ("1", "c", "c"), (2, 1): ("1",)},
    "pictured_diagrams": 4,
}

# each `tables` family: its `Family` member's name, and whether the table
# is the inverse
FAMILY_CHOICES = {
    "gamma-tilde": ("GAMMA_TILDE", False),
    "gamma": ("GAMMA", False),
    "pi": ("PI", False),
    "gamma-tilde-inverse": ("GAMMA_TILDE", True),
    "gamma-inverse": ("GAMMA", True),
    "pi-inverse": ("PI", True),
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _record(identity: str, instance: str, ok: bool, detail: str | None = None,
            residual: float | None = None) -> dict:
    rec: dict = {"identity": identity, "instance": instance, "pass": bool(ok)}
    if detail is not None:
        rec["detail"] = detail
    if residual is not None:
        rec["residual"] = float(residual)
    return rec


def _config_dict(args: argparse.Namespace) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key != "handler"}


def _config_line(cfg: dict) -> str:
    return " ".join(
        f"{k}={'-' if v is None else v}" for k, v in cfg.items() if k != "subcommand"
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def schema_path(command: str) -> Path:
    """Filesystem path of the shipped JSON schema for a subcommand."""
    return Path(str(resources.files("ncwishart").joinpath("schemas", f"{command}.schema.json")))


def _output_target(path: str) -> Path:
    """The file an --output path names: a symlink's target, which the
    report replaces while the link stays."""
    return Path(os.path.realpath(path))


def _check_output(path: str | None) -> None:
    """Reject an --output target that cannot be written before any work; the
    report replaces it, so it must be a regular file if it exists."""
    if path is None or path == "-":
        return
    target = _output_target(path)
    if target.exists() and not target.is_file():
        raise UsageError(f"--output {path} is not a regular file")
    if not target.parent.is_dir():
        raise UsageError(f"--output {path}: no directory {target.parent}")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = _output_target(path)
    tmp = target.with_name(f".{target.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _render_json(report: dict) -> str:
    import json

    return json.dumps(report, indent=2) + "\n"


def _csv_preamble(buf: io.StringIO, report: dict) -> None:
    buf.write(f"# command: {report['command']}\n")
    buf.write(f"# config: {_config_line(report['config'])}\n")


def _render_csv(report: dict) -> str:
    import csv

    buf = io.StringIO()
    _csv_preamble(buf, report)
    writer = csv.writer(buf, lineterminator="\n")
    command = report["command"]
    if command == "tables":
        writer.writerow(["family", "n", "k", "entry"])
        for n, row in enumerate(report["rows"]):
            for k, entry in enumerate(row):
                writer.writerow([report["family"], n, k, entry])
    elif command == "enumerate":
        writer.writerow(["kind", "index", "diagram", "weight_exponent"])
        for idx, (diagram, exponent) in enumerate(
            zip(report["diagrams"], report["weight_exponents"]), start=1
        ):
            writer.writerow([report["kind"], idx, diagram, exponent])
    elif command == "verify":
        writer.writerow(["suite", "identity", "instance", "pass", "detail"])
        for rec in report["checks"]:
            detail = rec.get("detail", "")
            if "residual" in rec:
                detail = _fmt(rec["residual"])
            writer.writerow(
                [report["suite"], rec["identity"], rec["instance"], rec["pass"], detail]
            )
    elif command == "mc":
        writer.writerow(
            ["kind", "key_a", "key_b", "estimate", "se", "predicted", "tolerance", "pass"]
        )
        for rec in report["statistics"]:
            writer.writerow(
                ["mean", rec["key"], "", _fmt(rec["mean"]), _fmt(rec["se_mean"]),
                 _fmt(rec["predicted_mean"]), _fmt(rec["tolerance"]), rec["pass"]]
            )
        for rec in report["covariance"]:
            writer.writerow(
                [rec["kind"], rec["key_a"], rec["key_b"], _fmt(rec["estimate"]),
                 _fmt(rec["se"]), _fmt(rec["predicted"]), _fmt(rec["tolerance"]),
                 rec["pass"]]
            )
    else:  # pragma: no cover - commands are a closed set
        raise ValueError(f"no CSV rendering for {command}")
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}",
             f"config: {_config_line(report['config'])}"]
    command = report["command"]
    if command == "tables":
        for n, row in enumerate(report["rows"]):
            lines.append(f"n={n} | " + " | ".join(row))
        check = report["check"]
        if check is not None:
            verdict = "pass" if check["pass"] else "FAIL"
            lines.append(
                f"fixture check: {verdict} ({check['rows_compared']} rows compared)"
            )
            for bad in check["mismatches"]:
                lines.append(
                    f"  mismatch at ({bad['row']},{bad['col']}): "
                    f"computed {bad['computed']}, fixture {bad['fixture']}"
                )
    elif command == "enumerate":
        lines.extend(report["diagrams"])
        lines.append(f"count: {report['count']}")
        lines.append(f"weight: {report['weight']}")
    elif command == "verify":
        for rec in report["checks"]:
            mark = "ok" if rec["pass"] else "FAIL"
            tail = ""
            if "residual" in rec:
                tail = f" residual {_fmt(rec['residual'])}"
            elif "detail" in rec:
                tail = f" ({rec['detail']})"
            lines.append(f"[{mark}] {rec['identity']}: {rec['instance']}{tail}")
        lines.append(
            f"checked: {report['instances']} instances, {report['failures']} failures"
        )
    elif command == "mc":
        for rec in report["statistics"]:
            mark = "ok" if rec["pass"] else "FAIL"
            lines.append(
                f"[{mark}] mean {rec['key']}: estimate {_fmt(rec['mean'])}, "
                f"limit {_fmt(rec['predicted_mean'])}, se {_fmt(rec['se_mean'])}, "
                f"tolerance {_fmt(rec['tolerance'])}"
            )
        for rec in report["covariance"]:
            mark = "ok" if rec["pass"] else "FAIL"
            lines.append(
                f"[{mark}] {rec['kind']} {rec['key_a']}, {rec['key_b']}: "
                f"estimate {_fmt(rec['estimate'])}, limit {_fmt(rec['predicted'])}, "
                f"se {_fmt(rec['se'])}, tolerance {_fmt(rec['tolerance'])}"
            )
        lines.append(f"seed: {report['seed']}")
        lines.append(f"elapsed_s: {_fmt(report['elapsed_s'])}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> tuple[dict, int]:
    member, inverse = FAMILY_CHOICES[args.family]
    size = args.rows
    if size > MAX_TABLE_ROWS:
        raise UsageError(f"--rows {size} exceeds the table cap {MAX_TABLE_ROWS}")
    fixture = GOLDEN_ROWS.get(args.family)
    if args.check and fixture is None:
        raise UsageError(
            f"no built-in fixture for family '{args.family}'; "
            f"fixtures cover: {', '.join(sorted(GOLDEN_ROWS))}"
        )
    _load("polyc", "families")
    family = Family[member]
    table = inverse_table(family, size) if inverse else transition_matrix(family, size)
    rows = [[str(table.entry(n, k)) for k in range(n + 1)] for n in range(size)]
    check = None
    status = "pass"
    if args.check:
        depth = min(size, len(fixture))
        mismatches = []
        for n in range(depth):
            for k in range(n + 1):
                if PolyC.parse(rows[n][k]) != PolyC.parse(fixture[n][k]):
                    mismatches.append(
                        {"row": n, "col": k,
                         "computed": rows[n][k], "fixture": fixture[n][k]}
                    )
        check = {"rows_compared": depth, "mismatches": mismatches,
                 "pass": not mismatches}
        if mismatches:
            status = "fail"
    report = {
        "command": "tables",
        "config": _config_dict(args),
        "family": args.family,
        "rows": rows,
        "check": check,
        "status": status,
    }
    return report, 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _enumerate_stream(args: argparse.Namespace) -> tuple[dict, Iterator[tuple[str, int]]]:
    """Validate the requested cell and return (params, stream of
    (diagram text, weight exponent)) in canonical order."""
    if args.kind in ("ncc", "ncl"):
        n, k = args.n, args.k
        if n < 1 or not 0 <= k <= n:
            raise UsageError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
        if n > DISC_CAP:
            raise UsageError(f"n={n} exceeds the enumeration cap {DISC_CAP}")
        _load("halfperm")
        enum = enum_ncc if args.kind == "ncc" else enum_ncl
        diagrams = enum(n, k)

        def gen() -> Iterator[tuple[str, int]]:
            for d in diagrams:
                yield str(d), d.closed_weight_exponent()

        return {"n": n, "k": k}, gen()

    m, n = args.m, args.n
    if m < 1 or n < 1:
        raise UsageError(f"both circle sizes must be >= 1, got m={m}, n={n}")
    if m + n > ANNULAR_CAP:
        raise UsageError(f"m+n={m + n} exceeds the enumeration cap {ANNULAR_CAP}")

    def gen() -> Iterator[tuple[str, int]]:
        for img in iter_snc_images(m, n):
            p = Perm(img)
            yield str(p), p.num_cycles()

    return {"m": m, "n": n}, gen()


def cmd_enumerate(args: argparse.Namespace) -> tuple[dict | None, int]:
    params, stream = _enumerate_stream(args)
    _load("polyc")
    streaming = args.format == "text" and args.output in (None, "-")
    config = _config_dict(args)
    if streaming:
        print(f"command: enumerate\nconfig: {_config_line(config)}")
    diagrams: list[str] = []
    exponents: list[int] = []
    # a stream holds only the count of each exponent, not one entry per diagram
    weight_counter: Counter[int] = Counter()
    for text, exponent in stream:
        weight_counter[exponent] += 1
        if streaming:
            print(text)
        else:
            diagrams.append(text)
            exponents.append(exponent)
    count = weight_counter.total()
    weight = PolyC.census(weight_counter.elements())
    if streaming:
        print(f"count: {count}\nweight: {weight}\nstatus: pass")
        return None, 0
    report = {
        "command": "enumerate",
        "config": config,
        "kind": args.kind,
        "params": params,
        "diagrams": diagrams,
        "weight_exponents": exponents,
        "count": count,
        "weight": str(weight),
        "status": "pass",
    }
    return report, 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_square_decomposition_fixture() -> list[dict]:
    """Hold the embedded square-decomposition fixture against the inverse
    table and the circular enumeration."""
    _load("polyc", "families", "halfperm")
    records = []
    inv = inverse_table(Family.GAMMA, 3)
    computed = tuple(str(inv.entry(2, k)) for k in range(3))
    records.append(
        _record(
            "square decomposition fixture: coefficients",
            "row 2 of the centered inverse table",
            computed == GOLDEN_ROWS["gamma-inverse"][2],
            detail=" | ".join(computed),
        )
    )
    for k, want in sorted(SQUARE_DECOMPOSITION_FIXTURE["weight_multisets"].items()):
        got = sorted(
            str(PolyC.monomial(d.closed_weight_exponent())) for d in enum_ncc(2, k)
        )
        records.append(
            _record(
                "square decomposition fixture: pictured diagram weights",
                f"k={k}",
                got == sorted(want),
                detail="{" + ", ".join(got) + "}",
            )
        )
    records.append(
        _record(
            "square decomposition fixture: constant column",
            "second moment",
            inv.entry(2, 0) == moments(3)[2],
        )
    )
    return records


def check_product_decomposition_fixture() -> list[dict]:
    """Hold the embedded two-letter product fixture against the colored
    circular enumeration and the second-kind inverse table."""
    _load("polyc", "families", "halfperm", "colored")
    records = []
    fixture = PRODUCT_DECOMPOSITION_FIXTURE
    inv = inverse_table(Family.PI, 3)
    left = tuple(str(inv.entry(2, k)) for k in range(3))
    right = tuple(str(inv.entry(1, k)) for k in range(2))
    records.append(
        _record(
            "product decomposition fixture: coefficient vectors",
            "second-kind inverse rows 2 and 1",
            left == GOLDEN_ROWS["pi-inverse"][2] and right == GOLDEN_ROWS["pi-inverse"][1],
            detail=f"({' | '.join(left)}) x ({' | '.join(right)})",
        )
    )
    cells: dict[tuple[int, int], list] = {}
    for h in enum_colored_ncc((2, 1), (1, 2)):
        profile = open_profile(h, (2, 1))
        if all(x >= 1 for x in profile):
            cells.setdefault(profile, []).append(h)
    pictured = sum(len(v) for v in cells.values())
    records.append(
        _record(
            "product decomposition fixture: pictured diagram count",
            "both letters carry an open block",
            pictured == fixture["pictured_diagrams"]
            and set(cells) == set(fixture["cell_weight_multisets"]),
            detail=f"{pictured} diagrams",
        )
    )
    for profile, want in sorted(fixture["cell_weight_multisets"].items()):
        members = cells.get(profile, [])
        got = sorted(
            str(PolyC.monomial(h.closed_weight_exponent())) for h in members
        )
        table_product = inv.entry(2, profile[0]) * inv.entry(1, profile[1])
        records.append(
            _record(
                "product decomposition fixture: cell weights",
                f"opens {profile}",
                got == sorted(want)
                and weighted_count(members, WeightRule.CLOSED_BLOCKS) == table_product,
                detail="{" + ", ".join(got) + "}",
            )
        )
    return records


def _entry(table: TransitionMatrix, n: int, k: int) -> PolyC:
    """Entry (n, k) of a lower-triangular table, zero off the triangle."""
    return table.entry(n, k) if 0 <= k <= n else PolyC.zero()


def _three_term(f, n: int, a, b_n) -> tuple[PolyXC, PolyXC]:
    """Both sides of x*f_n = f_{n+1} + a*f_n + b_n*f_{n-1} (f_{-1} = 0)."""
    rhs = f(n + 1) + a * f(n)
    return PolyXC.x() * f(n), rhs + b_n * f(n - 1) if n else rhs


def _band(entry, n: int, k: int, a0: PolyC, b1: PolyC) -> bool:
    """Whether entry (n+1, k) follows from row n: by the band (1, 1+c, c)
    off column 0, and as a0*E[n,0] + b1*E[n,1] in it."""
    if k == 0:
        return entry(n + 1, 0) == a0 * entry(n, 0) + b1 * entry(n, 1)
    return entry(n + 1, k) == (entry(n, k - 1) + PolyC.of(1, 1) * entry(n, k)
                               + PolyC.c() * entry(n, k + 1))


def _recursion_records(max_n: int) -> list[dict]:
    _load("polyc", "families", "halfperm")
    # Each family's constants are written here, not read from
    # families.RECURRENCES, which builds the tables under test.
    c, one_plus_c = PolyC.c(), PolyC.of(1, 1)
    records = []
    for n in range(max_n):
        lhs, rhs = _three_term(gamma_tilde, n, one_plus_c, 2 * c if n == 1 else c)
        for k in range(n + 2):
            records.append(_record("arc-sine forward row recurrence", f"n={n},k={k}",
                                   lhs.coeff(k) == rhs.coeff(k)))
    # (identity, member, first n, a, b_1, b)
    for identity, f, first, a, b1, b in (
        ("second-kind three-term recurrence", pi_poly, 2, one_plus_c, c, c),
        ("first-kind Chebyshev recurrence", chebyshev_C, 0, 0, 2, 1),
        ("second-kind Chebyshev recurrence", chebyshev_S, 0, 0, 1, 1),
    ):
        for n in range(first, max_n):
            lhs, rhs = _three_term(f, n, a, b1 if n == 1 else b)
            records.append(_record(identity, f"n={n}", lhs == rhs))

    size = max_n + 1
    for fam in Family:
        forward, inverse = transition_matrix(fam, size), inverse_table(fam, size)
        instance = f"{fam.value},size={size}"
        ok = forward @ inverse == TransitionMatrix.identity(size)
        records.append(_record("M @ M^-1 = I", instance, ok))
        records.append(_record("double inversion", instance, inverse.invert() == forward))

    arcsine_entry = partial(_entry, inverse_table(Family.GAMMA_TILDE, size))
    # (name, inverse entries, a_0, b_1)
    inverses = (
        ("arc-sine", arcsine_entry, one_plus_c, 2 * c),
        ("second-kind", partial(_entry, inverse_table(Family.PI, size)), c, c),
    )
    for n in range(max_n):
        for name, entry, a0, b1 in inverses:
            for k in range(1, n + 2):
                records.append(_record(f"{name} inverse band recursion", f"n={n + 1},k={k}",
                                       _band(entry, n, k, a0, b1)))
            records.append(_record(f"{name} inverse column-0 recursion", f"n={n + 1}",
                                   _band(entry, n, 0, a0, b1)))

    for name, member, first in (("uncentered", gamma_tilde, 2), ("centered", gamma, 3)):
        for n in range(first, max_n + 1):
            ok = member(n) + member(n - 1) == pi_poly(n) - c * pi_poly(n - 2)
            records.append(_record(f"first/second-kind bridge ({name})", f"n={n}", ok))

    for n in range(1, max_n + 1):
        for fam, member in ((Family.GAMMA, gamma), (Family.PI, pi_poly)):
            ok = integrate_against_reference(member(n)).is_zero()
            records.append(
                _record("centered against the reference moments", f"{fam.value},n={n}", ok)
            )
    for n in range(max_n + 1):
        q = pi_poly(n)
        ok = integrate_against_reference(q * q) == PolyC.monomial(n)
        records.append(_record("second-kind squared norm", f"n={n}", ok))

    # enumeration cross-check of the arc-sine band recursion on small
    # circles; each cell's weight is enumerated once and serves up to four
    # checks, and is then held to the inverse table itself, which a weight
    # off by a factor in every cell would not keep
    weights: dict[tuple[int, int], PolyC] = {}

    def cell(nn: int, kk: int) -> PolyC:
        if kk < 0 or kk > nn:
            return PolyC.zero()
        if (nn, kk) not in weights:
            weights[nn, kk] = weighted_count(enum_ncc(nn, kk), WeightRule.CLOSED_BLOCKS)
        return weights[nn, kk]

    for n in range(1, min(max_n, MAX_ENUMERATED_N)):
        for k in range(n + 2):
            records.append(_record("circular census recursion (enumerated)", f"n={n + 1},k={k}",
                                   _band(cell, n, k, one_plus_c, 2 * c)))
    for (n, k), weight in sorted(weights.items()):
        records.append(_record("circular census equals the arc-sine inverse table",
                               f"n={n},k={k}", weight == arcsine_entry(n, k)))
    return records


# each case of `linear_case`: the change of k and of the closed-block
# exponent from a linear half to its image under `linear_remove`
LINEAR_CASES = {1: (-1, 0), 2: (0, 0), 3: (0, -1), 4: (1, -1)}


def _linear_map_records(max_n: int) -> list[dict]:
    """The one-point recursion of the linear halves and the odd pairing,
    each an injective map with an exact image: so a bijection."""
    _load("polyc", "families", "halfperm")
    pi_entry = inverse_table(Family.PI, max_n + 1).entry
    records = []
    below = {0: enum_ncl(0, 0)}
    for n in range(1, max_n + 1):
        cells = {k: enum_ncl(n, k) for k in range(n + 1)}
        for k, cell in cells.items():
            records.append(_record("linear census equals the second-kind inverse table",
                                   f"n={n},k={k}",
                                   weighted_count(cell, WeightRule.CLOSED_BLOCKS)
                                   == pi_entry(n, k)))
            by_case: dict[int, list] = {}
            for h in cell:
                by_case.setdefault(linear_case(h), []).append(h)
            for case, (dk, dj) in LINEAR_CASES.items():
                members = by_case.get(case, [])
                # case 2 grows an open block, so a cell without one is no target
                target = below.get(k + dk, ()) if k or case != 2 else ()
                if not members and not target:
                    continue
                # the image is the target cell, so it has the case's k
                images = [linear_remove(h) for h in members]
                ok = (len(set(images)) == len(images) and set(images) == set(target)
                      and all(g.closed_weight_exponent() == h.closed_weight_exponent() + dj
                              for h, g in zip(members, images)))
                records.append(_record("linear removal is a bijection onto its target cell",
                                       f"n={n},k={k},case={case}", ok,
                                       detail=f"{len(members)} halves"))
        odd = [h for k in range(1, n + 1, 2) for h in cells[k]]
        pairs = [pair_up_odd(h) for h in odd]
        ok = (len(set(pairs)) == len(pairs)
              and set(pairs) == {(p, b) for p in enum_nc(n) for b in p.cycles()}
              and all(p.num_cycles() - 1 == h.closed_weight_exponent() + (h.k - 1) // 2
                      for h, (p, _) in zip(odd, pairs)))
        records.append(_record("odd pairing is a bijection onto marked partitions",
                               f"n={n}", ok, detail=f"{len(pairs)} halves"))
        below = cells
    return records


def _bijection_records(max_n: int) -> list[dict]:
    _load("halfperm", "dots")
    records = []
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            # j counts the closed blocks, a designated block not counted
            by_j: dict[int, list] = {}
            for h in enum_ncc(n, k):
                by_j.setdefault(h.closed_weight_exponent(), []).append(h)
            for j in range(n - k + 1):
                want = math.comb(n, j) * math.comb(n, j + k)
                got = len(by_j.get(j, ()))
                records.append(
                    _record(
                        "closed-block census C(n,j)C(n,j+k)",
                        f"n={n},k={k},j={j}",
                        got == want,
                        detail=f"{got} diagrams",
                    )
                )
            stray = sorted(set(by_j) - set(range(n - k + 1)))
            if stray:
                records.append(
                    _record(
                        "closed-block census C(n,j)C(n,j+k)",
                        f"n={n},k={k}",
                        False,
                        detail=f"unexpected closed-block counts {stray}",
                    )
                )
            for j in range(n - k + 1):
                members = by_j.get(j, [])
                # decode(encode(h)) = h for every half makes encode
                # injective, so its images, as many as the halves and the
                # structures and as a set equal to the structures, are the
                # structures each once: encode is a bijection onto them with
                # inverse decode, and encode(decode(d)) = d for every d
                structures = enum_dots(n, j, k)
                encoded = [dot_encode(h) for h in members]
                ok = (
                    len(structures) == len(members)
                    and set(encoded) == set(structures)
                    and all(dot_decode(d) == h for d, h in zip(encoded, members))
                )
                records.append(
                    _record("dot-structure round trip", f"n={n},k={k},j={j}", ok)
                )
    records.extend(_linear_map_records(min(max_n, MAX_ENUMERATED_N)))
    records.extend(check_square_decomposition_fixture())
    records.extend(check_product_decomposition_fixture())
    return records


def _cut_reassemble_records(max_total: int) -> list[dict]:
    _load("families", "halfperm")
    records = []
    for total in range(2, max_total + 1):
        for m in range((total + 1) // 2, total):
            n = total - m
            elems = enum_snc(m, n)
            fibers: dict[tuple, list] = {}
            for a in elems:
                fibers.setdefault(cut(a), []).append(a.perm.image)
            # glue each fiber's k halves once; every member must come back
            # exactly once, and the gluings together must be the census
            unique_ok = size_ok = True
            rebuilt: Counter = Counter()
            for (h1, h2), members in fibers.items():
                glued = Counter(
                    reassemble(h1, h2, s).perm.image for s in range(1, h1.k + 1)
                )
                unique_ok = unique_ok and all(glued[img] == 1 for img in members)
                size_ok = size_ok and len(members) == h1.k
                rebuilt.update(glued)
            census_ok = rebuilt == Counter(a.perm.image for a in elems)
            weight = weighted_count(elems, WeightRule.ALL_BLOCKS)
            records.append(
                _record(
                    "cut determines a unique reassembly index",
                    f"m={m},n={n}",
                    unique_ok,
                    detail=f"{len(elems)} diagrams",
                )
            )
            records.append(
                _record(
                    "fibers of size k rebuild the census exactly once",
                    f"m={m},n={n}",
                    size_ok and census_ok,
                )
            )
            records.append(
                _record(
                    "annular census equals the diagonalized covariance",
                    f"m={m},n={n}",
                    weight == predict_covariance(m, n),
                    detail=str(weight),
                )
            )
            # free this annulus before the next one is enumerated
            del elems, fibers, rebuilt
    return records


def _lineardecomp_records(max_n: int) -> list[dict]:
    _load("halfperm")
    records = []
    for n in range(1, max_n + 1):
        lhs, rhs = lineardecomp_check(n)
        records.append(
            _record("block-weighted linear decomposition", f"n={n}", lhs == rhs,
                    detail=str(lhs))
        )
    return records


def _series_records(order: int, max_k: int) -> list[dict]:
    _load("polyc", "families")
    c, one_plus_c = PolyC.c(), PolyC.of(1, 1)
    records = []
    p0 = series_P0(order)
    q = p0 - 1
    ok = q == (q * q + one_plus_c * q + c).times_z()
    records.append(_record("moment series functional equation", f"order={order}", ok))

    one_minus = SeriesZ.one(order) - one_plus_c * SeriesZ.z(order)
    for k in range(1, max_k + 1):
        lhs = (c * series_P(k + 1, order)).times_z()
        rhs = one_minus * series_P(k, order) - series_P(k - 1, order).times_z()
        records.append(_record("second-kind column ladder", f"k={k}", lhs == rhs))

    power = SeriesZ.one(order)
    for k in range(1, max_k + 1):
        power = power * q
        ok = PolyC.monomial(k) * series_P(k, order) == power * p0
        records.append(
            _record("second-kind column product form (cleared by c^k)", f"k={k}", ok)
        )

    columns = (("second-kind", series_P, inverse_table(Family.PI, order + 1)),
               ("arc-sine", series_G, inverse_table(Family.GAMMA_TILDE, order + 1)))
    for k in range(max_k + 1):
        for name, series, table in columns:
            column = series(k, order)
            ok = all(column.coeff(m) == _entry(table, m, k) for m in range(order + 1))
            records.append(
                _record(f"{name} series column matches the inverse table", f"k={k}", ok)
            )

    base = series_G0(order)
    ok = all(
        base.coeff(m)
        == sum(
            (PolyC.const(math.comb(m, j) ** 2) * PolyC.monomial(j) for j in range(m + 1)),
            PolyC.zero(),
        )
        for m in range(order + 1)
    )
    records.append(
        _record("arc-sine base column closed form", f"order={order}", ok)
    )
    return records


def _wick_records(depth: int, seed: int, algebra: str) -> list[dict]:
    _load("wick")
    makers = {"scalar": scalar_algebra, "matrix": matrix_algebra, "function": function_algebra}
    # None: wick_report builds all three
    algebras = None if algebra == "all" else [makers[algebra]()]
    checks = wick_report(depth=depth, seed=seed, algebras=algebras)
    return [
        _record(chk.theorem, chk.instance, chk.passed, residual=chk.max_residual)
        for chk in checks
    ]


class SuiteFlag(NamedTuple):
    """A verify suite's flag, named as its record builder's keyword: its
    default, and its least value and cap (None: no cap) or its choices."""

    default: int | str
    help: str
    minimum: int | None = None
    cap: int | None = None
    choices: tuple[str, ...] | None = None


# Each suite's record builder and flags.  The `verify` parser, its range
# checks and its dispatch are all read from this table.
VERIFY_SUITES = {
    "recursions": (_recursion_records,
                   {"max_n": SuiteFlag(10, "largest n of the recurrences", 1, MAX_RECURSIONS_N)}),
    "bijections": (_bijection_records,
                   {"max_n": SuiteFlag(8, "largest circle size", 1, DISC_CAP)}),
    "cut-reassemble": (_cut_reassemble_records,
                       {"max_total": SuiteFlag(8, "largest m+n of an annulus", 2, ANNULAR_CAP)}),
    "lineardecomp": (_lineardecomp_records,
                     {"max_n": SuiteFlag(10, "largest point count n", 1, DISC_CAP)}),
    "series": (_series_records, {
        "order": SuiteFlag(12, "truncation order", 1, MAX_SERIES_ORDER),
        "max_k": SuiteFlag(8, "largest column", 1, MAX_SERIES_ORDER),
    }),
    "wick": (_wick_records, {
        "depth": SuiteFlag(4, "tensor-degree cap", MIN_REPORT_DEPTH, MAX_REPORT_DEPTH),
        "seed": SuiteFlag(0, "letter seed", 0),
        "algebra": SuiteFlag("all", "coefficient algebra(s) to drive",
                             choices=("scalar", "matrix", "function", "all")),
    }),
}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    suite = args.suite
    builder, flags = VERIFY_SUITES[suite]
    values = {name: getattr(args, name) for name in flags}
    # reject sizes the suite cannot run before any work is done
    for name, flag in flags.items():
        value = values[name]
        if flag.minimum is not None and value < flag.minimum:
            raise UsageError(f"{_option(name)} {value} is below the minimum "
                             f"{flag.minimum} of the {suite} suite")
        if flag.cap is not None and value > flag.cap:
            raise UsageError(f"{_option(name)} {value} exceeds the cap "
                             f"{flag.cap} of the {suite} suite")
    records = builder(**values)
    failures = sum(1 for rec in records if not rec["pass"])
    report = {
        "command": "verify",
        "config": _config_dict(args),
        "suite": suite,
        "checks": records,
        "instances": len(records),
        "failures": failures,
        "status": "pass" if failures == 0 else "fail",
    }
    return report, 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _parse_word(spec: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        degrees_part, letters_part = spec.split(":")
        degrees = tuple(int(x) for x in degrees_part.split(","))
        letters = tuple(int(x) for x in letters_part.split(","))
    except ValueError as exc:
        raise UsageError(
            f"cannot parse word spec {spec!r}; expected 'd1,d2,...:i1,i2,...'"
        ) from exc
    if len(degrees) != len(letters) or not degrees:
        raise UsageError("word spec needs matching nonempty degree and letter lists")
    if any(d < 1 for d in degrees) or any(i < 1 for i in letters):
        raise UsageError("degrees and letters must be >= 1")
    k = len(letters)
    if k < 2 or any(letters[i] == letters[(i + 1) % k] for i in range(k)):
        raise UsageError("letters must be cyclically alternating")
    return degrees, letters


def _resolve_ensemble(args: argparse.Namespace, degree_flag: str,
                      num_matrices: int,
                      mixed: tuple[int, int] | None = None) -> EnsembleConfig:
    """The sampling run the flags ask for, its largest degree read from
    the flag `degree_flag`; its sizes are checked before `rmt`, and with it
    numpy, is loaded."""
    from fractions import Fraction

    cols = args.N
    try:
        ratio = Fraction(args.c) if args.c is not None else None
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--c {args.c} is not an exact fraction such as 1, 1/2 or 0.5") from exc
    if ratio is not None and ratio <= 0:
        raise UsageError(f"--c {args.c} must be positive")
    if args.M is not None:
        rows = args.M
    elif ratio is not None:
        exact = ratio * cols
        if exact.denominator != 1:
            raise UsageError(
                f"--c {args.c} with --N {cols} gives a non-integer row count {exact}; "
                "pass --M explicitly"
            )
        rows = int(exact)
    else:
        rows = cols
    max_degree = getattr(args, degree_flag)
    try:
        check_sampler_sizes(num_matrices, args.samples, max_degree, rows, cols, mixed,
                            ("--p", "--samples", _option(degree_flag)))
        _load("rmt")
        return EnsembleConfig(
            rows=rows,
            cols=cols,
            num_matrices=num_matrices,
            num_samples=args.samples,
            max_degree=max_degree,
            seed=args.seed,
            ratio=ratio,
            mixed=mixed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _mc_record(chk) -> dict:
    """The report row of one `rmt.StatCheck`: a mean row or a (co)variance
    row."""
    if chk.kind == "mean":
        return {
            "key": chk.keys[0],
            "mean": chk.estimate,
            "se_mean": chk.se,
            "predicted_mean": chk.limit,
            "tolerance": chk.tolerance,
            "pass": chk.passed,
        }
    return {
        "kind": chk.kind,
        "key_a": chk.keys[0],
        "key_b": chk.keys[-1],
        "estimate": chk.estimate,
        "se": chk.se,
        "predicted": chk.limit,
        "tolerance": chk.tolerance,
        "pass": chk.passed,
    }


def cmd_mc(args: argparse.Namespace) -> tuple[dict, int]:
    if args.experiment == "diagonalize":
        word = _parse_word(args.mixed) if args.mixed is not None else None
        if word is not None and max(word[1]) > args.p:
            raise UsageError(
                f"word letters go up to {max(word[1])} but only {args.p} "
                "matrices are sampled; raise --p"
            )
        if word is not None and word[0] != (1, 1):
            raise UsageError(
                "only the length-two, degree-one alternating word is sampled; "
                f"got degrees {word[0]}"
            )
        pair = tuple(i - 1 for i in word[1]) if word is not None else None
        config = _resolve_ensemble(args, "max_degree", args.p, pair)
    else:
        if args.p != 1:
            raise UsageError(f"mc raw-cov samples X1 only; got --p {args.p}, expected 1")
        config = _resolve_ensemble(args, "m" if args.m >= args.n else "n", 1)
    # every module the sampler uses is loaded: the clock times the run only
    start = time.perf_counter()
    samples = sample_traces(config)
    if args.experiment == "diagonalize":
        checks = evaluate_statistics(samples)
        # the suite already holds the word 1,1:1,2, and a two-letter word
        # is the same trace as its rotation 1,1:2,1
        if pair is not None and set(pair) != {0, 1}:
            checks.append(pair_variance_check(samples, *pair))
    else:
        checks = [power_covariance_check(samples, args.m, args.n)]
    elapsed = time.perf_counter() - start
    failures = sum(1 for chk in checks if not chk.passed)
    report = {
        "command": "mc",
        "config": _config_dict(args),
        "experiment": args.experiment,
        "rows": config.rows,
        "cols": config.cols,
        "c": str(config.c),
        "c_prime": str(config.c_prime),
        "statistics": [_mc_record(chk) for chk in checks if chk.kind == "mean"],
        "covariance": [_mc_record(chk) for chk in checks if chk.kind != "mean"],
        "seed": config.seed,
        "elapsed_s": elapsed,
        "status": "pass" if failures == 0 else "fail",
    }
    return report, 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _suite_flag_help(flag: SuiteFlag) -> str:
    if flag.choices is not None:
        return f"{flag.help} (default {flag.default})"
    if flag.cap is None:
        return f"{flag.help} (default {flag.default}, at least {flag.minimum})"
    return f"{flag.help} (default {flag.default}, from {flag.minimum} to {flag.cap})"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="report rendering (default: text)",
    )
    common.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report atomically to PATH instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="ncwishart",
        description="Coefficient tables, diagram enumeration, verification "
                    "suites, and Monte Carlo experiments for Wishart trace "
                    "fluctuations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def variants(command: str, dest: str, handler, **kwargs) -> argparse._SubParsersAction:
        """A command whose variants are sub-parsers with their own flags."""
        p_command = sub.add_parser(command, **kwargs)
        p_command.set_defaults(handler=handler)
        return p_command.add_subparsers(dest=dest, required=True)

    p_tables = sub.add_parser(
        "tables", parents=[common],
        help="print a family coefficient table or its inverse",
    )
    p_tables.add_argument("family", choices=sorted(FAMILY_CHOICES))
    p_tables.add_argument("--rows", type=_positive_int, default=5,
                          help=f"rows to print (default 5, at most {MAX_TABLE_ROWS})")
    p_tables.add_argument(
        "--check", action="store_true",
        help="compare against the built-in golden fixture (first five rows)",
    )
    p_tables.set_defaults(handler=cmd_tables)

    kinds = variants(
        "enumerate", "kind", cmd_enumerate,
        help="stream a diagram cell in canonical order with its weighted count",
    )
    for kind, sizes in (("ncc", "nk"), ("ncl", "nk"), ("snc", "mn")):
        p_kind = kinds.add_parser(kind, parents=[common])
        for size in sizes:
            p_kind.add_argument(f"--{size}", type=_nonnegative_int, required=True)

    suites = variants(
        "verify", "suite", cmd_verify,
        help="run a property suite and list every identity instance checked",
    )
    for suite, (_, flags) in VERIFY_SUITES.items():
        # wick, the one suite in floating point, states how BLAS runs
        description = ("Apply the Fock model's operators in floating point.  " + _BLAS_RULE
                       if suite == "wick" else None)
        p_suite = suites.add_parser(suite, parents=[common], description=description)
        for name, flag in flags.items():
            p_suite.add_argument(
                _option(name), type=type(flag.default), choices=flag.choices,
                default=flag.default, help=_suite_flag_help(flag),
            )

    sampler = argparse.ArgumentParser(add_help=False, parents=[common])
    sampler.add_argument("--N", type=_positive_int, default=200,
                         help="matrix dimension (default 200); a batch of draws, p "
                              "M-by-N matrices per sample, holds at most "
                              f"{MAX_BATCH_ENTRIES} entries")
    sampler.add_argument("--M", type=_positive_int, default=None,
                         help="row count (default: c*N)")
    sampler.add_argument("--c", default=None,
                         help="ratio limit as an exact fraction, e.g. 1, 1/2, 0.5 "
                              "(default: 1 when --M is absent)")
    sampler.add_argument("--samples", type=_positive_int, default=20000,
                         help="samples (default 20000); the power and cross traces "
                              f"stored for them number at most {MAX_STORED_TRACES}")
    sampler.add_argument("--seed", type=_nonnegative_int, default=0)
    experiments = variants(
        "mc", "experiment", cmd_mc,
        help="sample Wishart ensembles and hold trace statistics against "
             "their exact limits",
        description="Sample Wishart ensembles and hold trace statistics against "
                    "their exact limits.  One worker thread makes the next "
                    "batch of draws while the current one is multiplied in "
                    "real arithmetic; the draws are those of a serial run.  "
                    + _BLAS_RULE,
    )
    p_diag = experiments.add_parser("diagonalize", parents=[sampler])
    p_diag.add_argument("--p", type=_positive_int, default=2,
                        help=f"independent matrices (default 2, at most {MAX_MATRICES}: "
                             "the report holds the covariance of every pair of the "
                             "p*max-degree traces)")
    p_diag.add_argument("--max-degree", type=_positive_int, default=3,
                        help=f"largest degree (default 3, at most {MAX_DEGREE})")
    p_diag.add_argument("--mixed", default=None, metavar="WORD",
                        help="the word '1,1:i,j' (degrees 1,1 on matrices i != j) "
                             "whose product variance is held against its exact "
                             "limit c^2")
    p_raw = experiments.add_parser("raw-cov", parents=[sampler])
    p_raw.add_argument("--m", type=_positive_int, required=True, help="first power")
    p_raw.add_argument("--n", type=_positive_int, required=True, help="second power")
    p_raw.add_argument("--p", type=_positive_int, default=1,
                       help="independent matrices: X1 only, so only 1")
    for p_experiment in (p_diag, p_raw):
        # argparse takes -1 or -0.5 for a value but -1/2 for an option; read
        # a negative fraction as a value too, so that --c can reject it
        p_experiment._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args.output)
        report, code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        try:
            _write_output(_render(report, args.format), args.output)
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
