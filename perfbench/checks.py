"""Output checks for benchmark jobs.

Every expected value is obtained without the code under test:

* `tables`: inverse tables from closed forms and the band recursion, and
  forward tables by requiring forward x inverse = identity over Z[c];
* `enumerate`: closed-form census counts and weight polynomials, plus a
  digest of the sorted diagram set recorded in goldens.json;
* `verify`: every record passes, the instance count is not below the one
  recorded in goldens.json, and census, annulus-count, linear-decomposition
  and residual details are recomputed here;
* `mc`: every statistic passes and lies within the band 3 se + 10/N
  (1 + |limit|), recomputed here whatever tolerance the report states;
  the predicted limits match goldens.json, and raw-cov limits match the
  closed form sum_k k c^k G[m,k] G[n,k].

Only what a report must contain is checked; additional fields or lines
are ignored, and so is the wall-clock `elapsed_s`.  Each check returns
None on success or a one-line reason for the failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
WICK_RESIDUAL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# integer polynomials in c, as ascending coefficient tuples
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def pmul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def pscale(a, s: int, shift: int = 0) -> tuple[int, ...]:
    return _trim([0] * shift + [s * x for x in a]) if a else ()


_TERM = re.compile(r"^(?:(\d+)\*)?c(?:\^(\d+))?$|^(\d+)$")


def parse_poly(text: str) -> tuple[int, ...]:
    """Parse the printed form `1 + 4*c - c^2` (integer coefficients only)."""
    s = text.replace(" ", "")
    _require(bool(s), "empty polynomial")
    if s == "0":
        return ()
    terms: dict[int, int] = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", s):
        m = _TERM.match(body)
        _require(m is not None, f"malformed polynomial {text!r}")
        if m.group(3) is not None:
            coef, k = int(m.group(3)), 0
        else:
            coef = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
        _require(k not in terms, f"repeated power in {text!r}")
        terms[k] = -coef if sign == "-" else coef
    out = [0] * (max(terms) + 1)
    for k, v in terms.items():
        out[k] = v
    return _trim(out)


def peval(a, c: Fraction) -> Fraction:
    return sum((Fraction(x) * c**k for k, x in enumerate(a)), Fraction(0))


# ---------------------------------------------------------------------------
# reference tables and censuses
# ---------------------------------------------------------------------------


def arcsine_inverse(n: int, k: int) -> tuple[int, ...]:
    """Census of circular half-permutations: sum_j C(n,j) C(n,j+k) c^j."""
    if k < 0 or k > n:
        return ()
    return _trim(math.comb(n, j) * math.comb(n, j + k) for j in range(n - k + 1))


def narayana_moment(n: int) -> tuple[int, ...]:
    """sum_b N(n,b) c^b, the n-th moment of the free Poisson law."""
    if n == 0:
        return (1,)
    return _trim([0] + [math.comb(n, b) * math.comb(n, b - 1) // n for b in range(1, n + 1)])


@lru_cache(maxsize=None)
def second_kind_inverse_rows(size: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rows 0..size-1 by the band (1, 1+c, c) with column 0 from (c, c)."""
    rows = [((1,),)]
    for n in range(size - 1):
        prev = rows[-1]

        def at(k):
            return prev[k] if 0 <= k < len(prev) else ()

        new = [padd(pscale(at(0), 1, 1), pscale(at(1), 1, 1))]
        for k in range(1, n + 2):
            new.append(padd(padd(at(k - 1), pmul((1, 1), at(k))), pscale(at(k + 1), 1, 1)))
        rows.append(tuple(new))
    return tuple(rows[:size])


def inverse_rows(family: str, size: int):
    """Reference rows of the inverse table named by the CLI family."""
    if family == "pi-inverse":
        return second_kind_inverse_rows(size)
    rows = []
    for n in range(size):
        row = [arcsine_inverse(n, k) for k in range(n + 1)]
        if family == "gamma-inverse":
            row[0] = narayana_moment(n)
        rows.append(tuple(row))
    return tuple(rows)


def snc_count(m: int, n: int) -> int:
    """Connected non-crossing permutations of the (m, n)-annulus."""
    return 2 * m * n * math.comb(2 * m - 1, m) * math.comb(2 * n - 1, n) // (m + n)


def snc_weight(m: int, n: int) -> tuple[int, ...]:
    total: tuple[int, ...] = ()
    for k in range(1, min(m, n) + 1):
        total = padd(total, pscale(pmul(arcsine_inverse(m, k), arcsine_inverse(n, k)), k, k))
    return total


def ncl_count(n: int, k: int) -> int:
    return (2 * k + 1) * math.comb(2 * n, n - k) // (n + k + 1)


def linear_decomposition(n: int) -> tuple[int, ...]:
    """sum_b b N(n,b) c^(b-1)."""
    moment = narayana_moment(n)
    return _trim(b * moment[b] for b in range(1, len(moment)))


# ---------------------------------------------------------------------------
# report parsing
# ---------------------------------------------------------------------------


# Report fields that hold wall-clock readings, which differ between any two
# runs of the same job.
WALL_CLOCK_FIELDS = ("elapsed_s", "timings")


def normalize(stdout: bytes) -> bytes:
    """The report with its wall-clock fields removed."""
    text = stdout.decode("utf-8", errors="replace")
    if text.lstrip().startswith("{"):
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return stdout
        for key in WALL_CLOCK_FIELDS:
            report.pop(key, None)
        return json.dumps(report, sort_keys=True).encode()
    lines = [ln for ln in text.splitlines()
             if not ln.startswith(tuple(f"{key}:" for key in WALL_CLOCK_FIELDS))]
    return "\n".join(lines).encode()


def _opt(argv, flag, default=None):
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return default


def _json(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    _require(isinstance(report, dict), "report is not a JSON object")
    return report


def _text_field(lines, prefix: str) -> str:
    hits = [ln[len(prefix):] for ln in lines if ln.startswith(prefix)]
    _require(len(hits) == 1, f"expected one '{prefix.strip()}' line, found {len(hits)}")
    return hits[0]


def _argv_key(argv, drop=("--format", "--seed")) -> str:
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
            continue
        if a in drop:
            skip = True
            continue
        out.append(a)
    return " ".join(out)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _check_tables(argv, text: str, goldens) -> int:
    family = argv[1]
    size = int(_opt(argv, "--rows"))
    fmt = _opt(argv, "--format", "text")
    if fmt == "json":
        report = _json(text)
        _require(report.get("status") == "pass", "status is not pass")
        rows = [[parse_poly(e) for e in row] for row in report["rows"]]
        check = report.get("check")
        if "--check" in argv:
            _require(isinstance(check, dict) and check.get("pass") is True
                     and check.get("mismatches") == []
                     and check.get("rows_compared") == min(size, 5),
                     "fixture check block is wrong")
        else:
            _require(check is None, "unexpected fixture check")
    else:
        lines = text.splitlines()
        _require(_text_field(lines, "status: ") == "pass", "status is not pass")
        rows = []
        for ln in lines:
            if ln.startswith("n="):
                head, *entries = ln.split(" | ")
                _require(head == f"n={len(rows)}", f"row label {head!r} out of order")
                rows.append([parse_poly(e) for e in entries])
        fixture = [ln for ln in lines if ln.startswith("fixture check: ")]
        if "--check" in argv:
            _require(fixture == [f"fixture check: pass ({min(size, 5)} rows compared)"],
                     "fixture check line is wrong")
        else:
            _require(not fixture, "unexpected fixture check")
    _require(len(rows) == size, f"{len(rows)} rows printed, {size} requested")
    _require(all(len(row) == n + 1 for n, row in enumerate(rows)), "ragged table")
    if family.endswith("-inverse"):
        want = inverse_rows(family, size)
        for n in range(size):
            _require(tuple(rows[n]) == want[n], f"row {n} differs from the reference")
    else:
        inv = inverse_rows(f"{family}-inverse", size)
        for n in range(size):
            for j in range(n + 1):
                acc: tuple[int, ...] = ()
                for k in range(j, n + 1):
                    acc = padd(acc, pmul(rows[n][k], inv[k][j]))
                _require(acc == ((1,) if j == n else ()),
                         f"row {n} is not inverse to the reference table at column {j}")
    return size * (size + 1) // 2


def _check_enumerate(argv, text: str, goldens) -> int:
    kind = argv[1]
    fmt = _opt(argv, "--format", "text")
    n = int(_opt(argv, "--n"))
    if kind == "snc":
        m = int(_opt(argv, "--m"))
        count, weight, key = snc_count(m, n), snc_weight(m, n), f"snc {m} {n}"
    else:
        k = int(_opt(argv, "--k"))
        key = f"{kind} {n} {k}"
        if kind == "ncc":
            count, weight = math.comb(2 * n, n - k), arcsine_inverse(n, k)
        else:
            count, weight = ncl_count(n, k), second_kind_inverse_rows(n + 1)[n][k]
    if fmt == "json":
        report = _json(text)
        _require(report.get("status") == "pass", "status is not pass")
        diagrams = report["diagrams"]
        exponents = report["weight_exponents"]
        _require(len(exponents) == len(diagrams), "one weight exponent per diagram")
        hist = [0] * (max(exponents, default=-1) + 1)
        for e in exponents:
            hist[e] += 1
        _require(_trim(hist) == weight, "weight exponents do not match the census")
        printed_count, printed_weight = report["count"], report["weight"]
    else:
        lines = text.splitlines()
        _require(len(lines) >= 5 and lines[0] == "command: enumerate"
                 and lines[1].startswith("config: "), "malformed header")
        end = next((i for i, ln in enumerate(lines) if ln.startswith("count: ")), None)
        _require(end is not None, "no count line")
        diagrams = lines[2:end]
        printed_count = int(lines[end][len("count: "):])
        printed_weight = _text_field(lines, "weight: ")
        _require(_text_field(lines, "status: ") == "pass", "status is not pass")
    _require(printed_count == count == len(diagrams),
             f"count {printed_count} with {len(diagrams)} diagrams; census is {count}")
    _require(parse_poly(printed_weight) == weight, "weight differs from the census")
    digest = hashlib.sha256("\n".join(sorted(diagrams)).encode()).hexdigest()
    _require(digest == goldens["enumerate"][key], "diagram set differs from the recorded one")
    return count


# Records whose details are recomputed: (line prefix, full-line pattern).
_CENSUS = ("[ok] closed-block census C(n,j)C(n,j+k): ", re.compile(
    r"^\[ok\] closed-block census C\(n,j\)C\(n,j\+k\): n=(\d+),k=(\d+),j=(\d+) \((\d+) diagrams\)$"
))
_ANNULUS = ("[ok] cut determines a unique reassembly index: ", re.compile(
    r"^\[ok\] cut determines a unique reassembly index: m=(\d+),n=(\d+) \((\d+) diagrams\)$"
))
_LINEAR = ("[ok] block-weighted linear decomposition: ", re.compile(
    r"^\[ok\] block-weighted linear decomposition: n=(\d+) \((.*)\)$"
))
_RESIDUAL = re.compile(r" residual (\S+)$")


def _record_line(rec: dict) -> str:
    """The text rendering of a JSON verify record."""
    tail = ""
    if "residual" in rec:
        tail = f" residual {rec['residual']!r}"
    elif "detail" in rec:
        tail = f" ({rec['detail']})"
    mark = "ok" if rec["pass"] is True else "FAIL"
    return f"[{mark}] {rec['identity']}: {rec['instance']}{tail}"


def _check_verify(argv, text: str, goldens) -> int:
    suite = argv[1]
    if _opt(argv, "--format", "text") == "json":
        report = _json(text)
        _require(report.get("status") == "pass", "status is not pass")
        records = [_record_line(rec) for rec in report["checks"]]
        instances, failures = report["instances"], report["failures"]
    else:
        lines = text.splitlines()
        _require(_text_field(lines, "status: ") == "pass", "status is not pass")
        records = [ln for ln in lines if ln.startswith("[")]
        m = re.fullmatch(r"(\d+) instances, (\d+) failures", _text_field(lines, "checked: "))
        _require(m is not None, "malformed checked line")
        instances, failures = int(m.group(1)), int(m.group(2))
    _require(failures == 0, f"{failures} failures reported")
    _require(instances == len(records), f"{instances} instances but {len(records)} records")
    _require(all(r.startswith("[ok] ") for r in records), "a record did not pass")
    floor = goldens["verify"][_argv_key(argv)]
    _require(instances >= floor, f"{instances} instances, fewer than the {floor} recorded")
    def detail(line, kind):
        prefix, pattern = kind
        if not line.startswith(prefix):
            return None
        m = pattern.match(line)
        _require(m is not None, f"malformed record: {line}")
        return m.groups()

    for line in records:
        if groups := detail(line, _CENSUS):
            n, k, j, got = map(int, groups)
            _require(got == math.comb(n, j) * math.comb(n, j + k), f"census wrong: {line}")
        elif groups := detail(line, _ANNULUS):
            mm, nn, got = map(int, groups)
            _require(got == snc_count(mm, nn), f"annulus count wrong: {line}")
        elif groups := detail(line, _LINEAR):
            _require(parse_poly(groups[1]) == linear_decomposition(int(groups[0])),
                     f"linear decomposition wrong: {line}")
        elif suite == "wick":
            r = _RESIDUAL.search(line)
            _require(r is not None and float(r.group(1)) <= WICK_RESIDUAL_TOL,
                     f"residual above {WICK_RESIDUAL_TOL}: {line}")
    for name, kind in (("bijections", _CENSUS), ("cut-reassemble", _ANNULUS),
                       ("lineardecomp", _LINEAR)):
        if suite == name:
            _require(any(r.startswith(kind[0]) for r in records), f"no '{kind[0]}' records")
    return instances


def tolerance_band(se: float, limit: float, cols: int) -> float:
    """The statistical band of an mc statistic: three standard errors plus
    a finite-N allowance of 10/N (1 + |limit|)."""
    return 3.0 * se + 10.0 / cols * (1.0 + abs(limit))


def _check_mc(argv, text: str, goldens) -> int:
    report = _json(text)
    _require(report.get("status") == "pass", "status is not pass")
    cols = int(_opt(argv, "--N"))
    c = Fraction(_opt(argv, "--c", "1"))
    _require(report["cols"] == cols and report["rows"] == c * cols, "wrong matrix shape")
    _require(Fraction(report["c"]) == c, "wrong c")
    _require(report["seed"] == int(_opt(argv, "--seed", "0")), "wrong seed")
    got = {}
    for rec in report["statistics"]:
        got[("mean", rec["key"], rec["key"])] = (
            rec["mean"], rec["se_mean"], rec["predicted_mean"], rec["tolerance"], rec["pass"])
    for rec in report["covariance"]:
        got[(rec["kind"], rec["key_a"], rec["key_b"])] = (
            rec["estimate"], rec["se"], rec["predicted"], rec["tolerance"], rec["pass"])
    # Every recorded statistic must be reported with its recorded limit;
    # statistics added later must pass like the others.
    limits = {}
    for wkind, wka, wkb, wpred in goldens["mc"][_argv_key(argv, ("--format", "--seed", "--N"))]:
        label = f"{wkind} {wka}, {wkb}"
        _require((wkind, wka, wkb) in got, f"missing statistic {label}")
        pred = got[(wkind, wka, wkb)][2]
        _require(math.isclose(pred, wpred, rel_tol=1e-12, abs_tol=1e-12),
                 f"limit of {label} is {pred}, expected {wpred}")
        limits[(wkind, wka, wkb)] = wpred
    for key, (est, se, pred, _, ok) in got.items():
        kind, ka, kb = key
        label = f"{kind} {ka}, {kb}"
        m = re.fullmatch(r"tr X1\^(\d+)", ka)
        n = re.fullmatch(r"tr X1\^(\d+)", kb)
        if m and n:
            exact = float(peval(snc_weight(int(m.group(1)), int(n.group(1))), c))
            _require(math.isclose(pred, exact, rel_tol=1e-12), f"limit of {label} is not exact")
        _require(ok is True, f"{label} failed")
        _require(math.isfinite(est) and math.isfinite(se) and se >= 0,
                 f"{label} has a non-finite estimate")
        # The band is recomputed here; the report's own tolerance is ignored.
        limit = limits.get(key, pred)
        _require(abs(est - limit) <= tolerance_band(se, limit, cols),
                 f"{label} lies outside its tolerance band")
    return int(_opt(argv, "--samples")) * int(_opt(argv, "--p", "1"))


_CHECKERS = {
    "tables": _check_tables,
    "enumerate": _check_enumerate,
    "verify": _check_verify,
    "mc": _check_mc,
}


@lru_cache(maxsize=1)
def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def check_job(job, exit_code: int | None, stdout: bytes, goldens=None) -> tuple[str | None, int]:
    """(failure reason or None, work units in the report).

    Work units are table entries, verify instances, diagrams, or sampled
    matrices (samples x p), by command.  A probe passes when it ends in
    time with a verdict: exit 0 or 1 and a report whose status is pass or
    fail.
    """
    if goldens is None:
        goldens = load_goldens()
    if exit_code is None:
        return f"timed out after {job.timeout_s} s", 0
    text = stdout.decode("utf-8", errors="replace")
    if job.probe:
        if exit_code not in (0, 1):
            return f"exit code {exit_code}, not a verdict", 0
        try:
            status = _json(text).get("status")
        except CheckFailed as exc:
            return str(exc), 0
        return (None if status in ("pass", "fail") else f"status {status!r}"), 0
    if exit_code != 0:
        return f"exit code {exit_code}", 0
    try:
        return None, _CHECKERS[job.kind](job.argv, text, goldens)
    except CheckFailed as exc:
        return str(exc), 0
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})", 0
