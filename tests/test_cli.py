"""Tests for the command-line contract: every subcommand's JSON report
against its shipped schema, CSV rows and --output files that match it,
text and JSON reports that agree, failed checks that exit 1, and usage
errors that exit 2 without a traceback."""

import csv
import json
import os
import stat

import jsonschema
import pytest

from ncwishart import cli
from ncwishart.cli import (
    GOLDEN_ROWS,
    MAX_RECURSIONS_N,
    MAX_REPORT_DEPTH,
    MAX_SERIES_ORDER,
    MAX_TABLE_ROWS,
    main,
    schema_path,
)
from ncwishart.limits import MAX_DEGREE, MAX_MATRICES
from ncwishart.halfperm import WeightRule, enum_ncc, enum_ncl, weighted_count
from ncwishart.perms import enum_snc
from ncwishart.polyc import PolyC

CELLS = [
    ("ncc", "--n", "4", "--k", "0"),
    ("ncc", "--n", "5", "--k", "2"),
    ("ncl", "--n", "4", "--k", "1"),
    ("ncl", "--n", "5", "--k", "0"),
    ("snc", "--m", "2", "--n", "3"),
    ("snc", "--m", "3", "--n", "3"),
]


def run(capsys, *argv):
    code = main(["enumerate", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def schema(command):
    return json.loads(schema_path(command).read_text(encoding="utf-8"))


def validate(report, command):
    jsonschema.validate(report, schema(command))


SAMPLER_FLAGS = {"N", "M", "c", "samples", "seed"}
# the flags each variant reads; its config echo holds these, the output
# flags and the subcommand keys, and nothing else
VARIANT_FLAGS = {
    "ncc": {"n", "k"},
    "ncl": {"n", "k"},
    "snc": {"m", "n"},
    "recursions": {"max_n"},
    "bijections": {"max_n"},
    "cut-reassemble": {"max_total"},
    "lineardecomp": {"max_n"},
    "series": {"order", "max_k"},
    "wick": {"depth", "seed", "algebra"},
    "diagonalize": SAMPLER_FLAGS | {"p", "max_degree", "mixed"},
    "raw-cov": SAMPLER_FLAGS | {"m", "n", "p"},
}
VARIANT_KEYS = {"enumerate": "kind", "verify": "suite", "mc": "experiment"}


def assert_own_flags(report):
    key = VARIANT_KEYS[report["command"]]
    own = VARIANT_FLAGS[report["config"][key]]
    assert set(report["config"]) == own | {"format", "output", "subcommand", key}


def text_summary(out):
    """count and weight lines of a streamed text report"""
    fields = dict(line.split(": ", 1) for line in out.splitlines()
                  if line.startswith(("count: ", "weight: ", "status: ")))
    return int(fields["count"]), fields["weight"], fields["status"]


@pytest.mark.parametrize("cell", CELLS, ids=" ".join)
def test_text_and_json_agree(capsys, cell):
    code_t, out_t, _ = run(capsys, *cell, "--format", "text")
    code_j, out_j, _ = run(capsys, *cell, "--format", "json")
    assert code_t == code_j == 0
    report = json.loads(out_j)
    assert text_summary(out_t) == (report["count"], report["weight"], "pass")
    # the streamed diagrams are the JSON report's, in the same order
    lines = out_t.splitlines()
    assert lines[2:2 + report["count"]] == report["diagrams"]
    assert len(report["weight_exponents"]) == report["count"]


@pytest.mark.parametrize("cell", CELLS, ids=" ".join)
def test_json_matches_schema_and_library(capsys, cell):
    code, out, _ = run(capsys, *cell, "--format", "json")
    assert code == 0
    report = json.loads(out)
    validate(report, "enumerate")
    assert_own_flags(report)
    kind, *flags = cell
    params = {flags[i].lstrip("-"): int(flags[i + 1]) for i in range(0, len(flags), 2)}
    assert report["kind"] == kind and report["params"] == params
    if kind == "snc":
        diagrams = enum_snc(params["m"], params["n"])
        weight = weighted_count(diagrams, WeightRule.ALL_BLOCKS)
    else:
        enum = enum_ncc if kind == "ncc" else enum_ncl
        diagrams = enum(params["n"], params["k"])
        weight = weighted_count(diagrams, WeightRule.CLOSED_BLOCKS)
    assert report["count"] == len(diagrams)
    assert report["weight"] == str(weight)


# a 149 GiB batch of draws and a 7.28 TiB trace store
OVERSIZED_MC = (
    ("mc", "diagonalize", "--N", "100000", "--samples", "2"),
    ("mc", "raw-cov", "--m", "1", "--n", "1", "--N", "2", "--samples", "1000000000000"),
)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "ncc", "--n", "13", "--k", "1"),
        ("enumerate", "ncl", "--n", "13", "--k", "0"),
        ("enumerate", "snc", "--m", "7", "--n", "6"),
        ("mc", "diagonalize", "--max-degree", str(MAX_DEGREE + 1), "--N", "4", "--samples", "4"),
        ("mc", "diagonalize", "--p", str(MAX_MATRICES + 1), "--N", "1", "--samples", "2"),
        ("mc", "raw-cov", "--m", str(MAX_DEGREE + 1), "--n", "1", "--N", "4", "--samples", "4"),
        *OVERSIZED_MC,
        ("verify", "lineardecomp", "--max-n", "13"),
        ("verify", "bijections", "--max-n", "13"),
        ("verify", "cut-reassemble", "--max-total", "13"),
        ("verify", "wick", "--depth", str(MAX_REPORT_DEPTH + 1)),
        ("verify", "recursions", "--max-n", str(MAX_RECURSIONS_N + 1)),
        ("verify", "series", "--order", str(MAX_SERIES_ORDER + 1)),
        ("verify", "series", "--max-k", str(MAX_SERIES_ORDER + 1)),
        ("tables", "gamma-inverse", "--rows", str(MAX_TABLE_ROWS + 1)),
    ],
    ids=" ".join,
)
def test_over_the_cap_is_a_usage_error(capsys, argv):
    for fmt in ("text", "json"):
        assert main([*argv, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "cap" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("depth", ["1", "2", "3"])
def test_wick_depth_below_the_minimum_is_a_usage_error(capsys, depth):
    assert main(["verify", "wick", "--depth", depth]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "minimum 4" in err
    assert "Traceback" not in err


def test_a_suite_with_nothing_to_check_is_a_usage_error(capsys):
    # m + n = 1 has no annulus, and an empty run must not report a pass
    assert main(["verify", "cut-reassemble", "--max-total", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "minimum 2" in err


BAD_RATIOS = ("abc", "nan", "inf", "1/0", "0", "-1", "-1/2")


@pytest.mark.parametrize("ratio", BAD_RATIOS)
def test_a_ratio_that_is_no_fraction_is_a_usage_error(capsys, ratio):
    assert main(["mc", "diagonalize", "--c", ratio, "--N", "4", "--samples", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --c ") and "Traceback" not in err


def test_an_unsupported_mixed_word_is_rejected_before_sampling(capsys, monkeypatch):
    def sample_traces(config):
        raise AssertionError("sampled before the word was checked")

    monkeypatch.setattr(cli, "sample_traces", sample_traces)
    argv = ["mc", "diagonalize", "--mixed", "2,1:1,2", "--N", "4", "--samples", "4"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("p", ["2", "3"])
def test_raw_cov_with_more_than_one_matrix_is_rejected_before_sampling(
    capsys, monkeypatch, p
):
    def sample_traces(config):
        raise AssertionError("sampled before --p was checked")

    monkeypatch.setattr(cli, "sample_traces", sample_traces)
    argv = ["mc", "raw-cov", "--m", "1", "--n", "2", "--p", p, "--N", "4", "--samples", "4"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "--p" in err


def _failed_replace(src, dst):
    raise OSError("replace failed")


@pytest.mark.parametrize("case", ["missing directory", "directory", "FIFO", "failed write"])
def test_an_unwritable_output_exits_2_and_leaves_no_temp_file(
    capsys, monkeypatch, tmp_path, case
):
    target = {
        "missing directory": tmp_path / "missing" / "report.out",
        "directory": tmp_path,
        "FIFO": tmp_path / "fifo",
        "failed write": tmp_path / "report.out",
    }[case]
    if case == "FIFO":
        os.mkfifo(target)
    if case == "failed write":
        monkeypatch.setattr(cli.os, "replace", _failed_replace)
    assert main(["tables", "pi-inverse", "--rows", "3", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    # a FIFO target is left in place, not replaced by a regular file
    if case == "FIFO":
        assert stat.S_ISFIFO(target.lstat().st_mode)
        target.unlink()
    assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.parent.glob(f".{tmp_path.name}.tmp*")) == []


def test_an_output_symlink_keeps_its_link_and_the_report_replaces_its_target(
    capsys, tmp_path
):
    real = tmp_path / "real" / "report.txt"
    real.parent.mkdir()
    real.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert main(["tables", "pi", "--rows", "2", "--output", str(link)]) == 0
    assert capsys.readouterr().out == ""
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text().startswith("command: tables")
    assert sorted(p.name for p in real.parent.iterdir()) == ["report.txt"]


# a flag of another variant, or one placed before the variant name
REJECTED_FLAGS = [
    ("verify", "recursions", "--depth", "5"),
    ("verify", "wick", "--max-n", "3"),
    ("mc", "raw-cov", "--m", "1", "--n", "1", "--mixed", "1,1:1,2", "--N", "2", "--samples", "2"),
    ("mc", "diagonalize", "--m", "2", "--N", "2", "--samples", "2"),
    ("enumerate", "snc", "--m", "2", "--n", "3", "--k", "1"),
    ("enumerate", "ncc", "--n", "3", "--k", "1", "--m", "2"),
    ("verify", "--format", "json", "recursions"),
]

# Each argv must end in exit 0, 1 or 2 without a traceback, and each of
# REJECTED_FLAGS in exit 2; {tmp} stands for a fresh directory.
CONTRACT_ARGVS = [
    *REJECTED_FLAGS,
    ("mc", "diagonalize", "--mixed", "2,1:1,2", "--N", "4", "--samples", "4"),
    *(("mc", "diagonalize", "--c", ratio, "--N", "4", "--samples", "4") for ratio in BAD_RATIOS),
    ("tables", "pi-inverse", "--output", "{tmp}/missing/report.out"),
    ("tables", "pi-inverse", "--output", "{tmp}"),
    ("enumerate", "ncc", "--n", "1", "--k", "0"),
    ("verify", "series", "--order", "1", "--max-k", "1"),
    ("mc", "raw-cov", "--m", "1", "--n", "1", "--N", "1", "--samples", "2"),
    ("enumerate", "ncc", "--n", "13", "--k", "1"),
    ("enumerate", "ncl", "--n", "13", "--k", "0"),
    ("enumerate", "snc", "--m", "7", "--n", "6"),
    ("enumerate", "ncc", "--n", "5", "--k", "1", "--cap", "4"),
    ("verify", "recursions", "--max-n", "40"),
    ("verify", "series", "--order", "500"),
    ("verify", "series", "--order", "12", "--max-k", "4000"),
    ("tables", "gamma-inverse", "--rows", "100000"),
    *OVERSIZED_MC,
]


@pytest.mark.parametrize("argv", CONTRACT_ARGVS, ids=" ".join)
def test_every_exit_keeps_the_contract(capsys, tmp_path, argv):
    try:
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2 or argv in REJECTED_FLAGS:
        assert code == 2 and out == ""


# -- verify, tables and mc reports against their schemas ----------------------

SUITES = [
    ("recursions", "--max-n", "4"),
    ("bijections", "--max-n", "3"),
    ("cut-reassemble", "--max-total", "4"),
    ("lineardecomp", "--max-n", "4"),
    ("series", "--order", "4", "--max-k", "3"),
    ("wick", "--depth", "4", "--algebra", "scalar"),
]


def verify(capsys, *argv):
    """Run one verify suite in text and in JSON; return both reports."""
    code_t = main(["verify", *argv, "--format", "text"])
    out_t, _ = capsys.readouterr()
    code_j = main(["verify", *argv, "--format", "json"])
    out_j, _ = capsys.readouterr()
    report = json.loads(out_j)
    assert code_t == code_j == (0 if report["status"] == "pass" else 1)
    return out_t, report


@pytest.mark.parametrize("suite", SUITES, ids=" ".join)
def test_verify_text_and_json_agree(capsys, suite):
    text, report = verify(capsys, *suite)
    validate(report, "verify")
    assert_own_flags(report)
    assert report["suite"] == suite[0]
    assert report["status"] == "pass" and report["failures"] == 0
    assert report["instances"] == len(report["checks"]) > 0
    lines = text.splitlines()
    assert sum(line.startswith("[") for line in lines) == report["instances"]
    assert f"checked: {report['instances']} instances, {report['failures']} failures" in lines
    assert lines[-1] == f"status: {report['status']}"


def test_lineardecomp_mismatch_is_a_failed_record(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lineardecomp_check", lambda n: (PolyC.zero(), PolyC.one()))
    text, report = verify(capsys, "lineardecomp", "--max-n", "3")
    validate(report, "verify")
    assert report["status"] == "fail" and report["failures"] == report["instances"] == 3
    assert "[FAIL] block-weighted linear decomposition: n=1 (0)" in text.splitlines()


# the cells of the linear recursion's terms: case 1 takes an open singleton
# (k >= 1), case 2 grows an open block (k >= 1), case 3 takes a closed
# singleton and case 4 opens a closed block, each into a cell of size n - 1
LINEAR_TERMS = {
    1: lambda n, k: k >= 1,
    2: lambda n, k: 1 <= k <= n - 1,
    3: lambda n, k: k <= n - 1,
    4: lambda n, k: k <= n - 2,
}


def test_the_linear_maps_and_the_odd_pairing_are_records(capsys):
    _, report = verify(capsys, "bijections", "--max-n", "6")
    assert report["status"] == "pass"
    instances: dict[str, set] = {}
    for rec in report["checks"]:
        instances.setdefault(rec["identity"], set()).add(rec["instance"])
    cells = [(n, k) for n in range(1, 7) for k in range(n + 1)]
    assert instances["linear census equals the second-kind inverse table"] == {
        f"n={n},k={k}" for n, k in cells
    }
    assert instances["linear removal is a bijection onto its target cell"] == {
        f"n={n},k={k},case={case}"
        for n, k in cells for case, holds in LINEAR_TERMS.items() if holds(n, k)
    }
    assert instances["odd pairing is a bijection onto marked partitions"] == {
        f"n={n}" for n in range(1, 7)
    }
    # the benchmark's checker reads this prefix as the dot census
    assert [i for i in instances if i.startswith("closed-block census")] == [
        "closed-block census C(n,j)C(n,j+k)"
    ]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("diagonalize", "--max-degree", str(MAX_DEGREE + 1)), "--max-degree"),
        (("raw-cov", "--m", str(MAX_DEGREE + 1), "--n", "1"), "--m"),
        (("raw-cov", "--m", "1", "--n", str(MAX_DEGREE + 1)), "--n"),
    ],
    ids=" ".join,
)
def test_the_degree_cap_names_the_flag(capsys, argv, flag):
    assert main(["mc", *argv, "--N", "4", "--samples", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} {MAX_DEGREE + 1} is out of range (cap {MAX_DEGREE})\n"


def test_the_matrix_cap_names_the_flag(capsys):
    assert main(["mc", "diagonalize", "--p", str(MAX_MATRICES + 1), "--N", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --p {MAX_MATRICES + 1} is out of range (cap {MAX_MATRICES})\n"


def test_too_few_samples_names_the_flag(capsys):
    assert main(["mc", "diagonalize", "--samples", "1", "--N", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --samples 1 is too few: need at least two samples\n"


@pytest.mark.parametrize(
    "command,field",
    [("verify", "suite"), ("mc", "experiment"), ("enumerate", "kind"), ("tables", "family")],
)
def test_the_schema_enums_name_what_the_parser_takes(command, field):
    # so that a new suite, experiment, kind or family cannot ship without
    # its schema entry
    def choices(parser, dest):
        return next(action.choices for action in parser._actions if action.dest == dest)

    parser = choices(cli.build_parser(), "subcommand")[command]
    assert sorted(schema(command)["properties"][field]["enum"]) == sorted(choices(parser, field))


INVERSE_FAMILIES = sorted(GOLDEN_ROWS)


@pytest.mark.parametrize("family", INVERSE_FAMILIES)
def test_tables_check_matches_schema(capsys, family):
    assert main(["tables", family, "--rows", "6", "--check", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr()[0])
    validate(report, "tables")
    assert report["status"] == "pass" and len(report["rows"]) == 6
    assert report["check"] == {"rows_compared": 5, "mismatches": [], "pass": True}


def test_a_fixture_mismatch_exits_1(capsys, monkeypatch):
    bad = (("2",),) + GOLDEN_ROWS["pi-inverse"][1:]
    monkeypatch.setitem(GOLDEN_ROWS, "pi-inverse", bad)
    assert main(["tables", "pi-inverse", "--check", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr()[0])
    validate(report, "tables")
    assert report["status"] == "fail"
    assert report["check"]["mismatches"] == [
        {"row": 0, "col": 0, "computed": "1", "fixture": "2"}
    ]
    assert main(["tables", "pi-inverse", "--check"]) == 1
    lines = capsys.readouterr()[0].splitlines()
    assert "fixture check: FAIL (5 rows compared)" in lines
    assert lines[-1] == "status: fail"


@pytest.mark.parametrize(
    "argv",
    [("raw-cov", "--m", "2", "--n", "3"), ("diagonalize",)],
    ids=" ".join,
)
def test_mc_matches_schema(capsys, argv):
    code = main(["mc", *argv, "--N", "8", "--samples", "16", "--format", "json"])
    report = json.loads(capsys.readouterr()[0])
    validate(report, "mc")
    assert_own_flags(report)
    assert report["experiment"] == argv[0]
    assert code == (0 if report["status"] == "pass" else 1)
    assert report["statistics"] or report["covariance"]


def test_raw_cov_and_diagonalize_report_the_same_power_covariance(capsys):
    # both read X1 from the first child of the seed and build the record
    # with one function, so the record is equal bit for bit
    def record(*argv):
        flags = ("--N", "10", "--samples", "64", "--seed", "5", "--c", "1/2")
        main(["mc", *argv, *flags, "--format", "json"])
        report = json.loads(capsys.readouterr()[0])
        return [rec for rec in report["covariance"]
                if (rec["key_a"], rec["key_b"]) == ("tr X1^2", "tr X1^3")]

    raw = record("raw-cov", "--m", "2", "--n", "3")
    assert len(raw) == 1
    assert record("diagonalize", "--max-degree", "3") == raw


def test_mc_samples_only_the_pairs_it_reads(capsys, monkeypatch):
    seen = []
    sample = cli.sample_traces

    def recording(config):
        seen.append(config.pairs)
        return sample(config)

    monkeypatch.setattr(cli, "sample_traces", recording)
    argv = ["mc", "diagonalize", "--p", "4", "--mixed", "1,1:3,2", "--N", "6",
            "--samples", "40", "--format", "json"]
    main(argv)
    report = json.loads(capsys.readouterr()[0])
    assert seen == [((0, 1), (1, 2))]
    keys = [rec["key_a"] for rec in report["covariance"]]
    assert keys.count("tr pi[1](X1) pi[1](X2)") == 1
    assert keys.count("tr pi[1](X3) pi[1](X2)") == 1


def test_a_rotated_two_letter_word_reports_the_suite_word_once(capsys):
    def report(word):
        main(["mc", "diagonalize", "--mixed", word, "--N", "6", "--samples", "40",
              "--seed", "3", "--format", "json"])
        out = json.loads(capsys.readouterr()[0])
        del out["config"], out["elapsed_s"]
        return out

    rotated = report("1,1:2,1")
    assert rotated == report("1,1:1,2")
    keys = [rec["key_a"] for rec in rotated["covariance"]]
    assert keys.count("tr pi[1](X1) pi[1](X2)") == 1
    assert "tr pi[1](X2) pi[1](X1)" not in keys


@pytest.mark.parametrize(
    "argv",
    [
        ("diagonalize", "--max-degree", "7", "--N", "4", "--samples", "4"),
        ("diagonalize", "--max-degree", "8", "--N", "4", "--samples", "4"),
        ("diagonalize", "--max-degree", "20", "--N", "4", "--samples", "4"),
        ("raw-cov", "--m", "6", "--n", "7", "--N", "4", "--samples", "4"),
    ],
    ids=" ".join,
)
def test_high_degree_mc_reaches_a_verdict(capsys, argv):
    # the limits come from the inverse table, so no enumeration cap applies
    code = main(["mc", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert code in (0, 1) and "Traceback" not in err
    report = json.loads(out)
    validate(report, "mc")
    assert code == (0 if report["status"] == "pass" else 1)


# -- CSV, --output, and text/JSON agreement for tables and mc ----------------

REPORTS = {
    "tables": (("tables", "pi-inverse", "--rows", "4"),
               ["family", "n", "k", "entry"],
               lambda r: sum(len(row) for row in r["rows"])),
    "enumerate": (("enumerate", "snc", "--m", "2", "--n", "2"),
                  ["kind", "index", "diagram", "weight_exponent"],
                  lambda r: r["count"]),
    "verify": (("verify", "cut-reassemble", "--max-total", "4"),
               ["suite", "identity", "instance", "pass", "detail"],
               lambda r: r["instances"]),
    "mc": (("mc", "raw-cov", "--m", "2", "--n", "3", "--N", "8", "--samples", "16"),
           ["kind", "key_a", "key_b", "estimate", "se", "predicted", "tolerance", "pass"],
           lambda r: len(r["statistics"]) + len(r["covariance"])),
}


def render(capsys, argv, fmt, output="-"):
    code = main([*argv, "--format", fmt, "--output", output])
    return code, capsys.readouterr()[0]


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_csv_rows_match_the_json_report(capsys, command):
    argv, header, count = REPORTS[command]
    code_c, out_c = render(capsys, argv, "csv")
    code_j, out_j = render(capsys, argv, "json")
    assert code_c == code_j
    lines = out_c.splitlines()
    assert lines[0] == f"# command: {command}"
    assert lines[1].startswith("# config: ") and "format=csv" in lines[1]
    rows = list(csv.reader(lines[2:]))
    assert rows[0] == header
    assert len(rows) - 1 == count(json.loads(out_j)) > 0
    assert all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "pi-inverse", "--rows", "4", "--check"),
        ("enumerate", "ncc", "--n", "4", "--k", "1"),
        ("verify", "series", "--order", "4", "--max-k", "3"),
    ],
    ids=" ".join,
)
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    target = tmp_path / "report.out"
    code_s, stdout = render(capsys, argv, fmt)
    code_f, printed = render(capsys, argv, fmt, str(target))
    assert code_s == code_f == 0 and printed == ""
    # the echoed config names the output target; everything else is equal
    assert target.read_text(encoding="utf-8").replace(str(target), "-") == stdout
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


@pytest.mark.parametrize("flags", [("gamma",), ("pi-inverse", "--check")], ids=" ".join)
def test_tables_text_and_json_agree(capsys, flags):
    argv = ("tables", *flags, "--rows", "5")
    code_t, text = render(capsys, argv, "text")
    code_j, out_j = render(capsys, argv, "json")
    report = json.loads(out_j)
    assert code_t == code_j == 0
    lines = text.splitlines()
    rows = [line.split(" | ")[1:] for line in lines if line.startswith("n=")]
    assert rows == report["rows"]
    assert [line.split(" | ")[0] for line in lines if line.startswith("n=")] == [
        f"n={n}" for n in range(5)
    ]
    assert lines[-1] == f"status: {report['status']}"


@pytest.mark.parametrize(
    "argv",
    [("raw-cov", "--m", "2", "--n", "3"), ("diagonalize", "--max-degree", "2")],
    ids=" ".join,
)
def test_mc_text_and_json_agree(capsys, argv):
    argv = ("mc", *argv, "--N", "8", "--samples", "16", "--seed", "3")
    code_t, text = render(capsys, argv, "text")
    code_j, out_j = render(capsys, argv, "json")
    report = json.loads(out_j)
    assert code_t == code_j == (0 if report["status"] == "pass" else 1)
    lines = text.splitlines()
    marks = [line.split("]")[0] + "]" for line in lines if line.startswith("[")]
    records = report["statistics"] + report["covariance"]
    assert marks == ["[ok]" if rec["pass"] else "[FAIL]" for rec in records]
    assert lines[-1] == f"status: {report['status']}"
