"""Tests for the command-line contract: `enumerate` in text and JSON, the
shipped JSON schema, and usage errors that exit 2 without a traceback."""

import json

import jsonschema
import pytest

from ncwishart.cli import main, schema_path
from ncwishart.halfperm import WeightRule, enum_ncc, enum_ncl, weighted_count
from ncwishart.perms import enum_snc

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
    schema = json.loads(schema_path("enumerate").read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "ncc", "--n", "5", "--k", "1", "--cap", "4"),
        ("enumerate", "ncl", "--n", "13", "--k", "0"),
        ("enumerate", "snc", "--m", "7", "--n", "6"),
        ("enumerate", "snc", "--m", "3", "--n", "3", "--cap", "5"),
        ("mc", "diagonalize", "--max-degree", "7", "--N", "4", "--samples", "4"),
        ("mc", "diagonalize", "--max-degree", "20", "--N", "4", "--samples", "4"),
        ("mc", "raw-cov", "--m", "6", "--n", "7", "--N", "4", "--samples", "4"),
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
