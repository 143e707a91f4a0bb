"""Tests for the package surface: the public names, the CLI names that a
wrapper can replace, the modules each command loads (numpy only for the
commands that compute in floating point), and no module importing a name
it never reads.  Each import check runs in a fresh interpreter."""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import ncwishart
from ncwishart import cli

SRC = str(Path(ncwishart.__file__).resolve().parents[1])


def run_fresh(code: str, env=None):
    """Run `code` in a fresh interpreter (in `env`, by default this one's);
    return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**(os.environ if env is None else env), "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


MAIN = """
    import contextlib, io, json, os, sys
    from ncwishart import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main({argv!r})
        except SystemExit as exc:  # --help
            code = exc.code
    print(json.dumps([code, "numpy" in sys.modules, "concurrent.futures" in sys.modules,
                      os.environ.get("OPENBLAS_NUM_THREADS"),
                      sorted(m for m in sys.modules if m.startswith("ncwishart."))]))
"""

# the modules the parser needs: a usage error or --help loads no other
PARSER = {"cli", "limits", "perms"}
# and the exact tables: families imports polyc
TABLES = PARSER | {"polyc", "families"}
# and the half-permutations, which import both
CELLS = TABLES | {"halfperm"}

# (argv, exit code, the ncwishart modules it loads); the forward family has
# no fixture, so --check is a usage error there, the next three sizes are
# one past their caps, and the last two overflow a batch of draws and the
# stored traces
EXACT_COMMANDS = [
    (["tables", "pi", "--rows", "6", "--check"], 2, PARSER),
    (["tables", "gamma-inverse", "--rows", "6", "--check"], 0, TABLES),
    (["enumerate", "ncc", "--n", "4", "--k", "1"], 0, CELLS),
    (["enumerate", "ncl", "--n", "4", "--k", "1"], 0, CELLS),
    (["enumerate", "snc", "--m", "2", "--n", "3"], 0, PARSER | {"polyc"}),
    (["verify", "recursions", "--max-n", "4"], 0, CELLS),
    (["verify", "series", "--order", "4", "--max-k", "3"], 0, TABLES),
    (["verify", "bijections", "--max-n", "3"], 0, CELLS | {"dots", "colored"}),
    (["verify", "lineardecomp", "--max-n", "4"], 0, CELLS),
    (["verify", "cut-reassemble", "--max-total", "4"], 0, CELLS),
    (["mc", "--help"], 0, PARSER),
    (["--help"], 0, PARSER),
    (["verify", "recursions", "--max-n", "26"], 2, PARSER),
    (["enumerate", "ncc", "--n", "13", "--k", "1"], 2, PARSER),
    (["mc", "diagonalize", "--p", "9"], 2, PARSER),
    (["mc", "diagonalize", "--N", "3000", "--samples", "64"], 2, PARSER),
    (["mc", "diagonalize", "--p", "8", "--max-degree", "30", "--N", "4", "--samples", "200000"],
     2, PARSER),
]
NUMERIC_COMMANDS = [
    (["verify", "wick", "--depth", "4", "--algebra", "scalar"], 0, CELLS | {"wick"}),
    (["mc", "diagonalize", "--N", "4", "--samples", "8", "--seed", "11"], 0, CELLS | {"rmt"}),
]


def test_importing_the_package_leaves_numpy_out():
    assert run_fresh("""
        import json, sys
        import ncwishart
        print(json.dumps(["numpy" in sys.modules,
                          [m for m in sys.modules if m.startswith("ncwishart.")]]))
    """) == [False, []]


def test_building_the_parser_loads_only_the_parser_modules():
    assert run_fresh("""
        import json, sys
        import ncwishart.cli as cli
        cli.build_parser()
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("ncwishart."))))
    """) == sorted(f"ncwishart.{m}" for m in PARSER)


@pytest.mark.parametrize(
    "argv,code,numpy,modules",
    [
        pytest.param(argv, code, numpy, modules, id=f"{' '.join(argv)}-{code}-{numpy}")
        for numpy, table in ((False, EXACT_COMMANDS), (True, NUMERIC_COMMANDS))
        for argv, code, modules in table
    ],
)
def test_only_the_floating_point_commands_load_numpy(argv, code, numpy, modules):
    """Each command loads the modules it runs and no other."""
    got = run_fresh(MAIN.format(argv=argv))
    assert got[:2] == [code, numpy]
    if not numpy:  # nor the sampler's thread pool
        assert got[2] is False
    assert got[4] == sorted(f"ncwishart.{m}" for m in modules)


WICK, MC = (argv for argv, _, _ in NUMERIC_COMMANDS)


@pytest.mark.parametrize(
    "argv,env,pinned",
    [
        (MC, {}, "1"),
        (MC, {"OMP_NUM_THREADS": "3"}, None),
        (MC, {"MKL_NUM_THREADS": "2"}, None),
        (WICK, {}, "1"),
        (WICK, {"OMP_NUM_THREADS": "3"}, None),
    ],
    ids=["mc", "mc with OMP_NUM_THREADS", "mc with MKL_NUM_THREADS", "verify wick",
         "verify wick with OMP_NUM_THREADS"],
)
def test_mc_runs_blas_on_one_thread_unless_a_thread_count_is_set(argv, env, pinned):
    base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARIABLES}
    got = run_fresh(MAIN.format(argv=argv), env={**base, **env})
    assert got[0] == 0 and got[1] is True
    assert got[3] == pinned


def test_mc_after_numpy_is_loaded_leaves_the_environment_alone(monkeypatch):
    import numpy  # noqa: F401  (BLAS has read its settings)

    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(MC) == 0
    assert dict(os.environ) == before


def test_every_public_name_is_its_defining_module_attribute():
    for name in ncwishart.__all__:
        if name == "__version__":
            continue
        obj = getattr(ncwishart, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    from ncwishart import wick

    assert wick is sys.modules["ncwishart.wick"]
    assert isinstance(wick.wick, types.FunctionType)
    assert wick.wick.__module__ == "ncwishart.wick"


@pytest.mark.parametrize(
    "prelude",
    [
        "",
        "import ncwishart.wick",
        "import contextlib, io\n"
        "from ncwishart import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', 'wick', '--depth', '4', '--algebra', 'scalar'])",
    ],
    ids=["fresh", "after importing the module", "after verify wick"],
)
def test_the_package_name_wick_is_the_submodule(prelude):
    assert run_fresh(prelude + """
import json, sys, types
import ncwishart
from ncwishart import wick
module = sys.modules["ncwishart.wick"]
print(json.dumps([
    wick is module,
    ncwishart.wick is module,
    isinstance(module.wick, types.FunctionType),
]))
""") == [True, True, True]


def test_a_wrapper_set_on_the_cli_before_main_is_called():
    # wick_report is set before the CLI has bound it; sample_traces is read
    # first (binding every sampler name) and then replaced, as a tracer would
    assert run_fresh("""
        import contextlib, io, json
        from ncwishart import cli
        calls = []

        def wick_report(**kwargs):
            calls.append("wick_report")
            return []

        sample_traces = cli.sample_traces

        def wrapped(config):
            calls.append("sample_traces")
            return sample_traces(config)

        cli.wick_report = wick_report
        cli.sample_traces = wrapped
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "wick", "--depth", "4"])
            cli.main(["mc", "raw-cov", "--m", "1", "--n", "1", "--N", "2", "--samples", "4"])
        print(json.dumps(calls))
    """) == ["wick_report", "sample_traces"]


@pytest.mark.parametrize("owner", [ncwishart, cli], ids=lambda module: module.__name__)
def test_every_lazy_name_is_an_attribute_of_its_module(owner):
    for module, names in owner._LAZY.items():
        loaded = importlib.import_module(f"ncwishart.{module}")
        assert [name for name in names if not hasattr(loaded, name)] == [], module


# imported only so that the benchmark's tracer can wrap them in `rmt`
KEPT_FOR_THE_TRACER = {"rmt": {"enum_snc", "weighted_count"}}
# the names `cli` binds on first use, which it must read like any import
LAZY_IMPORTS = {"cli": {name for names in cli._LAZY.values() for name in names}}


@pytest.mark.parametrize(
    "path", sorted(Path(ncwishart.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    imported |= LAZY_IMPORTS.get(path.stem, set())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported - read == KEPT_FOR_THE_TRACER.get(path.stem, set())
