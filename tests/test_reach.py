"""The reach guard: every function of `src/ncwishart` serves a command.

One fresh interpreter runs the command lines of `ARGVS` through
`cli.main` under a profiling hook (`sys.setprofile`, and
`threading.setprofile` for the sampler's draw worker) and reports every
code object of the package that was entered.  The interpreter is fresh
because the `lru_cache`s that earlier tests fill would hide calls.  The
functions are every `def` of the package, nested ones included, found by
`ast` and named by their `__qualname__`.

A function no command calls must be on `EXEMPT`, with its reason.  The
list only shrinks: an exempt function that a command calls, or that no
longer exists, fails the guard too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncwishart

PACKAGE = Path(ncwishart.__file__).resolve().parent

# (argv, exit code); OUTPUT stands for a file in a temporary directory
OUTPUT = "<output>"
ARGVS = [
    ([*argv, "--format", fmt], 0)
    for fmt in ("text", "json", "csv")
    for argv in (
        ["tables", "gamma-inverse", "--rows", "6", "--check"],
        ["tables", "gamma", "--rows", "4"],
        ["enumerate", "ncc", "--n", "4", "--k", "1"],
        ["enumerate", "ncl", "--n", "4", "--k", "2"],
        ["enumerate", "snc", "--m", "2", "--n", "3"],
        ["verify", "recursions", "--max-n", "4"],
        ["verify", "series", "--order", "4", "--max-k", "3"],
        ["verify", "bijections", "--max-n", "4"],
        ["verify", "lineardecomp", "--max-n", "5"],
        ["verify", "cut-reassemble", "--max-total", "5"],
        ["verify", "wick", "--depth", "4"],
        ["mc", "diagonalize", "--N", "4", "--samples", "40", "--max-degree", "5"],
        ["mc", "raw-cov", "--m", "2", "--n", "3", "--N", "4", "--samples", "40"],
    )
] + [
    # M < N: the smaller Gram and the wide cross trace, of a --mixed pair too
    (["mc", "diagonalize", "--p", "3", "--N", "4", "--c", "1/2", "--samples", "40",
      "--mixed", "1,1:1,3"], 0),
    (["tables", "pi-inverse", "--check", "--output", OUTPUT], 0),
    (["--help"], 0),
    (["verify", "wick", "--help"], 0),
    (["tables", "pi", "--check"], 2),
    (["enumerate", "ncc", "--n", "13", "--k", "1"], 2),
    (["verify", "no-such-suite"], 2),
    (["mc", "diagonalize", "--c", "x"], 2),
    (["mc", "diagonalize", "--N", "3000", "--samples", "64"], 2),
    (["mc", "raw-cov", "--m", "1", "--n", "1", "--p", "2"], 2),
]

# Functions no command runs, by the reason each stays.
EXEMPT = {
    # the product-variance side of the multi-matrix theorem runs only in
    # tests until `verify colored` makes it records (ROADMAP item 4)
    "waits for verify colored": (
        "colored.ColoredAnnularSpec.__post_init__",
        "colored.ColoredAnnularSpec.m",
        "colored.ColoredAnnularSpec.n",
        "colored.ColoredAnnularSpec.outer_intervals",
        "colored.ColoredAnnularSpec.inner_intervals",
        "colored._profile",
        "colored.through_profile",
        "colored._select",
        "colored._select_spec",
        "colored.enum_colored_snc",
        "colored.spoke_spec",
        "colored.is_spoke_diagram",
        "colored.colored_nc_partitions",
        "colored.connector_weight",
        "colored.connector_weight.<locals>.connects",
        "colored.connector_weight.<locals>.connects.<locals>.find",
        "colored.connection_pattern_expansion",
        "colored.pi_contracted_sum",
        "colored._contracted_sum",
        "colored.product_variance_check",
        "colored.single_interval_variance_check",
        "colored.restrict_to_intervals",
    ),
    # the reports format diagrams and polynomials themselves
    "a value type's text form, for library use": (
        "perms.AnnularPerm.__str__",
        "dots.DotStructure.__str__",
        "polyc.PolyXC.__str__",
    ),
    # `cli.__getattr__` binds a name a wrapper (the benchmark's tracer, say)
    # reads before the command that loads it; the tests read the schemas
    "library use of the command-line module": (
        "cli.__getattr__",
        "cli.schema_path",
    ),
}

RUNNER = """
import contextlib, io, json, os, sys, threading

codes = set()


def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(hook)
threading.setprofile(hook)
from ncwishart import cli

exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            exits.append(cli.main(argv))
        except SystemExit as exc:  # --help and parser errors
            exits.append(exc.code)
sys.setprofile(None)
threading.setprofile(None)
package = os.path.dirname(cli.__file__)
print(json.dumps([exits, sorted({(os.path.basename(code.co_filename), code.co_firstlineno)
                                 for code in codes
                                 if os.path.dirname(code.co_filename) == package})]))
"""


def package_functions():
    """{(file name, first line): (module.qualname, line count)} of every
    `def` of the package; the first line is a decorator's, if any, as in
    its code object."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[module + ".py", first] = (f"{module}.{name}", child.end_lineno - first + 1)
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The exit codes of ARGVS and the (file name, first line) of every
    package function they called."""
    output = tmp_path_factory.mktemp("reach") / "report"
    argvs = [[str(output) if arg == OUTPUT else arg for arg in argv] for argv, _ in ARGVS]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    exits, called = json.loads(proc.stdout.splitlines()[-1])
    assert output.is_file()
    return exits, {tuple(key) for key in called}


def test_every_command_line_exits_as_expected(sweep):
    exits, _ = sweep
    assert [(argv, code) for (argv, _), code in zip(ARGVS, exits)] == ARGVS


def test_every_function_serves_a_command_or_is_exempt(sweep):
    _, called = sweep
    exempt = {name for names in EXEMPT.values() for name in names}
    unreached = [
        f"{file}:{line} {name} ({length} lines)"
        for (file, line), (name, length) in sorted(package_functions().items())
        if (file, line) not in called and name not in exempt
    ]
    assert unreached == [], "no command calls these functions:\n" + "\n".join(unreached)


def test_the_exemption_list_only_shrinks(sweep):
    _, called = sweep
    where: dict[str, list] = {}
    for key, (name, _) in package_functions().items():
        where.setdefault(name, []).append(key)
    stale = []
    for reason, names in EXEMPT.items():
        for name in names:
            keys = where.get(name, [])
            if len(keys) != 1:
                stale.append(f"{name} ({reason}): {len(keys)} definitions")
            elif keys[0] in called:
                stale.append(f"{name} ({reason}): a command calls it")
    assert stale == [], "take these off the exemption list:\n" + "\n".join(stale)
