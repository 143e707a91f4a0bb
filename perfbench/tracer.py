"""Run one ncwishart CLI job with layer spans and counters attached.

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json JOB_ID ARGV...

The job runs through `ncwishart.cli.main(ARGV)` exactly as the CLI would,
writing the same report to stdout and exiting with the same code.  Layer
functions are wrapped from outside, by replacing the name in the *calling*
module's namespace (for example `cli.inverse_table` or `rmt.enum_snc`), so
only calls that cross a module boundary are recorded and the lru_cache
recursions inside a module are never wrapped.

Two kinds of record are kept in memory and written to OUT.json at exit:

* spans, for coarse calls: [name, start, end, parent index, job id];
* tallies, for calls made thousands of times (PolyC arithmetic, Fock
  operator application, numpy kernels): a call count and the seconds
  spent in the outermost call of each name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter
from pathlib import Path


def _required(owner, attr: str):
    """owner.attr; a name the program no longer has fails the traced job,
    so that a renamed layer function cannot make its metrics vanish
    unnoticed.  Update the wrapping in install() with the program."""
    try:
        return getattr(owner, attr)
    except AttributeError:
        where = getattr(owner, "__name__", type(owner).__name__)
        raise AttributeError(f"tracer: {where} has no {attr!r} to wrap") from None


def _keep_cache_api(wrapper, fn):
    """Callers such as `enum_snc.cache_clear()` must still work."""
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


class Tracer:
    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.depth: Counter = Counter()
        self.counters: Counter = Counter()
        self.gauges: dict[str, int] = {}

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [name, time.perf_counter(), None, parent, tracer.job_id]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()

        return _keep_cache_api(wrapper, fn)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a span wrapper."""
        setattr(owner, attr, self.span(name, _required(owner, attr)))

    def wrap_tally(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a tally wrapper."""
        setattr(owner, attr, self.tally(name, _required(owner, attr)))

    # -- tallies ----------------------------------------------------------

    def tally(self, name: str, fn):
        """Count every call; time only the outermost call of this name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.seconds[name] += time.perf_counter() - start
                tracer.depth[name] = 0

        return _keep_cache_api(wrapper, fn)

    def tally_generator(self, name: str, fn):
        """Time the work done inside next() of a streamed generator and
        count the items it yields."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    tracer.seconds[name] += time.perf_counter() - start
                    return
                tracer.seconds[name] += time.perf_counter() - start
                tracer.calls[name] += 1
                yield item

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "job": self.job_id,
            "spans": self.spans,
            "calls": self.calls,
            "seconds": self.seconds,
            "counters": self.counters,
            "gauges": self.gauges,
        }))


class _RandomShim:
    """numpy.random with every Generator's standard_normal draws timed."""

    def __init__(self, tracer: Tracer, random_module) -> None:
        self._tracer = tracer
        self._random = random_module

    def __getattr__(self, attr):
        return getattr(self._random, attr)

    def default_rng(self, *args, **kwargs):
        gen = self._random.default_rng(*args, **kwargs)
        return _GeneratorShim(self._tracer, gen)


class _GeneratorShim:
    def __init__(self, tracer: Tracer, gen) -> None:
        self._gen = gen
        self.standard_normal = tracer.tally("rmt.rng", gen.standard_normal)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class NumpyShim:
    """Forwards to numpy; times RNG draws (when `random` is set), matmul,
    einsum and kron under the layer's prefix.

    A matmul is a power product when an operand is the output of an
    earlier matmul (X^k = X^(k-1) X); any other matmul forms a Gram
    product from sampled matrices.  Flops are counted from the operand
    shapes: 2 per real multiply-add, 8 per complex one.
    """

    def __init__(self, tracer: Tracer, np, prefix: str, random: bool) -> None:
        self._np = np
        self._tracer = tracer
        self._prefix = prefix
        self._outputs: dict[int, weakref.ref] = {}
        self.random = _RandomShim(tracer, np.random) if random else np.random
        self.einsum = tracer.tally(f"{prefix}.trace_einsum", np.einsum)
        self.kron = self._kron
        self._gram = tracer.tally(f"{prefix}.gram", np.matmul)
        self._power = tracer.tally(f"{prefix}.power_matmul", np.matmul)
        self._timed_kron = tracer.tally(f"{prefix}.kron", np.kron)

    def __getattr__(self, attr):
        return getattr(self._np, attr)

    def _is_output(self, x) -> bool:
        ref = self._outputs.get(id(x))
        return ref is not None and ref() is x

    def matmul(self, a, b, *args, **kwargs):
        np = self._np
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        power = self._is_output(a) or self._is_output(b)
        out = (self._power if power else self._gram)(a, b, *args, **kwargs)
        if isinstance(out, np.ndarray):
            self._outputs[id(out)] = weakref.ref(out)
        if a_arr.ndim >= 2 and b_arr.ndim >= 2:
            batch = out.size // (out.shape[-1] * out.shape[-2]) if out.ndim >= 2 else 1
            m, k, n = a_arr.shape[-2], a_arr.shape[-1], b_arr.shape[-1]
            per = 8 if np.iscomplexobj(a_arr) or np.iscomplexobj(b_arr) else 2
            self._tracer.counters[f"{self._prefix}.matmul_flop"] += per * batch * m * k * n
        return out

    def _kron(self, a, b):
        tracer = self._tracer
        if tracer.depth["wick.apply"]:
            start = time.perf_counter()
            out = self._timed_kron(a, b)
            tracer.seconds["wick.kron_in_apply"] += time.perf_counter() - start
            return out
        return self._timed_kron(a, b)


def install(tracer: Tracer):
    """Wrap the layer functions; return a callable that reads the cache
    sizes into the tracer's gauges.  A name the program no longer has
    raises AttributeError, which fails the traced job."""
    import numpy as np

    # by module path: the package re-exports functions named like its modules
    cli, colored, families, halfperm, perms, polyc, rmt, wick = (
        importlib.import_module(f"ncwishart.{name}")
        for name in ("cli", "colored", "families", "halfperm", "perms", "polyc", "rmt", "wick")
    )

    # cli: the handler and the parse/render remainder of main()
    for attr in ("cmd_tables", "cmd_enumerate", "cmd_verify", "cmd_mc"):
        tracer.wrap(cli, attr, "cli.handler")

    # families
    for mod in (cli, colored, rmt):
        tracer.wrap(mod, "transition_matrix", "families.transition_matrix")
    tracer.wrap(cli, "inverse_table", "families.inverse_table")
    tracer.wrap(families.TransitionMatrix, "invert", "families.invert")
    for attr in ("series_P0", "series_P", "series_G", "series_G0"):
        tracer.wrap(cli, attr, "families.series")

    # polyc: fine-grained arithmetic; __radd__ and __rmul__ share the tally
    poly = polyc.PolyC
    for op, name in (("add", "polyc.add"), ("mul", "polyc.mul")):
        fn = tracer.tally(name, getattr(poly, f"__{op}__"))
        setattr(poly, f"__{op}__", fn)
        setattr(poly, f"__r{op}__", fn)
    tracer.wrap_tally(poly, "div_exact", "polyc.div_exact")

    # perms
    tracer.wrap(halfperm, "enum_nc", "perms.enum_nc")
    for mod in (cli, colored, rmt):
        tracer.wrap(mod, "enum_snc", "perms.enum_snc")
    for mod, name in ((cli, "perms.iter_snc_images"), (perms, "perms.snc_yielded")):
        mod.iter_snc_images = tracer.tally_generator(name, _required(mod, "iter_snc_images"))
    sweep = _required(perms, "set_partitions")

    def counted(blocks_iter, key):
        for blocks in blocks_iter:
            tracer.counters[key] += 1
            yield blocks

    def set_partitions(n):
        caller = sys._getframe(1).f_code.co_name
        return counted(sweep(n), f"perms.partitions_swept.{caller}")

    perms.set_partitions = set_partitions

    def count_kept(fn):
        """Add the size of each enum_nc result that was computed, not
        served from its cache."""
        cache_info = getattr(_required(perms, "enum_nc"), "cache_info", None)

        @functools.wraps(fn)
        def wrapper(n):
            misses = cache_info().misses if cache_info else None
            out = fn(n)
            if cache_info is None or cache_info().misses != misses:
                tracer.counters["perms.nc_kept"] += len(out)
            return out

        return wrapper

    halfperm.enum_nc = count_kept(halfperm.enum_nc)

    # halfperm
    for mod in (cli, colored):
        tracer.wrap(mod, "enum_ncc", "halfperm.enum_ncc")
    for mod in (cli, wick):
        tracer.wrap(mod, "enum_ncl", "halfperm.enum_ncl")
    for cls in (halfperm.CircularHalfPerm, halfperm.LinearHalfPerm):
        tracer.wrap_tally(cls, "__post_init__", "halfperm.diagrams_built")
    tracer.wrap_tally(cli, "cut", "halfperm.cut")
    tracer.wrap_tally(cli, "reassemble", "halfperm.reassemble")
    for mod in (cli, colored, rmt):
        tracer.wrap_tally(mod, "weighted_count", "halfperm.weighted_count")
    tracer.wrap(cli, "lineardecomp_check", "halfperm.lineardecomp")

    # dots
    tracer.wrap_tally(cli, "dot_encode", "dots.encode")
    tracer.wrap_tally(cli, "dot_decode", "dots.decode")
    tracer.wrap_tally(cli, "enum_dots", "dots.enum_dots")

    # colored
    tracer.wrap(cli, "enum_colored_ncc", "colored.enum_colored_ncc")

    # wick
    tracer.wrap(cli, "wick_report", "wick.wick_report")
    tracer.wrap_tally(_required(wick, "FockOperator"), "__call__", "wick.apply")

    # rmt
    sample_traces = _required(cli, "sample_traces")

    def counted_sample_traces(config):
        tracer.counters["rmt.matrices_sampled"] += config.num_samples * config.num_matrices
        return sample_traces(config)

    cli.sample_traces = tracer.span("rmt.sample_traces", counted_sample_traces)
    tracer.wrap(cli, "evaluate_statistics", "rmt.evaluate_statistics")
    for mod in (cli, rmt):
        tracer.wrap(mod, "predict_covariance", "rmt.predict_covariance")
    for mod, random in ((rmt, True), (wick, False)):
        _required(mod, "np")
        mod.np = NumpyShim(tracer, np, mod.__name__.rsplit(".", 1)[1], random)

    def gauges() -> None:
        def size(module):
            """Entries held by the module's lru_caches."""
            return sum(fn.cache_info().currsize for fn in vars(module).values()
                       if callable(getattr(fn, "cache_info", None))
                       and getattr(fn, "__module__", None) == module.__name__)

        tracer.gauges["families.poly_cache_entries"] = size(families)
        tracer.gauges["perms.cache_entries"] = size(perms)
        tracer.gauges["halfperm.cache_entries"] = size(halfperm)

    return gauges


def main(argv: list[str]) -> int:
    out, job_id, cli_argv = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer(job_id)
    read_gauges = install(tracer)
    cli = importlib.import_module("ncwishart.cli")

    try:
        code = tracer.span("cli.main", cli.main)(cli_argv)
    finally:
        sys.stdout.flush()
        read_gauges()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
