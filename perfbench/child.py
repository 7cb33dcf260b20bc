"""Launcher for one `pba` command line in a fresh interpreter.

    python3 child.py RECORD TRACE -- <pba arguments>

Runs ``pba.cli.main`` on the given arguments exactly as the ``pba`` script
would, and writes a record (``marshal`` format) to RECORD when it ends.  With TRACE=0 it only
stamps the moment set-up ends (``pba.cli`` imported and, for ``pba run``, the
config loaded), counts calls into the registry models with a bare counter and
reads the peak resident set.  With TRACE=1 it also wraps the public functions
of each layer where their callers look them up and records one span per call:
(name, start, end, parent).  Spans stay in memory until the process ends.
Clock values are ``time.perf_counter()``, which on Linux reads the system-wide
monotonic clock, so the parent can place them on its own timeline.
"""

from __future__ import annotations

import functools
import marshal
import sys
import time
from array import array


class Tracer:
    """In-memory span recorder; a span's parent is the span open when it began.

    Spans live in flat arrays (name id, start, end, parent index), which the
    garbage collector does not scan however many calls are traced.
    """

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]

    def id(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.nid.append(self.id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` recording one span per call; the hooks run outside the span.

        ``open``/``close`` are inlined: this wrapper sits on every model call.
        """
        nid = self.id(name)
        nids, starts, ends, parents = self.nid, self.start, self.end, self.parent
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": list(self.ids),
            **{key: getattr(self, key).tobytes() for key in ("nid", "start", "end", "parent")},
        }

    def wrap_generator(self, name: str, fn, on_item):
        """One span per item drawn from the generator ``fn`` returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            seen: set = set()
            while True:
                idx = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                on_item(item, seen)
                yield item

        return traced


def _patch(module, attr: str, make):
    """Replace ``module.attr`` with ``make(original)`` if the attribute exists."""
    original = getattr(module, attr, None)
    if original is not None:
        setattr(module, attr, make(original))


def _import_cli(tracer: Tracer | None):
    """Import ``pba.cli``; when tracing, time it and the nested distributions import."""
    if tracer is None:
        import pba.cli

        return pba.cli
    import importlib.abc
    import importlib.util

    class _TimedExec(importlib.abc.MetaPathFinder):
        def find_spec(self, fullname, path, target=None):
            if fullname != "pba.distributions":
                return None
            sys.meta_path.remove(self)
            spec = importlib.util.find_spec(fullname)
            exec_module = spec.loader.exec_module

            def timed(module):
                idx = tracer.open("distributions.import")
                try:
                    exec_module(module)
                finally:
                    tracer.close(idx)

            spec.loader.exec_module = timed
            return spec

    finder = _TimedExec()
    sys.meta_path.insert(0, finder)
    idx = tracer.open("cli.import")
    try:
        import pba.cli
    finally:
        tracer.close(idx)
        if finder in sys.meta_path:
            sys.meta_path.remove(finder)
    return pba.cli


def _install_tracing(tracer: Tracer, record: dict):
    import pba.cli as cli
    import pba.distributions as distributions
    import pba.models as models
    import pba.propagate as propagate

    counts = record.setdefault("counts", {})
    counts.update(model_calls=0, boxes=0, distinct_boxes=0)
    model_args: set = set()
    optimizer_results: list = []
    record["optimizer"] = optimizer_results

    for name in ("load_config", "export_curve"):
        _patch(cli, name, lambda f, n=name: tracer.wrap(f"cli.{n}", f))
    for module in (cli, propagate):
        _patch(module, "build_pbox", lambda f: tracer.wrap("pbox.build", f))
        for name in ("psa_propagate", "propagate_mixed", "propagate_pboxes"):
            _patch(module, name, lambda f, n=name: tracer.wrap(f"propagate.{n}", f))
    _patch(propagate, "discretize_outer", lambda f: tracer.wrap("slicing.discretize", f))

    def on_box(item, seen):
        counts["boxes"] += 1
        key = tuple((iv.lo, iv.hi) for iv in item.intervals)
        if key not in seen:
            seen.add(key)
            counts["distinct_boxes"] += 1

    _patch(propagate, "focal_product", lambda f: tracer.wrap_generator("slicing.product", f, on_box))

    four_state = getattr(models.REGISTRY.get("four_state_life_expectancy"), "fn", None)

    def on_optimum(args, result):
        objective, box = args[0], args[1]
        sense = args[2] if len(args) > 2 else "min"
        code = getattr(objective, "__code__", None)
        cells = getattr(objective, "__closure__", None) or ()
        closure = dict(zip(code.co_freevars, (c.cell_contents for c in cells))) if code else {}
        context = None
        if getattr(closure.get("model"), "__wrapped__", None) is four_state and "names" in closure:
            context = {"fixed": dict(closure["fixed"]), "names": list(closure["names"])}
        optimizer_results.append({
            "sense": sense,
            "bounds": [[iv.lo, iv.hi] for iv in box.bounds],
            "value": result.value,
            "evaluations": result.evaluations,
            "converged": result.converged,
            "four_state": context,
        })

    _patch(propagate, "optimize_box", lambda f: tracer.wrap("optimize.box", f, on_result=on_optimum))

    def on_model_call(args):
        counts["model_calls"] += 1
        model_args.add(hash(tuple(args[0].values())))

    for name, entry in list(models.REGISTRY.items()):
        traced = tracer.wrap("models.call", entry.fn, on_call=on_model_call)
        models.REGISTRY[name] = type(entry)(traced, entry.param_names)

    empirical = propagate.EmpiricalPBox
    empirical.__init__ = tracer.wrap("propagate.assemble", empirical.__init__)
    spec = distributions.DistributionSpec
    spec.ppf = tracer.wrap("distributions.ppf", spec.ppf)
    for name in ("expected_interval", "choose"):
        _patch(cli, name, lambda f, n=name: tracer.wrap(f"decision.{n}", f))
    return model_args


def _install_counting():
    import pba.models as models

    calls = [0]

    def counted_model(fn):
        @functools.wraps(fn)
        def counted(params):
            calls[0] += 1
            return fn(params)

        return counted

    for name, entry in list(models.REGISTRY.items()):
        models.REGISTRY[name] = type(entry)(counted_model(entry.fn), entry.param_names)
    return calls


def _peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ``getrusage`` is no use here: Linux carries ``ru_maxrss`` across fork and
    exec, so it would report the parent's peak.  ``VmHWM`` starts afresh at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    record: dict = {"rc": None}
    tracer = Tracer() if trace else None
    try:
        cli = _import_cli(tracer)
        record["setup_end"] = time.perf_counter()  # replaced by the config load, if any

        def stamp(load):
            @functools.wraps(load)
            def stamped(*args, **kwargs):
                config = load(*args, **kwargs)
                record["setup_end"] = time.perf_counter()
                return config

            return stamped

        cli.load_config = stamp(cli.load_config)
        if tracer is None:
            calls = _install_counting()
        else:
            model_args = _install_tracing(tracer, record)
        main_span = tracer.open("cli.main") if tracer is not None else None
        try:
            record["rc"] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            record["rc"] = exc.code if isinstance(exc.code, int) else 2
        finally:
            if tracer is not None:
                tracer.close(main_span)
        if tracer is None:
            record["counts"] = {"model_calls": calls[0]}
        else:
            record["counts"]["distinct_model_args"] = len(model_args)
            record["spans"] = tracer.dump()
    finally:
        record["maxrss_kb"] = _peak_rss_kb()
        with open(record_path, "wb") as fh:
            marshal.dump(record, fh)
    return record["rc"] if isinstance(record["rc"], int) else 1


if __name__ == "__main__":
    sys.exit(main())
