"""Run one ``qaction`` command in this process with every layer call traced.

    python bench/tracer.py TRACE.json propagate --config CFG --out DIR --workers 1

Every public function of ``qaction.model``, ``propagator``, ``trajectory``,
``qfit``, ``asymptotics`` and ``chaos`` is replaced, in each module that
binds it by name, by a wrapper that records a span (function, layer, start,
end, parent, a few attributes). ``PolynomialPotential``'s evaluators are
counted rather than spanned, since they run millions of times. The whole
command is the root span ``cli.main``. Spans stay in memory and are written
to TRACE.json, with the counters and the command's exit code, when the
command ends. Nothing under ``src/`` is changed; the wrappers exist only in
this process, so the command must run with ``--workers 1`` for every layer
call to happen where they can see it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("model", "propagator", "trajectory", "qfit", "asymptotics", "chaos")
COUNTED_METHODS = {
    "derivative": "model.derivative_calls",
    "evaluate_points": "model.point_eval_calls",
    "gradient_points": "model.point_eval_calls",
    "hessian_points": "model.point_eval_calls",
}


class Recorder:
    """Spans and counters of one traced command."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, attrs]
        self.stack = []
        self.counters = {}

    def span(self, name: str, layer: str, func, attrs_of=None):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, layer, time.perf_counter(), None, self.stack[-1] if self.stack else None, {}]
            self.spans.append(record)
            self.stack.append(index)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                record[5]["error"] = type(exc).__name__
                raise
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
                if attrs_of is not None:
                    record[5].update(attrs_of(signature.bind(*args, **kwargs).arguments, result))

        return wrapper

    def counted(self, counter: str, func):
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return func(*args, **kwargs)

        return wrapper


def _decompose_attrs(args, result):
    grid = args["grid"]
    return {"k": int(args["k"]), "dim": grid.dim, "size": grid.size}


def _bvp_attrs(args, result):
    return {
        "dim": args["action"].dimension,
        "warm": args.get("init_path") is not None,
        "converged": bool(result is not None and result.converged),
    }


def _section_attrs(args, result):
    return {"crossings": 0 if result is None else int(result.n_points)}


ATTRS = {
    "spectral_decompose": _decompose_attrs,
    "solve_euclidean_bvp": _bvp_attrs,
    "generate_section": _section_attrs,
}


def install(recorder: Recorder):
    """Wrap the layers' public functions wherever ``qaction`` binds them."""
    modules = {name: importlib.import_module(f"qaction.{name}") for name in LAYERS}
    cli = importlib.import_module("qaction.cli")
    binders = list(modules.values()) + [cli, importlib.import_module("qaction")]
    for layer, module in modules.items():
        for name, func in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(func) or func.__module__ != module.__name__:
                continue
            wrapper = recorder.span(name, layer, func, ATTRS.get(name))
            for binder in binders:
                if vars(binder).get(name) is func:
                    setattr(binder, name, wrapper)
    pot = modules["model"].PolynomialPotential
    for method, counter in COUNTED_METHODS.items():
        setattr(pot, method, recorder.counted(counter, getattr(pot, method)))
    return cli


def main(argv) -> int:
    trace_path, command = Path(argv[0]), argv[1:]
    recorder = Recorder()
    cli = install(recorder)
    code = recorder.span("main", "cli", cli.main)(command)
    trace_path.write_text(json.dumps({"exit": code, "counters": recorder.counters, "spans": recorder.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
