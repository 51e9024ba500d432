"""The names the benchmark looks up in ``bagconsist``.

``perfbench/tracer.py`` wraps functions under the names their callers look
up, and ``perfbench/worker.py`` reads ``bagconsist.KERNEL`` and the
tracer ``bagconsist.oracle.EXHAUSTED`` on every run, so a renamed or
deleted name breaks every benchmark run. The tracer is loaded from its
file, as the worker loads it, and is not changed.
"""
import importlib
import importlib.util
import pathlib

import bagconsist

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(mod, cls):
    owner = importlib.import_module("bagconsist." + mod)
    return owner if cls is None else getattr(owner, cls)


def test_tracer_names_resolve_and_are_restored():
    tracer = _load_tracer()
    targets = [(_owner(mod, cls), attr)
               for _, mod, cls, attr in tracer.SPANS + tracer.COUNTED]
    raw = [vars(owner)[attr] for owner, attr in targets]
    assert hasattr(bagconsist, "KERNEL")
    assert hasattr(bagconsist.oracle, "EXHAUSTED")
    with tracer.Tracer():
        for (owner, attr), fn in zip(targets, raw):
            assert vars(owner)[attr] is not fn
    for (owner, attr), fn in zip(targets, raw):
        assert vars(owner)[attr] is fn
