"""The benchmark's tracer (perfbench/tracing.py, read as it is) still finds
every function it wraps, and its sweep self-check holds on a small sweep: a
deleted or renamed traced name fails here instead of in a `--trace 1` run."""

import importlib
from pathlib import Path

import leopoldt
from leopoldt import lfunc
from leopoldt.ring import RingElem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve_and_sweep_self_check_holds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    for layer, names in tracing.TRACED_FUNCTIONS.items():
        module = getattr(leopoldt, layer)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{layer}: {missing} no longer resolve"
    for attr in (*tracing.RING_METHODS.values(), *tracing.RING_PROPERTIES):
        assert attr in vars(RingElem)

    primes = (5, 7, 11)
    originals = {name: getattr(lfunc, name) for name in tracing.TRACED_FUNCTIONS["lfunc"]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [lfunc.lambda_sum_cyclotomic(p) for p in primes]
    finally:
        tracer.uninstall()
    assert all(getattr(lfunc, name) is fn for name, fn in originals.items())
    metrics = tracer.metrics(1.0, leopoldt.padic.kappa_exponent_table.cache_info())
    thetas = sum((p - 3) // 2 for p in primes)
    assert all(rep.total is not None for rep in reports)
    assert metrics["ring.op_isotypic.calls"] == thetas
    assert workloads.Sweep().trace_problems(metrics, thetas) == []
