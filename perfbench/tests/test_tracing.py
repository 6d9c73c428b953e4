"""The traced run leaves every engine function as it found it."""

import sys
import types

import pytest

from benchkit import harness, tracing


def _bindings() -> dict:
    """Every module-level and class-level attribute of the loaded
    ``repro`` modules, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            seen[(name, attribute)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in list(vars(value).items()):
                    seen[(name, attribute, member)] = id(inner)
    return seen


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_run_restores_engine_functions(workload):
    # Import everything the workload touches before taking the snapshot.
    harness.run(workload, seed=3, seconds=0.4, trace=False, nodes=200)
    before = _bindings()
    result = harness.run(workload, seed=3, seconds=0.4, trace=True,
                         nodes=200)
    assert result["correct"], result["detail"]["errors"]
    assert _bindings() == before


def test_wrappers_are_installed_and_record_spans():
    from repro import Database
    from repro.execution import kernels

    original = kernels.factorize
    tracer = tracing.LayerTracer()
    patcher = tracing.Patcher()
    db = Database()
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.execute("INSERT INTO t VALUES (1, 2), (1, 3), (2, 4)")
    tracing.install(tracer, patcher, [db.engine])
    try:
        assert kernels.factorize is not original
        rows = db.execute("SELECT a, COUNT(*) FROM t GROUP BY a").rows()
        db.execute("INSERT INTO t VALUES (3, 5)")
    finally:
        patcher.restore()
    assert kernels.factorize is original
    assert sorted(rows) == [(1, 2), (2, 1)]
    totals = tracer.totals()
    assert totals["calls"]["sql.parse"] == 2
    assert totals["calls"]["execution.aggregate"] == 1
    assert totals["rows"]["storage.insert"] == 1
    assert totals["calls"]["storage.write_lock_wait"] == 1
    assert set(totals["layer_self"]) <= set(tracing.LAYERS)


def test_self_time_excludes_children():
    tracer = tracing.LayerTracer()
    with tracer.span("outer", "runtime"):
        with tracer.span("inner", "kernels"):
            sum(range(20000))
    totals = tracer.totals()
    assert totals["self"]["outer"] == pytest.approx(
        totals["inclusive"]["outer"] - totals["inclusive"]["inner"])
    assert totals["self"]["inner"] == totals["inclusive"]["inner"]


def test_late_binding_of_a_wrapper_is_undone():
    from repro.execution import kernels

    original = kernels.group_ids
    patcher = tracing.Patcher()
    patcher.patch_function("repro.execution.kernels", "group_ids",
                           lambda fn: tracing.LayerTracer().wrap(
                               fn, "kernels.group_ids", "kernels"))
    late = types.ModuleType("repro._late_binder")
    late.group_ids = kernels.group_ids     # bound while wrapped
    sys.modules[late.__name__] = late
    try:
        assert late.group_ids is not original
        patcher.restore()
        assert late.group_ids is original
        assert kernels.group_ids is original
    finally:
        del sys.modules[late.__name__]
