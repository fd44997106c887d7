"""The benchmark's calls into the library, checked without writing anything
under perfbench/: its modules are read and run with exec, not imported.

The tracer (perfbench/tracing.py) swaps each hooked attribute in its owner's
own namespace, so an attribute that is only inherited makes a traced run
fail. Each workload (perfbench/workloads.py) calls the library the way the
benchmark does, so a changed signature fails here too."""
import sys
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    # registered while it runs: dataclasses look their module up by name
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_hooked_attributes_live_in_their_owners():
    tracing = _load("tracing")
    assert tracing.HOOKS
    for owner, attr, *_ in tracing.HOOKS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not its own attribute"


def test_workload_ops_answer_their_first_query():
    workloads = _load("workloads")
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        w = cls(1)
        w.setup()
        q = w.queries[0]
        report, _ = w.op(q)
        assert report.reachable == q.expected, name
