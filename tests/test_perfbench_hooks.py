"""The benchmark's tracer (perfbench/tracing.py) swaps each hooked attribute
in its owner's own namespace, so an attribute that is only inherited makes a
traced run fail. The tracer is read, not imported, so nothing is written
under perfbench/."""
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_hooked_attributes_live_in_their_owners():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    assert tracing.HOOKS
    for owner, attr, *_ in tracing.HOOKS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not its own attribute"
