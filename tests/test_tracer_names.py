"""Every boundary that `perfbench/tracer.py` patches is defined where the
tracer looks for it.

The tracer replaces `vars(owner)[attr]` for each of its `layer_targets()`;
a method that is only inherited, or a name that a refactor dropped or
moved, is missing there, and a `--trace 1` run would fail on it.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = _tracer().layer_targets()
    assert len(targets) > 30
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name, _ in targets if attr not in vars(owner)]
    assert missing == []
    assert all(callable(vars(owner)[attr]) for owner, attr, _, _ in targets)
