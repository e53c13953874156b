"""The benchmark's tracer wraps package functions by name, from outside.

``perfbench/tracing.py`` lists them in ``TARGETS`` and looks each up as
``Tracer.install`` does: a method as ``cls.__dict__[meth]`` of a class in
its module, anything else as a module attribute. A renamed or deleted
target would otherwise show only in a traced benchmark run.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    listed = runpy.run_path(str(TRACING))["TARGETS"]
    assert listed
    for module_name, attr, _, _ in listed:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr, None)), (module_name, attr)
