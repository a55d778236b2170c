"""Every function the traced benchmark wraps exists in ``crosstrait``.

``perfbench/tracing.py`` looks its ``TARGETS`` up by name when a traced run
starts; a renamed or deleted target fails here instead.  The file is parsed,
not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda x: x)
def test_tracing_target_resolves(module, attr):
    owner = importlib.import_module(f"crosstrait.{module}")
    if "." in attr:  # the tracer rebinds these as classmethods of the class
        cls_name, meth = attr.split(".")
        assert isinstance(vars(getattr(owner, cls_name)).get(meth), classmethod)
    else:
        assert callable(getattr(owner, attr))
