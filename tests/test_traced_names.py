"""The benchmark's tracer (``perfbench/spans.py``) patches hemoflow
functions and methods by name, listed in its ``TRACED``; a rename on
either side must fail here, not only in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import hemoflow

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_entries() -> list[tuple[str, str, str]]:
    """The (module, attribute, span name) entries of ``TRACED``, read from
    the file without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED list in {SPANS}")


@pytest.mark.parametrize("module, attr, span", traced_entries())
def test_traced_name_resolves(module, attr, span):
    # as the tracer looks it up: ``Class.method`` in the class's own
    # namespace, anything else as a module attribute
    importlib.import_module(f"hemoflow.{module}")
    mod = getattr(hemoflow, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), span
    else:
        assert callable(getattr(mod, attr, None)), span
