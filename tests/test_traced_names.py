"""The names perfbench's tracer patches must exist in the package.

perfbench/tracing.py lists every traced function as a (module, dotted
attribute) pair in TRACED; Tracer.install looks each one up in the
module's (or class's) __dict__ and raises KeyError when it is gone. The
list is read from the file's source without running it.
"""

import ast
import pathlib

import pytest

import sgl

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACING}")


@pytest.mark.parametrize("module, attr", traced_names(), ids=".".join)
def test_traced_name_is_defined(module, attr):
    owner = getattr(sgl, module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = owner.__dict__[part]
    assert callable(owner.__dict__[leaf])
