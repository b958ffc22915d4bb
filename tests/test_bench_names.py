"""The benchmark reaches into the package by name: bench/spans.py wraps
functions and methods it looks up by module and attribute, and
bench/micro.py calls rankmin.<attr> chains.  A rename or deletion in the
package would silently blind the tracer or break a micro row, so every
such name must still resolve."""

import ast
import importlib.util
import os

import rankmin

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", os.path.join(BENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def _rankmin_chains(tree):
    """Every dotted name rankmin.a.b... in the tree, as its attribute list."""
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "rankmin":
            yield chain[::-1]


def test_every_micro_attribute_chain_resolves():
    with open(os.path.join(BENCH, "micro.py"), encoding="utf-8") as fh:
        chains = list(_rankmin_chains(ast.parse(fh.read())))
    assert chains
    for chain in chains:
        obj = rankmin
        for attr in chain:
            assert hasattr(obj, attr), "rankmin." + ".".join(chain)
            obj = getattr(obj, attr)
