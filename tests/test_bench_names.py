"""The benchmark reaches into the package by name: bench/spans.py wraps
functions and methods it looks up by module and attribute,
bench/micro.py calls rankmin.<attr> chains, and bench/workloads.py builds
its inputs and checks its passes through the harness, the solver
parameters and the verify helpers.  A rename or deletion in the package
would silently blind the tracer, break a micro row or fail a workload,
so every such name must still resolve and a workload pass still run, with
the bytes its fingerprint pins."""

import ast
import importlib.util
import os
import sys

import numpy as np

import rankmin

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def _assert_chains_resolve(filename, root, module):
    """Every dotted name root.a.b... in bench/filename, where root names
    module, resolves as an attribute chain of module."""
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    chains = []
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == root:
            chains.append(chain[::-1])
    assert chains
    for chain in chains:
        obj = module
        for attr in chain:
            assert hasattr(obj, attr), f"{root}." + ".".join(chain)
            obj = getattr(obj, attr)


def test_every_micro_attribute_chain_resolves():
    _assert_chains_resolve("micro.py", "rankmin", rankmin)


# The fingerprint of EscapeWorkload(0)'s pass, taken with numpy 2.4.6 and
# OpenBLAS 0.3.31.188.0.  A change that moves these bytes on purpose
# updates the pin and says which outputs moved.
ESCAPE_FINGERPRINT = "dfab3ebb19c951c85a6e0329222793b3853901da45d1af2a3f2dbc1c11ba02fa"


def test_workloads_build_and_an_escape_pass_is_clean(tmp_path):
    # a grid pass takes seconds, so the names it reads are resolved and
    # its inputs built, and only the escape workload runs a pass
    _assert_chains_resolve("workloads.py", "rankmin", rankmin)
    _assert_chains_resolve("workloads.py", "harness", rankmin.harness)
    workloads = _load_bench("workloads")
    grid = workloads.GridWorkload(0, str(tmp_path))
    assert grid.operations == len(grid.cells) + 1
    result = workloads.EscapeWorkload(0).run_pass()
    assert result.failures == []
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert result.fingerprint == ESCAPE_FINGERPRINT, (
        f"escape bytes moved: fingerprint {result.fingerprint}, pinned {ESCAPE_FINGERPRINT} "
        f"with numpy 2.4.6 and OpenBLAS 0.3.31.188.0; this run has numpy {np.__version__} "
        f"and {blas['name']} {blas['version']}")
