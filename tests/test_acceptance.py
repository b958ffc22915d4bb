"""End-to-end acceptance checks.  Each test runs one verification criterion
at the full level and reports its PASS/FAIL line; `rankmin verify --level
full` runs the same suite from the command line."""

import numpy as np

from rankmin.verify import CRITERIA

# The determinism criterion's digest of the full fig1 preset's 250 files,
# taken with numpy 2.4.6 and OpenBLAS 0.3.31.188.0.  A change that moves
# these bytes on purpose updates the pin and says which outputs moved.
FIG1_DIGEST = "02de5cefe0a3cd6d078aad436f5510cc37453ac0a1c33993a90bafa23b1a2a3f"


def run_criterion(cid: str):
    res = CRITERIA[cid]("full")
    print(f"{'PASS' if res.passed else 'FAIL'} {cid}: {res.summary} [{res.seconds:.1f}s]")
    assert res.passed, f"{cid}: {res.summary}"
    return res


def test_criteria_are_listed_in_verdict_order():
    # the JSON verdict lists the criteria in this order
    assert list(CRITERIA) == ["trace_panels", "step_size_sweep", "local_rate", "global_window",
                              "lemma_suites", "geometry_oracles", "saddle_escape",
                              "determinism"]


def test_trace_panels():
    run_criterion("trace_panels")


def test_step_size_sweep():
    run_criterion("step_size_sweep")


def test_local_rate():
    run_criterion("local_rate")


def test_global_window():
    run_criterion("global_window")


def test_lemma_suites():
    run_criterion("lemma_suites")


def test_geometry_oracles():
    run_criterion("geometry_oracles")


def test_saddle_escape():
    run_criterion("saddle_escape")


def test_determinism():
    digest = run_criterion("determinism").details["digest"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert digest == FIG1_DIGEST, (
        f"fig1 bytes moved: digest {digest}, pinned {FIG1_DIGEST} with numpy 2.4.6 and "
        f"OpenBLAS 0.3.31.188.0; this run has numpy {np.__version__} and {blas['name']} "
        f"{blas['version']}")
