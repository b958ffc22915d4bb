"""End-to-end acceptance checks.  Each test runs one verification criterion
at the full level and reports its PASS/FAIL line; `rankmin verify --level
full` runs the same suite from the command line."""

from rankmin.verify import CRITERIA


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
    run_criterion("determinism")
