"""One traced escape-certify pass.  bench/spans.py's hooks read solver
arguments by position (tangent_space_steps' max_iters is args[5]), so a
drifted argument breaks only a traced bench run unless a test runs one."""

from test_bench_names import ESCAPE_FINGERPRINT, _load_bench


def test_a_traced_escape_pass_sees_each_escape_and_moves_no_byte():
    spans, workloads = _load_bench("spans"), _load_bench("workloads")
    tracer = spans.Tracer()
    try:
        tracer.install(extra_modules=(workloads,))
        result = workloads.EscapeWorkload(0).run_pass()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert result.failures == []
    assert len(tracer.escapes) == 16
    # the hook reads the budget as args[5]; read from another argument it
    # would be 0 or fail, and every escape would count as exhausted
    assert not any(exhausted for _, exhausted, _, _ in tracer.escapes)
    # each escape retracts once, whichever way it leaves
    assert tracer.count("geometry.retract") == 16
    assert result.fingerprint == ESCAPE_FINGERPRINT
