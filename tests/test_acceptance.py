"""End-to-end acceptance checks.  Each test runs one verification criterion
at the full level and reports its PASS/FAIL line; `rankmin verify --level
full` runs the same suite from the command line.  One more test runs the
whole suite at the quick level, the command line's default."""

import json
from dataclasses import replace

import numpy as np
import pytest

from rankmin import harness, verify
from rankmin.verify import CRITERIA, _hash_files

# Digests of written file sets (sha256 of the `<sha256>  <name>` lines in
# name order), taken with numpy 2.4.6 and OpenBLAS 0.3.31.188.0: the
# determinism criterion's full fig1 preset (250 files), and the fig2 PSD
# preset at one seed (42 files).  A change that moves these bytes on purpose
# updates the pin and says which outputs moved.
FIG1_DIGEST = "cee6ca8681f0fc9c3da8b8709310300d2257639c95e0e639e927831ebdfc556d"
FIG2_ONE_SEED_DIGEST = "f9d8e954acada60b9f7a39cc6ffc9f84b9814e8fbc91dafcab0ab3a0b712e075"


def pin_message(what: str, digest: str, pinned: str) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{what} bytes moved: digest {digest}, pinned {pinned} with numpy 2.4.6 and "
            f"OpenBLAS 0.3.31.188.0; this run has numpy {np.__version__} and {blas['name']} "
            f"{blas['version']}")


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


def test_verify_suite_prints_and_writes_the_verdict(monkeypatch, tmp_path, capsys):
    # two stub criteria stand in for the registered eight
    def stub(cid, passed):
        return lambda level: verify.CriterionResult(cid, passed, f"{level} run", {"k": 1}, 0.5)
    monkeypatch.setattr(verify, "CRITERIA", {"good": stub("good", True), "bad": stub("bad", False)})
    out = tmp_path / "verdict.json"
    verdict = verify.verify_suite(level="quick", out=str(out))
    assert capsys.readouterr().out == "PASS good: quick run [0.5s]\nFAIL bad: quick run [0.5s]\n"
    assert verdict["level"] == "quick" and verdict["all_passed"] is False
    assert [c["cid"] for c in verdict["criteria"]] == ["good", "bad"]
    assert json.loads(out.read_text()) == verdict
    monkeypatch.setattr(verify, "CRITERIA", {"good": stub("good", True)})
    assert verify.verify_suite(level="full")["all_passed"] is True
    with pytest.raises(ValueError, match="level"):
        verify.verify_suite(level="medium")


def test_verify_suite_passes_at_the_quick_level():
    # quick runs 3 seeds where full runs 10, through branches no full run takes
    assert verify.verify_suite("quick")["all_passed"]


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
    assert digest == FIG1_DIGEST, pin_message("fig1", digest, FIG1_DIGEST)


def test_fig2_one_seed_bytes_are_pinned(tmp_path):
    res = harness.run_experiment(replace(harness.preset_fig2(), seed_count=1),
                                 out_dir=str(tmp_path), jobs=1)
    _, digest = _hash_files(str(tmp_path), res.files)
    assert len(res.files) == 42
    assert digest == FIG2_ONE_SEED_DIGEST, pin_message("fig2", digest, FIG2_ONE_SEED_DIGEST)
