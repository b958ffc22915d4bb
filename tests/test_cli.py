"""Command-line behavior: verbs, output-directory resolution, overrides,
and the documented exit codes (0 ok, 1 failed check, 2 usage, 3 I/O)."""

import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rankmin.cli as cli
import rankmin.diagnostics as diagnostics
import rankmin.harness as harness
import rankmin.objectives as objectives
import rankmin.verify as verify
from test_acceptance import pin_message

CFG = """
[problem]
n = 6
r = 2
r_star = 2
kappa = 1

[solvers]
algorithms = projgd
eta = 0.4

[run]
seed_count = 2
max_iters = 30
"""

PROBE = """
[probe]
objective = quadratic
n = 3
r = 1
r_star = 1
kappa = 1
starts = 18
iters = 1500
"""


# sha256 of the two probe reports below, so a change to the census shows
PROBE_DIGEST = "0d62641832fef9d451d582bd1828a80083563e75a5956d9d63a677cc8e397946"
SENSING_PROBE_DIGEST = "0ef9434cb2b23c8873203d4cdd997c801cc8f1bdc6cc969da9a56ea40e66f055"


def write(path, text):
    # a lone surrogate "\udcXX" in text writes the raw byte XX
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return str(path)


def test_run_with_out_flag(tmp_path, capsys):
    cfg = write(tmp_path / "grid.ini", CFG)
    out = tmp_path / "results"
    assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
    assert (out / "manifest.json").is_file()
    assert "wrote" in capsys.readouterr().out


def test_run_out_from_environment(tmp_path, monkeypatch):
    cfg = write(tmp_path / "grid.ini", CFG)
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "root"))
    assert cli.main(["run", cfg, "--jobs", "1"]) == 0
    assert (tmp_path / "root" / "run" / "manifest.json").is_file()


def test_run_without_any_out_is_usage_error(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path / "grid.ini", CFG)
    monkeypatch.delenv(cli.OUT_ENV, raising=False)
    assert cli.main(["run", cfg, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    # the one line names all three sources
    assert err.count("\n") == 1 and err.startswith("error: no output directory")
    assert "--out" in err and "[output] directory" in err and "$RANKMIN_OUT" in err


def test_output_directory_order(tmp_path, monkeypatch):
    # --out, then [output] directory, then $RANKMIN_OUT/<name>
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "root"))
    named = write(tmp_path / "named.ini", CFG + f"\n[output]\ndirectory = {tmp_path / 'spec'}\n")
    unnamed = write(tmp_path / "grid.ini", CFG)
    for argv, where in ((["run", named, "--out", str(tmp_path / "flag")], "flag"),
                        (["run", named], "spec"), (["run", unnamed], "root/run")):
        assert cli.main(argv + ["--jobs", "1", "--format", "json"]) == 0
        found = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("manifest.json"))
        assert found == [f"{where}/manifest.json"]
        shutil.rmtree(tmp_path / where.split("/")[0])


def test_run_empty_output_directory_is_one_line_usage_error(tmp_path, capsys):
    # with --out given, the empty key used to pass, and the manifest's config
    # then read back with no directory
    cfg = write(tmp_path / "grid.ini", CFG + "\n[output]\ndirectory =\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: [output] directory is empty")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["run", "preset"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_one_line_usage_error(tmp_path, capsys, monkeypatch, verb, jobs):
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("grid ran"))
    target = write(tmp_path / "grid.ini", CFG) if verb == "run" else "fig1"
    out = tmp_path / "results"
    assert cli.main([verb, target, "--out", str(out), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "--jobs" in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "preset"])
def test_jobs_above_core_count_is_one_line_usage_error(tmp_path, capsys, monkeypatch, verb):
    # a process pool forks all of its workers on the first submit; the
    # bound is the CPUs this process may use, not all the host has
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("grid ran"))
    target = write(tmp_path / "grid.ini", CFG) if verb == "run" else "fig1"
    out = tmp_path / "results"
    assert cli.main([verb, target, "--out", str(out), "--jobs", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --jobs must lie in [1, 2], the usable core count (got 3)\n"
    assert not out.exists()


def test_run_missing_config_is_io_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


def test_run_bad_config_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path / "grid.ini", "[solvers]\netas = 0.4\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "etas" in capsys.readouterr().err


def test_run_checkpoint_stride_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path / "grid.ini", CFG + "\n[output]\ncheckpoint_stride = 1\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "checkpoint_stride" in capsys.readouterr().err


def test_run_config_without_section_header_is_one_line_error(tmp_path, capsys):
    cfg = write(tmp_path / "grid.ini", "n = 6\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "section" in err


@pytest.mark.parametrize("old, name", [("r_star = 2", "r_star"), ("kappa = 1", "kappa"),
                                       ("algorithms = projgd", "algorithms"),
                                       ("eta = 0.4", "eta"), ("formats = csv", "formats")],
                         ids=lambda v: v.split()[0])
def test_run_empty_list_is_usage_error(tmp_path, capsys, old, name):
    text = CFG + "\n[output]\nformats = csv\n"
    cfg = write(tmp_path / "grid.ini", text.replace(old, f"{name} ="))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{name} needs at least one value" in err
    assert not (tmp_path / "o").exists()


def test_run_empty_format_flag_is_usage_error(tmp_path, capsys):
    # an empty flag is read as the empty key formats =, not as no flag
    cfg = write(tmp_path / "grid.ini", CFG)
    for formats in (",", ""):
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1",
                         "--format", formats]) == 2
        err = capsys.readouterr().err
        assert err == "error: formats needs at least one value\n"
        assert not (tmp_path / "o").exists()


def test_format_flag_parses_as_the_formats_key(tmp_path):
    # case and separators as [output] formats accepts them
    flag, key = tmp_path / "flag", tmp_path / "key"
    assert cli.main(["run", write(tmp_path / "grid.ini", CFG), "--out", str(flag),
                     "--jobs", "1", "--format", "CSV svg"]) == 0
    cfg = write(tmp_path / "key.ini", CFG + "\n[output]\nformats = CSV svg\n")
    assert cli.main(["run", cfg, "--out", str(key), "--jobs", "1"]) == 0
    names = sorted(p.name for p in flag.iterdir())
    assert names == sorted(p.name for p in key.iterdir())
    assert "eta_sweep.csv" in names and "panel_k1_rs2.svg" in names
    assert "manifest.json" not in names
    assert all((flag / n).read_bytes() == (key / n).read_bytes() for n in names)


@pytest.mark.parametrize("old, new, name", [("kappa = 1", "kappa = inf", "kappa"),
                                             ("eta = 0.4", "eta = nan", "eta")])
def test_run_non_finite_config_is_usage_error(tmp_path, capsys, old, new, name):
    cfg = write(tmp_path / "grid.ini", CFG.replace(old, new))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{name} must be finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("solvers, extra, needle", [
    ("projgd", "diverge_threshold = -1", "diverge_threshold must be positive"),
    ("pprojgd", "[pprojgd]\nepsilon = -1", "pprojgd.epsilon must be positive"),
    # eta_t * epsilon_t underflows to zero: the budget is unbounded
    ("pprojgd\neta = 5e-324", "", "pprojgd.max_tangent_iters exceeds the cap of 1000000"),
    # eta_t = eta: a budget of 1e302
    ("pprojgd\neta = 1e-300", "", "pprojgd.max_tangent_iters exceeds the cap of 1000000"),
    # ceil(1/(sqrt(9.9e-7))**2) = 1010102
    ("pprojgd", "[pprojgd]\nepsilon = 9.9e-7",
     "pprojgd.max_tangent_iters exceeds the cap of 1000000"),
    # 1/(sqrt(1e-320))**2 overflows to inf
    ("pprojgd", "[pprojgd]\nepsilon = 1e-320",
     "pprojgd.max_tangent_iters exceeds the cap of 1000000"),
    ("projgd", "max_iters = 30\udcff", "grid.ini: not UTF-8 text (invalid start byte)"),
], ids=("diverge_threshold", "pprojgd_epsilon", "pprojgd_underflow", "pprojgd_derived_budget",
        "pprojgd_budget", "pprojgd_huge_budget", "not_utf8"))
def test_run_out_of_range_value_is_one_line_usage_error(tmp_path, capsys, monkeypatch,
                                                        solvers, extra, needle):
    # validate rejects each before any run; solvers replaces the algorithms
    # line of CFG and may set eta too (the default is 0.4), and extra lands
    # in the last section of CFG, [run], or opens its own
    _forbid_operator_allocation(monkeypatch)
    text = CFG.replace("algorithms = projgd\neta = 0.4", f"algorithms = {solvers}")
    cfg = write(tmp_path / "grid.ini", f"{text}{extra}\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, flags", [
    (f"master_seed = 1{'0' * 400}", []),
    (f"master_seed = {2 ** 63}", []),
    # with seed_count = 2 the second seed is 2**63
    (f"master_seed = {2 ** 63 - 1}", []),
    ("master_seed = -1", []),
    ("", ["--seed", "-1"]),
], ids=("huge_seed", "master_seed_2_63", "last_seed_2_63", "negative_seed", "negative_flag"))
def test_run_seed_out_of_range_is_one_line_usage_error(tmp_path, capsys, monkeypatch,
                                                       extra, flags):
    # validate bounds every seed to [0, 2**63) before any run starts; the
    # --seed override reaches validate inside run_experiment
    monkeypatch.setattr(harness, "generate_sensing", lambda *a, **k: pytest.fail("a run started"))
    cfg = write(tmp_path / "grid.ini", f"{CFG}{extra}\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "must lie in [0, 2**63)" in err
    assert not (tmp_path / "o").exists()
    # the largest seeds in range pass
    spec = harness.parse_spec_text(f"{CFG}master_seed = {2 ** 63 - 2}\n")
    assert spec.resolved_seeds() == (2 ** 63 - 2, 2 ** 63 - 1)


@pytest.mark.parametrize("algo", ["projgd", "fgd", "scaledgd", "precgd", "pprojgd"])
def test_huge_step_size_ends_the_run_as_diverged(tmp_path, capsys, algo):
    text = (CFG.replace("algorithms = projgd", f"algorithms = {algo}")
            .replace("eta = 0.4", "eta = 1e200").replace("max_iters = 30", "max_iters = 5"))
    cfg = write(tmp_path / "grid.ini", text)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "eta_sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",diverged") for row in rows)


def _forbid_operator_allocation(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("an oversized spec got past validation")
    for module, name in ((harness, "run_experiment"), (harness, "generate_sensing"),
                         (objectives, "generate_sensing"),
                         (cli, "landscape_probe"), (diagnostics, "landscape_probe")):
        monkeypatch.setattr(module, name, fail)


# the last case's m*n*n has about 7,500 digits, past the 4,300 that int-to-str
# allows, so the message prints the parsed inputs, not the product
@pytest.mark.parametrize("old, new", [("n = 6", "n = 100000"),
                                      ("kappa = 1", "kappa = 1\nm_factor = 100000000"),
                                      ("n = 6\nr = 2", "n = {0}\nr = {0}\nm_factor = {0}"
                                                       .format(10 ** 1500))],
                         ids=("n", "m_factor", "past_digit_limit"))
def test_run_oversized_operators_is_one_line_usage_error(tmp_path, capsys, monkeypatch, old, new):
    _forbid_operator_allocation(monkeypatch)
    cfg = write(tmp_path / "grid.ini", CFG.replace(old, new))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "64 MiB" in err
    assert not (tmp_path / "o").exists()


# the last case's 2 x (10**4300 - 1) runs pass the digit limit of int-to-str
@pytest.mark.parametrize("old, new", [
    ("seed_count = 2", "seed_count = 1000000000"),
    ("max_iters = 30", "max_iters = 10000000"),
    ("projgd\neta = 0.4\n\n[run]\nseed_count = 2",
     "projgd fgd\neta = 0.4\n\n[run]\nseed_count = " + "9" * 4300),
], ids=("seed_count", "max_iters", "past_digit_limit"))
def test_run_oversized_grid_is_one_line_usage_error(tmp_path, capsys, monkeypatch, old, new):
    # runs x max_iters is counted from the list lengths; neither the seed
    # tuple nor the grid is ever built
    _forbid_operator_allocation(monkeypatch)
    monkeypatch.setattr(harness.ExperimentSpec, "resolved_seeds",
                        lambda self: pytest.fail("the seed tuple was built"))
    cfg = write(tmp_path / "grid.ini", CFG.replace(old, new))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"exceed the cap of {harness.MAX_GRID_ITERATIONS} iterations" in err
    assert not (tmp_path / "o").exists()


def test_probe_oversized_operators_is_one_line_usage_error(tmp_path, capsys, monkeypatch):
    _forbid_operator_allocation(monkeypatch)
    text = PROBE.replace("objective = quadratic", "objective = sensing") + "m_factor = 1000000\n"
    cfg = write(tmp_path / "probe.ini", text)
    assert cli.main(["probe", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "64 MiB" in err


def test_seed_and_format_overrides(tmp_path):
    cfg = write(tmp_path / "grid.ini", CFG)
    out = tmp_path / "results"
    rc = cli.main(["run", cfg, "--out", str(out), "--seed", "7",
                   "--format", "csv", "--jobs", "1"])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert "projgd_k1_rs2_eta0.4_s7.csv" in names
    assert "projgd_k1_rs2_eta0.4_s8.csv" in names
    assert not [n for n in names if n.endswith((".svg", ".json"))]


def test_bad_format_override(tmp_path, capsys):
    cfg = write(tmp_path / "grid.ini", CFG)
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--format", "csv,png"])
    assert rc == 2
    assert "png" in capsys.readouterr().err


def test_preset_verb(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.PRESETS, "tinytest", lambda: harness.ExperimentSpec(
        n=6, r=2, r_star=(2,), kappa=(1.0,), algorithms=("projgd",), etas=(0.4,),
        seed_count=1, max_iters=20))
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    assert cli.main(["preset", "tinytest", "--jobs", "1"]) == 0
    assert (tmp_path / "tinytest" / "manifest.json").is_file()


def test_unknown_preset_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["preset", "fig9"])
    assert exc.value.code == 2


def test_plot_rerenders(tmp_path, capsys):
    cfg = write(tmp_path / "grid.ini", CFG)
    out = tmp_path / "results"
    assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
    svgs = sorted(p.name for p in out.iterdir() if p.suffix == ".svg")
    for name in svgs:
        (out / name).unlink()
    assert cli.main(["plot", str(out)]) == 0
    assert "rendered" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir() if p.suffix == ".svg") == svgs


def test_plot_grid_without_csvs_is_one_line_usage_error(tmp_path, capsys, monkeypatch):
    # the panels come from the run CSVs, so a grid written without them
    # is refused before any CSV is opened
    cfg = write(tmp_path / "grid.ini", CFG)
    out = tmp_path / "results"
    assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1", "--format", "svg,json"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness, "read_trace_csv", lambda p: pytest.fail("opened a CSV"))
    assert cli.main(["plot", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no csv format" in err


def test_plot_without_manifest_is_io_error(tmp_path):
    assert cli.main(["plot", str(tmp_path)]) == 3


def _corrupt_manifest_text(out):
    (out / "manifest.json").write_text('{"config": "[run]\\n", "runs": [')


def _corrupt_manifest_config(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["config"]
    (out / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_manifest_runs(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["runs"]
    (out / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_run_csv(out):
    path = out / harness.run_filename("projgd", 1.0, 2, 0.4, 0)
    lines = path.read_text().split("\n")
    lines[3] = lines[3].replace(",", ",abc", 1)
    path.write_text("\n".join(lines))


def _corrupt_run_entry(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["runs"][0]["algo"]
    (out / "manifest.json").write_text(json.dumps(manifest))


def _drop_run_entry(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["runs"][1]
    (out / "manifest.json").write_text(json.dumps(manifest))


def _empty_run_csv(out):
    (out / harness.run_filename("projgd", 1.0, 2, 0.4, 1)).write_text("")


def _short_run_row(out):
    path = out / harness.run_filename("projgd", 1.0, 2, 0.4, 0)
    lines = path.read_text().split("\n")
    lines[1] = ",".join(lines[1].split(",")[:3])
    path.write_text("\n".join(lines))


def _overflowing_run_entry(key, literal):
    """Set key of the first run entry to a JSON number literal that
    overflows a float (1e400 loads as inf) or an int-to-float cast."""
    def corrupt(out):
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["runs"][0][key] = "OVERFLOW"
        text = json.dumps(manifest).replace('"OVERFLOW"', literal)
        (out / "manifest.json").write_text(text)
    return corrupt


@pytest.mark.parametrize("corrupt, needle", [
    (_corrupt_manifest_text, "not JSON"),
    (_corrupt_manifest_config, "'config'"),
    (_corrupt_manifest_runs, "'runs'"),
    (_corrupt_run_csv, "could not convert"),
    (_corrupt_run_entry, "bad run entry"),
    (_drop_run_entry, "no run for projgd_k1_rs2_eta0.4_s1.csv"),
    (_empty_run_csv, "no rel_err values"),
    (_short_run_row, "row 1 has 3 fields, the header "),
    (_overflowing_run_entry("kappa", "1e400"), "bad run entry"),
    (_overflowing_run_entry("kappa", "-1e400"), "bad run entry"),
    (_overflowing_run_entry("eta", "1" + "0" * 400), "bad run entry"),
], ids=["manifest_not_json", "manifest_without_config", "manifest_without_runs",
        "csv_not_a_number", "run_entry_without_algo", "run_missing_from_grid",
        "csv_empty", "csv_short_row", "run_entry_kappa_1e400", "run_entry_kappa_minus_1e400",
        "run_entry_eta_10_400"])
def test_plot_bad_directory_is_one_line_usage_error(tmp_path, capsys, corrupt, needle):
    cfg = write(tmp_path / "grid.ini", CFG)
    out = tmp_path / "results"
    assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
    capsys.readouterr()
    corrupt(out)
    assert cli.main(["plot", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_plot_after_failed_grid_is_io_error(tmp_path, monkeypatch, capsys):
    # a grid that dies mid-way keeps the CSVs it wrote but has no manifest
    cfg = write(tmp_path / "grid.ini", CFG)
    out = tmp_path / "results"
    execute = harness._execute_one
    calls = []

    def failing_second(task):
        calls.append(task)
        if len(calls) == 2:
            raise RuntimeError("run failed")
        return execute(task)

    monkeypatch.setattr(harness, "_execute_one", failing_second)
    with pytest.raises(RuntimeError):
        cli.main(["run", cfg, "--out", str(out), "--jobs", "1"])
    assert sorted(p.name for p in out.iterdir()) == [harness.run_filename("projgd", 1.0, 2, 0.4, 0)]
    assert cli.main(["plot", str(out)]) == 3
    assert "manifest.json" in capsys.readouterr().err


def test_verify_exit_codes(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "verify_suite", lambda level, out: {"all_passed": True})
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr(cli, "verify_suite", lambda level, out: {"all_passed": False})
    assert cli.main(["verify", "--level", "full", "--out", str(tmp_path / "v.json")]) == 1


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=("umask022", "umask077"))
def test_written_files_take_their_mode_from_the_umask(tmp_path, monkeypatch, umask, mode):
    # 0666 less the umask, as open() creates a file
    monkeypatch.setattr(verify, "CRITERIA", {})
    cfg = write(tmp_path / "grid.ini", CFG)
    probe = write(tmp_path / "probe.ini", PROBE.replace("starts = 18", "starts = 1"))
    old = os.umask(umask)
    try:
        assert cli.main(["run", cfg, "--out", str(tmp_path / "grid"), "--jobs", "1"]) == 0
        assert cli.main(["verify", "--out", str(tmp_path / "verdict.json")]) == 0
        assert cli.main(["probe", probe, "--out", str(tmp_path / "report.json")]) == 0
    finally:
        os.umask(old)
    grid = sorted((tmp_path / "grid").iterdir())
    assert {p.suffix for p in grid} == {".csv", ".svg", ".json"}
    for path in grid + [tmp_path / "verdict.json", tmp_path / "report.json"]:
        assert path.stat().st_mode & 0o777 == mode, path.name


def test_probe_report(tmp_path):
    cfg = write(tmp_path / "probe.ini", PROBE)
    out = tmp_path / "probe.json"
    assert cli.main(["probe", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["instance"]["objective"] == "quadratic"
    pts = report["points"]
    assert pts and sum(p["cluster_size"] for p in pts) == 18
    best = pts[0]
    assert best["classification"] == "second-order-minimizer"
    assert best["rel_err_to_truth"] < 1e-6
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PROBE_DIGEST, pin_message("quadratic probe report", digest, PROBE_DIGEST)


def test_probe_report_on_sensing(tmp_path):
    # this instance also has a spurious second-order minimizer (f = 0.128,
    # 4 of the 18 starts), so only the best point is pinned down
    text = PROBE.replace("objective = quadratic", "objective = sensing").replace(
        "iters = 1500", "iters = 400")
    cfg = write(tmp_path / "probe.ini", text)
    out = tmp_path / "probe.json"
    assert cli.main(["probe", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["instance"]["objective"] == "sensing"
    pts = report["points"]
    assert sum(p["cluster_size"] for p in pts) == 18
    best = pts[0]
    assert best["classification"] == "second-order-minimizer"
    assert best["rel_err_to_truth"] < 1e-6
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SENSING_PROBE_DIGEST, pin_message("sensing probe report", digest,
                                                       SENSING_PROBE_DIGEST)


def test_probe_stdout_default(tmp_path, capsys):
    cfg = write(tmp_path / "probe.ini", PROBE)
    assert cli.main(["probe", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["points"]


def test_probe_unknown_key(tmp_path, capsys):
    cfg = write(tmp_path / "probe.ini", "[probe]\nnn = 3\n")
    assert cli.main(["probe", cfg]) == 2
    assert "nn" in capsys.readouterr().err


@pytest.mark.parametrize("text, needle", [
    (PROBE.replace("\nn = 3\n", "\nn = 5\n"), "n <= 4"),
    (PROBE.replace("\nr = 1\n", "\nr = 3\n"), "r <= 2"),
    (PROBE.replace("\nr_star = 1\n", "\nr_star = 2\n"), "r_star <= r"),
    (PROBE.replace("\nr_star = 1\n", "\nr_star = 0\n"), "r_star <= r"),
    (PROBE.replace("\nstarts = 18\n", "\nstarts = 0\n"), "starts"),
    (PROBE.replace("\niters = 1500\n", "\niters = 0\n"), "iters"),
    ("n = 3\n", "section"),
    (PROBE + "n = 3\n", "already exists"),
    (PROBE.replace("\nkappa = 1\n", "\nkappa = 0.5\n"), "kappa"),
    (PROBE.replace("\nkappa = 1\n", "\nkappa = inf\n"), "kappa"),
    (PROBE.replace("objective = quadratic", "objective = sensing") + "m_factor = 0\n",
     "m_factor"),
    (PROBE + "eps = nan\n", "eps"),
    (PROBE + "eps = inf\n", "eps"),
    (PROBE + "eps = 0\n", "eps"),
    (PROBE + "eps = -1\n", "eps"),
    (PROBE + "gamma = nan\n", "gamma"),
    (PROBE + "gamma = inf\n", "gamma"),
    (PROBE + "gamma = -1\n", "gamma"),
    (PROBE + "psd = true\n", "psd"),
    (PROBE + "m_factor = 3\n", "m_factor needs objective = sensing"),
    (PROBE + "m_factor = 65536\n", "m_factor needs objective = sensing"),
    (PROBE + "budget = 100\n", "budget"),
    (PROBE + "seed = 18446744073709551616\n", "seed"),
    (PROBE + "seed = -1\n", "seed"),
    (PROBE.replace("\nn = 3\n", "\nn = 3\udcff\n"),
     "probe.ini: not UTF-8 text (invalid start byte)"),
], ids=["n5", "r3", "r_star_above_r", "r_star0", "starts0", "iters0", "no_section",
        "duplicate_key", "kappa_below_1", "kappa_inf", "m_factor0", "eps_nan", "eps_inf",
        "eps0", "eps_negative", "gamma_nan", "gamma_inf", "gamma_negative", "psd_quadratic",
        "m_factor_quadratic", "m_factor_quadratic_at_cap", "budget_key", "seed_2_64",
        "seed_negative", "not_utf8"])
def test_probe_bad_file_is_one_line_usage_error(tmp_path, capsys, monkeypatch, text, needle):
    # every rule rejects the file before any instance is drawn
    _forbid_operator_allocation(monkeypatch)
    cfg = write(tmp_path / "probe.ini", text)
    assert cli.main(["probe", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err


def test_probe_budget_guard(tmp_path, capsys):
    # 18 starts x (10^6 + 506) planned evaluations exceed the fixed cap
    cfg = write(tmp_path / "probe.ini", PROBE.replace("iters = 1500", "iters = 1000000"))
    assert cli.main(["probe", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"budget of {diagnostics.MAX_PROBE_EVALUATIONS}" in err


def test_console_script_help():
    # the child imports the same rankmin as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c",
                           "import rankmin.cli, sys; sys.exit(rankmin.cli.main(['--help']))"],
                          capture_output=True, text=True, env=env)
    # argparse exits 0 on --help
    assert proc.returncode == 0
    for verb in ("run", "preset", "plot", "verify", "probe"):
        assert verb in proc.stdout


@pytest.mark.parametrize("old, new, name", [
    ("r_star = 2", "r_star = 2 1 2", "r_star"),
    ("kappa = 1", "kappa = 1 1.0", "kappa"),
    ("algorithms = projgd", "algorithms = projgd fgd projgd", "algorithms"),
    ("eta = 0.4", "eta = 0.4 0.4", "eta"),
], ids=lambda v: v.split()[0])
def test_run_repeated_value_is_one_line_usage_error(tmp_path, capsys, monkeypatch, old, new, name):
    # a repeated value would run a cell twice under one CSV name
    monkeypatch.setattr(harness, "generate_sensing", lambda *a, **k: pytest.fail("a run started"))
    cfg = write(tmp_path / "grid.ini", CFG.replace(old, new))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {name} lists ")
    assert err.endswith(" more than once\n")
    assert not (tmp_path / "o").exists()


_INSTANCE = {"n": "3", "r": "1", "r_star": "1", "kappa": "1", "m_factor": "3", "seed": "0"}


@pytest.mark.parametrize("key, value", [
    ("r_star", "2"), ("r_star", "0"), ("kappa", "0.5"), ("kappa", "inf"), ("m_factor", "0"),
    ("m_factor", "1000000"), ("seed", "-1"), ("seed", str(2 ** 63)),
], ids=("r_star_above_r", "r_star0", "kappa_below_1", "kappa_inf", "m_factor0",
        "oversized_operators", "seed_negative", "seed_2_63"))
def test_probe_and_spec_file_share_each_instance_rule(tmp_path, capsys, monkeypatch, key, value):
    # one bad instance value, written once as a one-cell grid and once as a
    # probe, gives the same exit code and error line
    _forbid_operator_allocation(monkeypatch)
    instance = dict(_INSTANCE, **{key: value})
    seed = instance.pop("seed")
    problem = "".join(f"{k} = {v}\n" for k, v in instance.items())
    spec = write(tmp_path / "grid.ini",
                 f"[problem]\n{problem}[run]\nmaster_seed = {seed}\nseed_count = 1\n")
    probe = write(tmp_path / "probe.ini", f"[probe]\nobjective = sensing\n{problem}seed = {seed}\n")
    errs = []
    for argv in (["run", spec, "--out", str(tmp_path / "o"), "--jobs", "1"], ["probe", probe]):
        assert cli.main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].count("\n") == 1 and errs[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


# edge values for the config-file property, per parser: typed (0, -1, nan,
# inf, 1e308, 10**400, and for integers 10**4000, whose products pass the
# 4,300 digits that int-to-str allows) and, now and then, empty, repeated or
# of the wrong type; a list value may also be empty or repeat a token
_HUGE = "1" + "0" * 400
_INTS = (("0", "1", "2", "3", "-1", _HUGE, "1" + "0" * 4000), ("", "1 1", "1e308", "nan", "x"))
_FLOATS = (("0", "1", "0.4", "2", "-1", "nan", "inf", "1e308", "1e400", _HUGE), ("", "1 1", "x"))
_WORDS = ((*harness.ALGORITHMS, "csv", "svg", "json", "quadratic", "sensing", "x"), ("",))
_EDGES = {int: _INTS, float: _FLOATS, str: _WORDS,
          harness._parse_bool: (("true", "false"), ("", "maybe")),
          harness._parse_ints: _INTS, harness._parse_floats: _FLOATS, harness._parse_words: _WORDS}
_LIST_PARSERS = (harness._parse_ints, harness._parse_floats, harness._parse_words)
# true about one time in ten: an unknown section or key, a badly typed value,
# a byte that is not UTF-8
_RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def _config_texts(draw, schema):
    """INI text over schema's sections and keys, now and then with an
    unknown section or key or a byte that is not UTF-8."""
    lines = ["[bogus]"] if draw(_RARELY) else []
    for section in draw(st.lists(st.sampled_from(list(schema)), unique=True)):
        parsers = schema[section]
        lines.append(f"[{section}]")
        lines += ["bogus = 1"] if draw(_RARELY) else []
        for key in draw(st.lists(st.sampled_from(list(parsers)), unique=True)):
            typed, wrong = _EDGES[parsers[key]]
            tokens = st.sampled_from(wrong if draw(_RARELY) else typed)
            if parsers[key] in _LIST_PARSERS:
                lines.append(f"{key} = {' '.join(draw(st.lists(tokens, max_size=3)))}")
            else:
                lines.append(f"{key} = {draw(tokens)}")
    lines += ["\udcff"] if draw(_RARELY) else []
    return "\n".join(lines) + "\n"


def _validate_only(spec, out_dir=None, jobs=1):
    spec.validate()
    return harness.RunResult(out_dir=out_dir, files=[])


@pytest.mark.parametrize("verb, schema", [("run", harness._SCHEMA), ("probe", cli._PROBE_SCHEMA)])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_file_exits_with_at_most_one_error_line(tmp_path, monkeypatch, verb, schema,
                                                           data):
    # no run starts: the grid only validates, and the census finds nothing
    monkeypatch.setattr(harness, "run_experiment", _validate_only)
    monkeypatch.setattr(cli, "landscape_probe", lambda *a, **k: [])
    cfg = write(tmp_path / "config.ini", data.draw(_config_texts(schema)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([verb, cfg, "--out", str(tmp_path / "o")])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


_ONE_CELL = """
[problem]
n = 3
r = 1
r_star = 1
kappa = 1
m_factor = 3

[solvers]
algorithms = projgd
eta = {etas}

[run]
seed_count = 1
max_iters = {iters}

[output]
formats = csv svg
"""
_ETAS = st.floats(0.0, 1e300, exclude_min=True)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(eta=_ETAS, data=st.data(), iters=st.integers(1, 5))
def test_any_step_sizes_draw_their_panels(tmp_path, eta, data, iters):
    # a real one-cell run: a sweep axis over two adjacent floats, or a trace
    # whose error moves by an ulp, gives a range too narrow to tick unwidened
    other = data.draw(st.one_of(st.none(), _ETAS, st.just(math.nextafter(eta, math.inf))))
    etas = list(dict.fromkeys(e for e in (eta, other) if e is not None))
    cfg = write(tmp_path / "grid.ini",
                _ONE_CELL.format(etas=" ".join(map(repr, etas)), iters=iters))
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
    svgs = sorted(p.name for p in out.iterdir() if p.suffix == ".svg")
    assert svgs == ["panel_k1_rs1.svg"] + (["sweep_k1_rs1.svg"] if len(etas) == 2 else [])


def test_step_sizes_at_the_top_of_the_floats_draw_their_panels(tmp_path):
    # the sweep's near-flat x range cannot widen above the largest float
    cfg = write(tmp_path / "grid.ini", _ONE_CELL.format(
        etas="1.7976931348623155e308 1.7976931348623157e308", iters=5))
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
    svgs = sorted(p.name for p in out.iterdir() if p.suffix == ".svg")
    assert svgs == ["panel_k1_rs1.svg", "sweep_k1_rs1.svg"]


# values a run entry of the manifest may hold after a bad edit; json writes
# the infinities as Infinity, which loads as 1e400 does
_JSON_EDGES = (0, -1, 1.5, 10 ** 400, float("inf"), float("-inf"), float("nan"),
               "", "x", None, True, [], {})
_GRID_EDITS = ("config", "run_entry", "csv_truncate", "csv_drop_column", "csv_cell", "delete")


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    """One small grid directory: 2 step sizes x 2 seeds of 5 iterations."""
    root = tmp_path_factory.mktemp("tiny_grid")
    text = CFG.replace("eta = 0.4", "eta = 0.4 0.6").replace("max_iters = 30", "max_iters = 5")
    cfg = write(root / "grid.ini", text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", cfg, "--out", str(root / "out"), "--jobs", "1"]) == 0
    return root / "out"


def _edit_config(data, manifest):
    """Set one [section] key of the manifest's config text to an edge value."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(manifest["config"])
    section = data.draw(st.sampled_from(list(harness._SCHEMA)))
    key = data.draw(st.sampled_from(list(harness._SCHEMA[section])))
    typed, wrong = _EDGES[harness._SCHEMA[section][key]]
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, data.draw(st.sampled_from(wrong if data.draw(_RARELY) else typed)))
    text = io.StringIO()
    cp.write(text)
    manifest["config"] = text.getvalue()


def _edit_run_entry(data, manifest):
    """Set one key of one run entry to an edge value or, now and then,
    delete the key or drop or replace the entry."""
    runs = manifest["runs"]
    i = data.draw(st.integers(0, len(runs) - 1))
    how = data.draw(st.sampled_from(("del", "drop", "replace")) if data.draw(_RARELY)
                    else st.just("set"))
    if how == "drop":
        del runs[i]
    elif how == "replace":
        runs[i] = data.draw(st.sampled_from(_JSON_EDGES))
    else:
        # the keys plot reads
        key = data.draw(st.sampled_from(("algo", "kappa", "r_star", "eta", "seed")))
        if how == "del":
            del runs[i][key]
        else:
            runs[i][key] = data.draw(st.sampled_from(_JSON_EDGES))


def _edit_csv(data, path, how):
    """Truncate a run CSV, drop one of its columns, or put a non-numeric
    value in one of its cells."""
    text = path.read_text()
    lines = text.split("\n")
    if how == "csv_truncate":
        text = text[:data.draw(st.integers(0, len(text)))]
    elif how == "csv_drop_column":
        j = data.draw(st.integers(0, len(lines[0].split(",")) - 1))
        text = "\n".join(",".join(c for k, c in enumerate(line.split(",")) if k != j)
                         for line in lines)
    else:
        i = data.draw(st.integers(1, len(lines) - 2))     # the text ends with a newline
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(("x", "", "-")))
        lines[i] = ",".join(cells)
        text = "\n".join(lines)
    path.write_text(text)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_plot_of_any_mutated_grid_exits_with_at_most_one_error_line(tmp_path, tiny_grid, data):
    # no solver runs: plot only reads the manifest and the run CSVs
    work = tmp_path / "grid"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(tiny_grid, work)
    edits = data.draw(st.lists(st.sampled_from(_GRID_EDITS), min_size=1, max_size=3, unique=True))
    manifest = json.loads((work / "manifest.json").read_text())
    if "config" in edits:
        _edit_config(data, manifest)
    if "run_entry" in edits:
        _edit_run_entry(data, manifest)
    (work / "manifest.json").write_text(json.dumps(manifest))
    run_csvs = sorted(p for p in work.iterdir() if p.suffix == ".csv" and p.name != "eta_sweep.csv")
    # the cell edit first: it needs the rows that a truncation may cut
    for how in ("csv_cell", "csv_drop_column", "csv_truncate"):
        if how in edits:
            _edit_csv(data, data.draw(st.sampled_from(run_csvs)), how)
    if "delete" in edits:
        data.draw(st.sampled_from(sorted(work.iterdir()))).unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["plot", str(work)])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
