"""Experiment-harness tests: config parsing, grid execution, artifact
layout, byte determinism, and the SVG renderer's structural guarantees."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankmin
import rankmin.harness as harness
from rankmin import svgplot
from rankmin.harness import (
    PRESETS,
    ExperimentSpec,
    SpecFileError,
    _atomic_write,
    parse_spec_text,
    read_trace_csv,
    render_dir,
    run_experiment,
    run_filename,
    spec_to_text,
)
from rankmin.objectives import make_rng
from rankmin.solvers import CSV_COLUMNS, MAX_TANGENT_ITERS, PprojgdParams

TINY = """
[problem]
n = 6
r = 2
r_star = 2
kappa = 1
m_factor = 3

[solvers]
algorithms = projgd fgd
eta = 0.4 0.6

[run]
seed_count = 2
master_seed = 0
max_iters = 40
tol_rel_err = 1e-14

[output]
formats = csv svg json
"""


def tiny_spec():
    return parse_spec_text(TINY)


# -------------------------------------------------- config parsing


def test_parse_round_trip():
    spec = tiny_spec()
    assert parse_spec_text(spec_to_text(spec)) == spec


def test_parse_empty_text_gives_defaults():
    assert parse_spec_text("") == ExperimentSpec()


def test_parse_explicit_seeds_win():
    spec = parse_spec_text("[run]\nseeds = 5 9\nseed_count = 3\n")
    assert spec.resolved_seeds() == (5, 9)
    assert parse_spec_text(spec_to_text(spec)).resolved_seeds() == (5, 9)


def test_parse_unknown_section():
    with pytest.raises(SpecFileError, match="unknown section"):
        parse_spec_text("[slovers]\nalgorithms = projgd\n")


def test_parse_unknown_key():
    with pytest.raises(SpecFileError, match="step_size"):
        parse_spec_text("[solvers]\nstep_size = 0.4\n")


def test_parse_bad_value():
    with pytest.raises(SpecFileError, match="bad value"):
        parse_spec_text("[problem]\nn = ten\n")
    with pytest.raises(SpecFileError, match="bad value"):
        parse_spec_text("[problem]\npsd = maybe\n")


def test_validation_errors():
    with pytest.raises(SpecFileError, match="r_star"):
        parse_spec_text("[problem]\nr = 2\nr_star = 3\n")
    with pytest.raises(SpecFileError, match="unknown algorithm"):
        parse_spec_text("[solvers]\nalgorithms = sgd\n")
    with pytest.raises(SpecFileError, match="unknown formats"):
        parse_spec_text("[output]\nformats = csv png\n")
    with pytest.raises(SpecFileError, match="positive"):
        parse_spec_text("[solvers]\neta = 0.4 -0.1\n")
    with pytest.raises(SpecFileError, match="m_factor must be >= 1"):
        parse_spec_text("[problem]\nm_factor = 0\n")
    with pytest.raises(SpecFileError, match="kappa must be >= 1"):
        parse_spec_text("[problem]\nkappa = 0.5\n")
    with pytest.raises(SpecFileError, match="max_iters must be >= 1"):
        parse_spec_text("[run]\nmax_iters = 0\n")
    for text, name in (("[problem]\nr_star = 1 2 1\n", "r_star"),
                       ("[problem]\nkappa = 1 1.0\n", "kappa"),
                       ("[solvers]\nalgorithms = projgd fgd PROJGD\n", "algorithms"),
                       ("[solvers]\neta = 0.4 0.4\n", "eta"),
                       ("[run]\nseeds = 0 0\n", "seeds")):
        with pytest.raises(SpecFileError, match=f"^{name} lists .+ more than once$"):
            parse_spec_text(text)


def test_validation_rejects_non_finite_numbers():
    for text, name in (("[problem]\nkappa = 1 inf\n", "kappa"),
                       ("[solvers]\neta = nan\n", "eta"),
                       ("[run]\ntol_rel_err = nan\n", "tol_rel_err"),
                       ("[run]\ndiverge_threshold = inf\n", "diverge_threshold"),
                       ("[pprojgd]\nepsilon = inf\n", "pprojgd.epsilon")):
        with pytest.raises(SpecFileError, match=f"{name} must be finite"):
            parse_spec_text(text)


def test_finite_check_skips_an_integer_too_large_for_isfinite():
    # without pprojgd among the algorithms, nothing resolves the budget
    spec = parse_spec_text(f"[pprojgd]\nmax_tangent_iters = 1{'0' * 400}\n")
    assert spec.algorithms == ("projgd",) and spec.pprojgd.max_tangent_iters == 10 ** 400
    assert parse_spec_text(spec_to_text(spec)) == spec


def test_grid_cap_counts_runs_without_building_seeds(monkeypatch):
    monkeypatch.setattr(ExperimentSpec, "resolved_seeds",
                        lambda self: pytest.fail("the seed tuple was built"))
    spec = ExperimentSpec(algorithms=("projgd", "fgd"), etas=(0.4, 0.6), max_iters=10)
    cells = 2 * 2            # algorithms x etas; one kappa and one r_star
    at_cap = harness.MAX_GRID_ITERATIONS // (cells * 10)
    assert replace(spec, seed_count=at_cap).validate()
    with pytest.raises(SpecFileError, match=f"{cells * (at_cap + 1)} runs x max_iters 10"):
        replace(spec, seed_count=at_cap + 1).validate()
    for empty in (replace(spec, seed_count=0), replace(spec, seed_count=-3),
                  replace(spec, seeds=())):
        with pytest.raises(SpecFileError, match="empty seed list"):
            empty.validate()


def test_pprojgd_params_round_trip_through_manifest_text():
    spec = replace(PRESETS["fig1"](), pprojgd=PprojgdParams(epsilon=1e-3))
    assert "[pprojgd]" in spec_to_text(spec)
    assert parse_spec_text(spec_to_text(spec)) == spec
    assert "[pprojgd]" not in spec_to_text(PRESETS["fig1"]())


_positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _specs(draw):
    # valid specs repeat no value in a list
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, n))
    pprojgd = PprojgdParams(
        epsilon=draw(_positive),
        epsilon_t=draw(st.none() | _positive),
        eta_t=draw(st.none() | _positive),
        perturb_radius=draw(st.none() | _positive),
        max_tangent_iters=draw(st.none() | st.integers(1, MAX_TANGENT_ITERS)),
    )
    seeds = draw(st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=4,
                                       unique=True).map(tuple))
    spec = ExperimentSpec(
        n=n, r=r,
        r_star=tuple(draw(st.lists(st.integers(1, r), min_size=1, max_size=3, unique=True))),
        kappa=tuple(draw(st.lists(st.floats(1.0, 1e8), min_size=1, max_size=3, unique=True))),
        m_factor=draw(st.integers(1, 10)),
        psd=draw(st.booleans()),
        algorithms=tuple(draw(st.lists(st.sampled_from(rankmin.ALGORITHMS), min_size=1, max_size=3,
                                        unique=True))),
        etas=tuple(draw(st.lists(_positive, min_size=1, max_size=4, unique=True))),
        pprojgd=pprojgd,
        seed_count=draw(st.integers(1, 20)),
        master_seed=draw(st.integers(0, 10**6)),
        seeds=seeds,
        max_iters=draw(st.integers(1, 10**6)),
        tol_rel_err=draw(st.floats(-1e3, 1e3)),
        diverge_threshold=draw(_positive),
        formats=tuple(draw(st.lists(st.sampled_from(("csv", "svg", "json")), min_size=1, max_size=3))),
    )
    # valid specs stay within the grid-size cap
    runs = math.prod(map(len, (spec.r_star, spec.kappa, spec.algorithms, spec.etas,
                               spec.resolved_seeds())))
    spec = replace(spec, max_iters=min(spec.max_iters, harness.MAX_GRID_ITERATIONS // runs))
    # and within the escape-budget cap: a derived budget above it becomes the cap
    try:
        for eta in spec.etas:
            pprojgd.resolve(eta)
    except ValueError:
        spec = replace(spec, pprojgd=replace(pprojgd, max_tangent_iters=MAX_TANGENT_ITERS))
    return spec


@settings(max_examples=200, deadline=None)
@given(_specs())
def test_spec_text_round_trip_property(spec):
    text = spec_to_text(spec)
    back = parse_spec_text(text)
    if spec.seeds is None:
        assert back == spec
    else:
        # explicit seeds win; the seed count and master seed are not written
        assert back == replace(spec, seed_count=back.seed_count, master_seed=back.master_seed)


def test_run_filename_formatting():
    assert run_filename("projgd", 20.0, 2, 0.4, 3) == "projgd_k20_rs2_eta0.4_s3.csv"
    assert run_filename("fgd", 1.0, 4, 0.05, 0) == "fgd_k1_rs4_eta0.05_s0.csv"


# -------------------------------------------------- presets


def test_presets_cover_the_replication_grids():
    assert set(PRESETS) == {"fig1", "fig2", "fig3"}
    f1 = PRESETS["fig1"]().validate()
    assert (f1.n, f1.r, f1.m_factor) == (10, 4, 3)
    assert set(f1.r_star) == {2, 4} and set(f1.kappa) == {1.0, 20.0}
    assert not f1.psd
    f2 = PRESETS["fig2"]().validate()
    assert f2.psd and "precgd" in f2.algorithms
    f3 = PRESETS["fig3"]().validate()
    assert f3.m_factor == 10 and f3.max_iters == 80
    assert len(f3.etas) == 23
    assert f3.etas[0] == 0.1 and f3.etas[-1] == 1.2


# -------------------------------------------------- execution


def test_run_experiment_writes_complete_grid(tmp_path):
    spec = tiny_spec()
    res = run_experiment(spec, out_dir=str(tmp_path))
    # 2 algos x 2 etas x 2 seeds runs, plus sweep table, 2 SVGs, manifest
    csvs = [f for f in res.files if f.endswith(".csv") and f != "eta_sweep.csv"]
    assert len(csvs) == 8
    assert "eta_sweep.csv" in res.files
    assert "manifest.json" in res.files
    assert "panel_k1_rs2.svg" in res.files
    assert "sweep_k1_rs2.svg" in res.files
    on_disk = sorted(os.listdir(tmp_path))
    assert on_disk == sorted(res.files)
    assert not [f for f in on_disk if f.startswith(".tmp_")]


def test_trace_csv_schema(tmp_path):
    spec = tiny_spec()
    res = run_experiment(spec, out_dir=str(tmp_path))
    name = run_filename("projgd", 1.0, 2, 0.4, 0)
    assert name in res.files
    with open(tmp_path / name) as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    cols = read_trace_csv(tmp_path / name)
    assert set(cols) == set(CSV_COLUMNS)
    assert cols["branch"][0] == "init"
    assert cols["iter"] == sorted(cols["iter"])
    assert len(cols["iter"]) <= spec.max_iters + 1
    assert all(np.isfinite(v) for v in cols["f_value"])


def test_run_cell_gives_the_bytes_the_grid_writes(tmp_path):
    # the acceptance suite reruns preset cells through run_cell; pprojgd
    # draws from the grid's per-run stream, the other solvers draw nothing
    spec = replace(tiny_spec(), algorithms=("projgd", "pprojgd"), max_iters=5,
                   formats=("csv",))
    run_experiment(spec, out_dir=str(tmp_path))
    for idx, algo, kappa, r_star, eta, seed in harness._grid(spec):
        written = (tmp_path / run_filename(algo, kappa, r_star, eta, seed)).read_bytes()
        rng = make_rng(seed, stream=idx) if algo == "pprojgd" else None
        trace = harness.run_cell(spec, algo, kappa, r_star, eta, seed, rng)
        assert trace.csv_text().encode() == written


def test_manifest_is_self_describing(tmp_path):
    spec = tiny_spec()
    res = run_experiment(spec, out_dir=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == rankmin.__version__
    assert parse_spec_text(manifest["config"]) == spec
    assert len(manifest["runs"]) == 8
    assert set(manifest["files"]) == set(res.files) - {"manifest.json"}
    for s in manifest["runs"]:
        assert s["status"] in ("converged", "diverged", "max-iters", "second-order-stop")
        assert np.isfinite(s["final_rel_err"])


def test_eta_sweep_table(tmp_path):
    run_experiment(tiny_spec(), out_dir=str(tmp_path))
    lines = (tmp_path / "eta_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "algo,kappa,r_star,eta,seed,final_rel_err,status"
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        algo, kappa, r_star, eta, seed, rel, status = line.split(",")
        float(rel)
        assert algo in ("projgd", "fgd")


def test_bytes_identical_across_worker_counts(tmp_path):
    spec = tiny_spec()
    a = tmp_path / "a"
    b = tmp_path / "b"
    ra = run_experiment(spec, out_dir=str(a), jobs=1)
    rb = run_experiment(spec, out_dir=str(b), jobs=2)
    assert ra.files == rb.files
    for name in ra.files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_each_csv_is_on_disk_before_the_next_run_starts(tmp_path, monkeypatch):
    # jobs=1 streams: a run's CSV is written before the next run executes,
    # so memory holds one run's CSV text rather than the whole grid's
    execute = harness._execute_one
    seen = []                       # (CSVs on disk at call start, name returned)

    def recording(task):
        on_disk = {f for f in os.listdir(tmp_path) if f.endswith(".csv")}
        result = execute(task)
        seen.append((on_disk, result[0]))
        return result

    monkeypatch.setattr(harness, "_execute_one", recording)
    res = run_experiment(tiny_spec(), out_dir=str(tmp_path), jobs=1)
    assert len(seen) == 8
    for k, (on_disk, _) in enumerate(seen):
        assert on_disk == {name for _, name in seen[:k]}
    assert {name for _, name in seen} <= set(res.files)


def test_run_failing_mid_grid_leaves_no_manifest(tmp_path, monkeypatch):
    execute = harness._execute_one
    calls = []

    def failing_third(task):
        calls.append(task)
        if len(calls) == 3:
            raise RuntimeError("run failed")
        return execute(task)

    monkeypatch.setattr(harness, "_execute_one", failing_third)
    with pytest.raises(RuntimeError, match="run failed"):
        run_experiment(tiny_spec(), out_dir=str(tmp_path), jobs=1)
    on_disk = sorted(os.listdir(tmp_path))
    assert "manifest.json" not in on_disk
    assert on_disk == sorted(run_filename(*t[2:]) for t in calls[:2])
    with pytest.raises(FileNotFoundError):
        render_dir(str(tmp_path))


def test_run_experiment_needs_output_dir():
    with pytest.raises(SpecFileError, match="output directory"):
        run_experiment(tiny_spec())


def test_csv_only_format(tmp_path):
    from dataclasses import replace
    spec = replace(tiny_spec(), formats=("csv",))
    res = run_experiment(spec, out_dir=str(tmp_path))
    assert all(f.endswith(".csv") for f in res.files)
    assert "manifest.json" not in res.files


def test_atomic_write_replaces_in_place(tmp_path):
    path = tmp_path / "out.txt"
    _atomic_write(str(path), "old\n")
    _atomic_write(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


# -------------------------------------------------- plotting


def test_panel_svg_structure(tmp_path):
    run_experiment(tiny_spec(), out_dir=str(tmp_path))
    panel = (tmp_path / "panel_k1_rs2.svg").read_text()
    # one polyline per (algo, eta) series, one envelope polygon each
    assert panel.count("<polyline") == 4
    assert panel.count("<polygon") == 4
    assert panel.startswith('<?xml version="1.0"')
    assert "NaN" not in panel and "nan" not in panel
    sweep = (tmp_path / "sweep_k1_rs2.svg").read_text()
    assert sweep.count("<polyline") == 2
    assert sweep.count("<polygon") == 0


def test_render_dir_replays_svgs_byte_identically(tmp_path):
    res = run_experiment(tiny_spec(), out_dir=str(tmp_path))
    svgs = [f for f in res.files if f.endswith(".svg")]
    before = {f: (tmp_path / f).read_bytes() for f in svgs}
    for f in svgs:
        (tmp_path / f).unlink()
    rendered = render_dir(str(tmp_path))
    assert sorted(rendered) == sorted(svgs)
    for f in svgs:
        assert (tmp_path / f).read_bytes() == before[f]


def test_render_dir_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_dir(str(tmp_path))


def test_svgplot_rejects_bad_series():
    with pytest.raises(ValueError):
        svgplot.render_panel("t", "x", "y", [])
    with pytest.raises(ValueError):
        svgplot.render_panel("t", "x", "y", [{"label": "a", "x": [0, 1], "y": [0.0]}])


def test_svgplot_is_deterministic():
    series = [{"label": "a", "x": [0, 1, 2], "y": [0.0, -3.0, -7.5]}]
    one = svgplot.render_panel("t", "x", "y", series)
    two = svgplot.render_panel("t", "x", "y", series)
    assert one == two
    assert one.count("<polyline") == 1
