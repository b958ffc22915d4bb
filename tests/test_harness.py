"""Experiment-harness tests: config parsing, grid execution, artifact
layout, byte determinism, and the SVG renderer's structural guarantees."""

import json
import math
import os
import re
import subprocess
import sys
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
from rankmin.solvers import CSV_COLUMNS, PprojgdParams

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
                       ("[solvers]\neta = 0.4 0.4\n", "eta")):
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


def test_grid_cap_counts_runs_without_building_seeds(monkeypatch):
    monkeypatch.setattr(ExperimentSpec, "resolved_seeds",
                        lambda self: pytest.fail("the seed tuple was built"))
    spec = ExperimentSpec(algorithms=("projgd", "fgd"), etas=(0.4, 0.6), max_iters=10)
    cells = 2 * 2            # algorithms x etas; one kappa and one r_star
    at_cap = harness.MAX_GRID_ITERATIONS // (cells * 10)
    assert replace(spec, seed_count=at_cap).validate()
    with pytest.raises(SpecFileError, match=f"{cells} settings x {at_cap + 1} seeds x max_iters 10"):
        replace(spec, seed_count=at_cap + 1).validate()
    for empty in (replace(spec, seed_count=0), replace(spec, seed_count=-3)):
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
    spec = ExperimentSpec(
        n=n, r=r,
        r_star=tuple(draw(st.lists(st.integers(1, r), min_size=1, max_size=3, unique=True))),
        kappa=tuple(draw(st.lists(st.floats(1.0, 1e8), min_size=1, max_size=3, unique=True))),
        m_factor=draw(st.integers(1, 10)),
        psd=draw(st.booleans()),
        algorithms=tuple(draw(st.lists(st.sampled_from(rankmin.ALGORITHMS), min_size=1, max_size=3,
                                        unique=True))),
        etas=tuple(draw(st.lists(_positive, min_size=1, max_size=4, unique=True))),
        pprojgd=PprojgdParams(epsilon=draw(_positive)),
        seed_count=draw(st.integers(1, 20)),
        master_seed=draw(st.integers(0, 10**6)),
        max_iters=draw(st.integers(1, 10**6)),
        tol_rel_err=draw(st.floats(-1e3, 1e3)),
        diverge_threshold=draw(_positive),
        formats=tuple(draw(st.lists(st.sampled_from(("csv", "svg", "json")), min_size=1, max_size=3))),
    )
    # valid specs stay within the grid-size cap
    runs = math.prod(map(len, (spec.r_star, spec.kappa, spec.algorithms, spec.etas,
                               spec.resolved_seeds())))
    spec = replace(spec, max_iters=min(spec.max_iters, harness.MAX_GRID_ITERATIONS // runs))
    # and within the escape-budget cap: a spec whose budget exceeds it
    # runs no pprojgd
    try:
        for eta in spec.etas:
            spec.pprojgd.resolve(eta)
    except ValueError:
        spec = replace(spec, algorithms=tuple(a for a in spec.algorithms if a != "pprojgd")
                       or ("projgd",))
    return spec


@settings(max_examples=200, deadline=None)
@given(_specs())
def test_spec_text_round_trip_property(spec):
    assert parse_spec_text(spec_to_text(spec)) == spec


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


def test_package_version_matches_pyproject():
    # the manifest records PACKAGE_VERSION, the package exposes it as
    # __version__, and the build records pyproject's
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"),
              encoding="utf-8") as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version = "([^"]*)"$', project, re.M).group(1)
    assert version == rankmin.__version__ == harness.PACKAGE_VERSION


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


def test_each_cell_runs_through_the_harness_binding_of_run_solver(tmp_path, monkeypatch):
    # the benchmark times a host-speed slice before each call of
    # harness.run_solver, looked up by name; a cell that ran its solver
    # another way would leave norm_wall_s unscaled, with no error
    run_solver, calls = harness.run_solver, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run_solver(*args, **kwargs)

    monkeypatch.setattr(harness, "run_solver", counting)
    spec = tiny_spec()
    run_experiment(spec, out_dir=str(tmp_path), jobs=1)
    assert calls == [algo for _, algo, *_ in harness._grid(spec)]


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
    # a write that raises leaves the old target and no .tmp_*.part file
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(path), "bad \udcff\n")
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


# relative errors: finite and non-negative, or inf and NaN where a run diverged
_REL_ERRS = st.lists(st.one_of(st.floats(0.0, 1e6), st.just(math.inf), st.just(math.nan)),
                     min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(traces=st.lists(_REL_ERRS, min_size=1, max_size=6))
def test_median_band_matches_np_median_of_the_held_grid(traces):
    med, lo, hi = harness._median_band(traces)
    tmax = max(map(len, traces))
    grid = np.array([t + t[-1:] * (tmax - len(t)) for t in traces])
    assert med.tobytes() == np.median(grid, axis=0).tobytes()
    assert lo.tobytes() == grid.min(axis=0).tobytes()
    assert hi.tobytes() == grid.max(axis=0).tobytes()
    # verify takes the median of one list of values through the same helper
    assert harness._median(traces[0]).tobytes() == np.median(traces[0]).tobytes()


def test_a_grid_run_never_imports_numpy_ma(tmp_path):
    # np.median and np.percentile import numpy.ma on their first call, which
    # costs a grid run about 17 ms and over 1 MB; the panels sort instead
    one_cell = TINY.replace("projgd fgd", "projgd").replace("0.4 0.6", "0.4")
    code = ("import sys\nfrom rankmin import harness\n"
            f"spec = harness.parse_spec_text({one_cell!r})\n"
            f"res = harness.run_experiment(spec, out_dir={str(tmp_path)!r}, jobs=1)\n"
            "print(sorted({f.rsplit('.', 1)[1] for f in res.files}), 'numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['csv', 'json', 'svg'] False\n"


def test_svgplot_rejects_bad_series():
    with pytest.raises(ValueError):
        svgplot.render_panel("t", "x", "y", [])
    with pytest.raises(ValueError):
        svgplot.render_panel("t", "x", "y", [{"label": "a", "x": [0, 1], "y": [0.0]}])


@pytest.mark.parametrize("band", [
    ([0, 1], [1, 2]),
    ([0, 1, 2, 3], [1, 2, 3, 4]),
    ([0, 1, 2],),
    ([[0, 1, 2]], [[1, 2, 3]]),
], ids=("short_rows", "long_rows", "one_row", "rows_of_rows"))
def test_svgplot_rejects_a_band_that_is_not_two_rows_of_len_x(band):
    # unchecked, a short band drew a truncated polygon, a long one was cut
    # by zip to pair with the wrong x, and the others raised from unpacking
    # or from formatting
    series = [{"label": "a", "x": [0, 1, 2], "y": [0, 1, 2], "band": band}]
    with pytest.raises(ValueError, match=r"^series 'a': band is not two rows of len\(x\) values$"):
        svgplot.render_panel("t", "x", "y", series)


_MAX = sys.float_info.max


_FLAT_RANGES = {
    "one_point": ([3.0], [5.0], "64.00,204.00"),
    "flat_y": ([0.0, 1.0, 2.0], [2.0, 2.0, 2.0], "64.00,204.00 344.00,204.00 624.00,204.00"),
    "flat_x": ([1.0, 1.0], [0.0, 4.0], "64.00,361.41 64.00,46.59"),
    "flat_huge_x": ([1e17], [5.0], "64.00,204.00"),
    "flat_huge_y": ([0.0, 1.0], [1e17, 1e17], "64.00,204.00 624.00,204.00"),
    "near_flat_x": ([1.0, math.nextafter(1.0, 2.0)], [0.0, 4.0], "64.00,361.41 64.00,46.59"),
    "near_flat_huge_x": ([1e17, 1e17 + 16], [5.0, 5.0], "64.00,204.00 64.10,204.00"),
    "subnormal_x": ([5e-324, 1e-323], [0.0, 4.0], "64.00,361.41 64.00,46.59"),
    "near_flat_y": ([0.0, 1.0], [0.6710510603938392, 0.6710510603938393],
                    "64.00,204.00 624.00,204.00"),
    "subnormal_y": ([0.0, 1.0], [0.0, 5e-324], "64.00,204.00 624.00,204.00"),
    "flat_max_x": ([_MAX], [5.0], "624.00,204.00"),
    "near_flat_max_x": ([math.nextafter(_MAX, 0.0), _MAX], [0.0, 4.0],
                        "623.93,361.41 624.00,46.59"),
}


# each range as plain lists and as the float arrays the harness passes
@pytest.mark.parametrize("x, y, points, as_input", [
    pytest.param(*case, as_input, id=name + suffix)
    for as_input, suffix in ((list, ""), (np.asarray, "_array"))
    for name, case in _FLAT_RANGES.items()])
def test_svgplot_widens_a_flat_range(x, y, points, as_input):
    # a flat x range becomes [x, x + 1], a flat y range [y - 1, y + 1];
    # at 1e17, where x + 1 rounds back to x, the unit is |x| / 2^40 instead.
    # A range under 2^-40 of its larger endpoint magnitude (at least
    # 2^-1000) is widened as a flat one, so that every tick step advances.
    # Where widening x above would overflow, x widens below instead
    text = svgplot.render_panel("t", "x", "y",
                                [{"label": "a", "x": as_input(x), "y": as_input(y)}])
    assert f'<polyline points="{points}" ' in text


@pytest.mark.parametrize("x, y, axis", [
    ([-_MAX, _MAX], [0.0, 1.0], "x"),
    ([0.0, 1.0], [-_MAX, _MAX], "y"),
    ([0.0, 1.0], [_MAX, _MAX], "y"),
], ids=("widest_x", "widest_y", "flat_max_y"))
def test_svgplot_rejects_a_range_with_no_finite_width(x, y, axis):
    # the flat y range widens on both sides, so its top overflows
    data = x if axis == "x" else y
    with pytest.raises(ValueError) as err:
        svgplot.render_panel("t", "x", "y", [{"label": "a", "x": x, "y": y}])
    assert str(err.value) == (f"{axis} range [{min(data)!r}, {max(data)!r}] "
                              "has no finite width to draw")


@st.composite
def _axis_ends(draw):
    """Two endpoints within [-1e300, 1e300], subnormals included: two draws,
    or a draw and itself or a float neighbour."""
    a = draw(st.floats(-1e300, 1e300))
    b = draw(st.one_of(st.floats(-1e300, 1e300), st.just(math.nextafter(a, math.inf)),
                       st.just(math.nextafter(a, -math.inf)), st.just(a)))
    return [a, b]


@settings(max_examples=300, deadline=None)
@given(x=_axis_ends(), y=_axis_ends())
def test_svgplot_draws_at_most_ten_ticks_per_axis(x, y):
    text = svgplot.render_panel("t", "x", "y", [{"label": "a", "x": x, "y": y}])
    # x ticks hang below the frame, y ticks stick out left of it
    assert 1 <= text.count(f'y2="{svgplot.HEIGHT - svgplot.MB + 4:.2f}"') <= 10
    assert 1 <= text.count(f'<line x1="{svgplot.ML - 4:.2f}"') <= 10


def test_svgplot_is_deterministic():
    series = [{"label": "a", "x": [0, 1, 2], "y": [0.0, -3.0, -7.5]}]
    one = svgplot.render_panel("t", "x", "y", series)
    two = svgplot.render_panel("t", "x", "y", series)
    assert one == two
    assert one.count("<polyline") == 1
