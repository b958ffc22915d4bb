"""Experiment harness: config files, seeded grid execution, CSV/SVG/JSON artifacts.

A run grid is the product (algorithm x kappa x r_star x eta x seed). Every run
gets its own RNG built from (master_seed + seed_offset, run_index), so results
are reproducible run-by-run no matter how the grid is scheduled; worker count
changes wall time only, never bytes. All files are written by the parent
process via temp-file + rename. Each run's CSV is written as the run
arrives, in grid order, and only its summary and rel_err column are kept,
so memory holds one run's CSV text plus every run's rel_err column. Once
all runs are done come eta_sweep.csv, the SVG panels and, last, the
manifest, which marks a complete directory: a grid that fails part-way
leaves the CSVs written so far and no manifest.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .objectives import generate_sensing, make_rng, sensing_objective, spectral_init
from .solvers import ALGORITHMS, PprojgdParams, SolverConfig, run_solver
from . import svgplot

PACKAGE_VERSION = "0.1.0"

REL_CLIP_LO = 1e-16
REL_CLIP_HI = 1e3
# desk-size cap on a sensing instance's m x n x n operator tensor: 64 MiB of float64
MAX_OPERATOR_FLOATS = 64 * 2 ** 20 // 8
# desk-size cap on a grid's runs x max_iters (fig2 is 320 runs x 1000)
MAX_GRID_ITERATIONS = 10 ** 7
# seeds lie in [0, MAX_SEED): make_rng reduces a seed mod 2^64, so a wider
# range would build one instance under two seeds
MAX_SEED = 2 ** 63
# the command line's output root when neither --out nor [output] directory is set
OUT_ENV = "RANKMIN_OUT"


class SpecFileError(ValueError):
    """Raised for malformed experiment spec files (unknown keys are errors)."""


@dataclass(frozen=True)
class ExperimentSpec:
    n: int = 10
    r: int = 4
    r_star: tuple = (4,)
    kappa: tuple = (1.0,)
    m_factor: int = 3
    psd: bool = False
    algorithms: tuple = ("projgd",)
    etas: tuple = (0.4,)
    pprojgd: PprojgdParams = field(default_factory=PprojgdParams)
    seed_count: int = 10
    master_seed: int = 0
    max_iters: int = 1000
    tol_rel_err: float = 1e-14
    diverge_threshold: float = 1e2
    out_dir: str | None = None
    formats: tuple = ("csv", "svg", "json")

    def resolved_seeds(self) -> tuple:
        return tuple(range(self.master_seed, self.master_seed + self.seed_count))

    def validate(self):
        lists = {"r_star": self.r_star, "kappa": self.kappa,
                 "algorithms": self.algorithms, "eta": self.etas}
        for name, values in dict(lists, formats=self.formats).items():
            if not values:
                raise SpecFileError(f"{name} needs at least one value")
        # a repeated value would run a cell twice under one CSV name
        for name, values in lists.items():
            repeated = [v for v, count in Counter(values).items() if count > 1]
            if repeated:
                raise SpecFileError(f"{name} lists {repeated[0]!r} more than once")
        if not (1 <= min(self.r_star) and max(self.r_star) <= self.r <= self.n):
            raise SpecFileError("need 1 <= r_star <= r <= n")
        if self.m_factor < 1:
            raise SpecFileError("m_factor must be >= 1")
        m = self.m_factor * self.n * self.r     # checked before anything is allocated
        if m * self.n * self.n > MAX_OPERATOR_FLOATS:
            raise SpecFileError(
                f"sensing operators of m_factor*n*r x n*n floats (m_factor = {self.m_factor}, "
                f"n = {self.n}, r = {self.r}) exceed the cap of {MAX_OPERATOR_FLOATS} (64 MiB)")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise SpecFileError(f"unknown algorithm {a!r} (have {', '.join(ALGORITHMS)})")
        for name, values in (("kappa", self.kappa), ("pprojgd.epsilon", (self.pprojgd.epsilon,))):
            bad = [v for v in values if not math.isfinite(v)]
            if bad:
                raise SpecFileError(f"{name} must be finite, got {bad[0]!r}")
        for eta in self.etas:
            try:
                SolverConfig(eta=eta, tol_rel_err=self.tol_rel_err,
                             diverge_threshold=self.diverge_threshold)
            except ValueError as e:
                raise SpecFileError(str(e)) from e
            if "pprojgd" in self.algorithms:
                try:
                    self.pprojgd.resolve(eta)
                except ValueError as e:
                    raise SpecFileError(f"pprojgd.{e}") from e
        if any(k < 1 for k in self.kappa):
            raise SpecFileError("kappa must be >= 1")
        if self.max_iters < 1:
            raise SpecFileError("max_iters must be >= 1")
        # the messages print parsed inputs, never a product past the int-to-str digit limit
        settings = math.prod(map(len, (self.algorithms, self.kappa, self.r_star, self.etas)))
        runs = settings * max(self.seed_count, 0)
        if not runs:
            raise SpecFileError("empty seed list")
        if runs * self.max_iters > MAX_GRID_ITERATIONS:
            raise SpecFileError(f"{settings} settings x {self.seed_count} seeds x max_iters "
                                f"{self.max_iters} exceed the cap of {MAX_GRID_ITERATIONS} iterations")
        if self.master_seed < 0 or self.master_seed + self.seed_count - 1 >= MAX_SEED:
            raise SpecFileError("every seed, master_seed + seed_count - 1 included, "
                                "must lie in [0, 2**63)")
        bad = set(self.formats) - {"csv", "svg", "json"}
        if bad:
            raise SpecFileError(f"unknown formats: {sorted(bad)}")
        return self


# Section -> {key: parser}. Anything outside this table is a hard error;
# a typo like "step_szie" must not silently fall back to a default.
def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_list(parse_token):
    """Parser of a list value: spaces or commas separate its items."""
    return lambda s: tuple(parse_token(tok) for tok in s.replace(",", " ").split())


_parse_ints, _parse_floats, _parse_words = map(_parse_list, (int, float, str.lower))


_SCHEMA = {
    "problem": {
        "n": int, "r": int,
        "r_star": _parse_ints, "kappa": _parse_floats,
        "m_factor": int, "psd": _parse_bool,
    },
    "solvers": {
        "algorithms": _parse_words, "eta": _parse_floats,
    },
    "pprojgd": {
        "epsilon": float,
    },
    "run": {
        "seed_count": int, "master_seed": int,
        "max_iters": int, "tol_rel_err": float, "diverge_threshold": float,
    },
    "output": {
        "directory": str, "formats": _parse_words,
    },
}

# keys outside [pprojgd] name the ExperimentSpec field of the same name,
# except these
_FIELD_RENAMES = {"eta": "etas", "directory": "out_dir"}


def read_schema_text(text: str, schema: dict, source: str = "<string>") -> dict:
    """Parse INI text against schema, a {section: {key: parser}} table, into
    {section: {key: parsed value}} for the keys present.  A syntax error,
    an unknown section or key, or a value its parser rejects raises
    SpecFileError with a one-line message."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as e:
        raise SpecFileError(f"{source}: {' '.join(str(e).split())}") from e
    values = {}
    for section in cp.sections():
        if section not in schema:
            raise SpecFileError(f"{source}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in schema[section]:
                raise SpecFileError(f"{source}: unknown key {key!r} in [{section}]")
            try:
                values.setdefault(section, {})[key] = schema[section][key](raw)
            except ValueError as e:
                raise SpecFileError(f"{source}: bad value for {section}.{key}: {e}") from e
    return values


def parse_spec_text(text: str, source: str = "<string>") -> ExperimentSpec:
    sections = read_schema_text(text, _SCHEMA, source)
    kwargs = {_FIELD_RENAMES.get(key, key): val
              for section, items in sections.items() if section != "pprojgd"
              for key, val in items.items()}
    if "pprojgd" in sections:
        kwargs["pprojgd"] = PprojgdParams(**sections["pprojgd"])
    return ExperimentSpec(**kwargs).validate()


def read_config_file(path) -> str:
    """Text of a spec or probe file; one that is not UTF-8 raises SpecFileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise SpecFileError(f"{path}: not UTF-8 text ({e.reason})") from e


def parse_spec_file(path) -> ExperimentSpec:
    return parse_spec_text(read_config_file(path), source=str(path))


def spec_to_text(spec: ExperimentSpec) -> str:
    """Round-trippable config text (embedded in the manifest so a run
    directory is self-describing), in _SCHEMA order.  Unset values are
    left out, and so is a [pprojgd] section equal to the defaults."""
    lines = []
    for section, keys in _SCHEMA.items():
        if section == "pprojgd":
            if spec.pprojgd == PprojgdParams():
                continue
            values = {key: getattr(spec.pprojgd, key) for key in keys}
        else:
            values = {key: getattr(spec, _FIELD_RENAMES.get(key, key)) for key in keys}
        lines.append(f"[{section}]")
        lines += [f"{key} = {_fmt_value(v)}" for key, v in values.items() if v not in (None, "")]
        lines.append("")
    return "\n".join(lines)


def _fmt_value(v) -> str:
    if isinstance(v, (tuple, list)):
        return " ".join(_fmt_value(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return _fmt(v) if isinstance(v, float) else str(v)


def _fmt(x) -> str:
    # shortest round-trip decimal; integers drop the trailing .0
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# presets


def preset_fig1() -> ExperimentSpec:
    """Asymmetric sensing trace panels: m = 3nr, both condition numbers,
    exact and over-parameterized rank."""
    return ExperimentSpec(
        n=10, r=4, r_star=(4, 2), kappa=(1.0, 20.0), m_factor=3, psd=False,
        algorithms=("projgd", "fgd", "scaledgd"), etas=(0.4, 0.6),
        seed_count=10, master_seed=0, max_iters=1000,
        tol_rel_err=1e-14, diverge_threshold=1e2,
    )


def preset_fig2() -> ExperimentSpec:
    """PSD variant of the trace panels, with the preconditioned baseline
    that requires symmetry."""
    return replace(preset_fig1(), psd=True,
                   algorithms=("projgd", "fgd", "scaledgd", "precgd"))


def preset_fig3() -> ExperimentSpec:
    """Step-size robustness sweep: m = 10nr, 80 iterations, eta from 0.1
    to 1.2 in steps of 0.05."""
    etas = tuple(round(0.1 + 0.05 * k, 2) for k in range(23))
    return ExperimentSpec(
        n=10, r=4, r_star=(4,), kappa=(1.0,), m_factor=10, psd=False,
        algorithms=("projgd", "fgd", "scaledgd"), etas=etas,
        seed_count=10, master_seed=0, max_iters=80,
        tol_rel_err=1e-14, diverge_threshold=1e2,
    )


PRESETS = {"fig1": preset_fig1, "fig2": preset_fig2, "fig3": preset_fig3}


# ---------------------------------------------------------------------------
# execution


def run_filename(algo, kappa, r_star, eta, seed) -> str:
    return f"{algo}_k{_fmt(kappa)}_rs{r_star}_eta{_fmt(eta)}_s{seed}.csv"


def _grid(spec: ExperimentSpec):
    tasks = []
    idx = 0
    for algo in spec.algorithms:
        for kappa in spec.kappa:
            for r_star in spec.r_star:
                for eta in spec.etas:
                    for seed in spec.resolved_seeds():
                        tasks.append((idx, algo, kappa, r_star, eta, seed))
                        idx += 1
    return tasks


def cell_problem(spec: ExperimentSpec, kappa, r_star, seed):
    """The sensing instance of the grid cell (kappa, r_star, seed): m =
    m_factor * n * r measurements of a rank-r_star target, PSD if spec.psd."""
    return generate_sensing(n=spec.n, r=spec.r, r_star=r_star, kappa=kappa,
                            m=spec.m_factor * spec.n * spec.r, seed=seed,
                            symmetric_psd=spec.psd)


def run_cell(spec: ExperimentSpec, algo, kappa, r_star, eta, seed, rng=None):
    """The SolverTrace of one grid cell: cell_problem's sensing instance for
    (kappa, r_star, seed), its spectral init, and one solver run at eta.
    rng feeds pprojgd's perturbations only."""
    problem = cell_problem(spec, kappa, r_star, seed)
    cfg = SolverConfig(
        eta=eta, max_iters=spec.max_iters, tol_rel_err=spec.tol_rel_err,
        diverge_threshold=spec.diverge_threshold, pprojgd=spec.pprojgd,
    )
    return run_solver(algo, sensing_objective(problem), spectral_init(problem), cfg,
                      x_star=problem.ground_truth, rng=rng)


def _execute_one(args):
    spec, idx, algo, kappa, r_star, eta, seed = args
    trace = run_cell(spec, algo, kappa, r_star, eta, seed, make_rng(seed, stream=idx))
    last = trace.records[-1]
    summary = {
        "algo": algo, "kappa": kappa, "r_star": r_star, "eta": eta,
        "seed": seed, "status": trace.status,
        "final_rel_err": last.rel_err, "iterations": last.iteration,
    }
    return (run_filename(algo, kappa, r_star, eta, seed), trace.csv_text(), summary,
            trace.column("rel_err"))


def _atomic_write(path, data: str):
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp_{os.urandom(8).hex()}.part")
    # created 0666 less the umask, as open() creates a file; mkstemp's is 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunResult:
    out_dir: str
    files: list


def run_experiment(spec: ExperimentSpec, out_dir=None, jobs: int = 1) -> RunResult:
    spec.validate()
    out_dir = out_dir or spec.out_dir
    if not out_dir:
        raise SpecFileError(f"no output directory (pass --out, set [output] directory, "
                            f"or set ${OUT_ENV})")
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(spec,) + t for t in _grid(spec)]
    runs = {}                           # name -> (summary, rel_err column)
    if jobs > 1:
        # imported only here: it costs every single-process import of rankmin
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        results = pool.map(_execute_one, tasks, chunksize=4) if pool else map(_execute_one, tasks)
        for name, csv_text, summary, rel in results:
            if "csv" in spec.formats:
                _atomic_write(os.path.join(out_dir, name), csv_text)
            runs[name] = (summary, rel)

    names = sorted(runs)
    summaries = [runs[name][0] for name in names]
    files = []
    if "csv" in spec.formats:
        files += names
        _atomic_write(os.path.join(out_dir, "eta_sweep.csv"), _sweep_table(summaries))
        files.append("eta_sweep.csv")
    if "svg" in spec.formats:
        files += _render_svgs(spec, out_dir, {_run_key(s): rel for s, rel in runs.values()})
    if "json" in spec.formats:
        # written last: a manifest marks a complete directory
        manifest = {
            "config": spec_to_text(spec),
            "version": PACKAGE_VERSION,
            "runs": summaries,
            "files": sorted(files),
        }
        _atomic_write(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        files.append("manifest.json")
    return RunResult(out_dir=out_dir, files=sorted(files))


def _sweep_table(summaries) -> str:
    lines = ["algo,kappa,r_star,eta,seed,final_rel_err,status"]
    for s in summaries:
        lines.append(",".join([
            s["algo"], _fmt(s["kappa"]), str(s["r_star"]), _fmt(s["eta"]),
            str(s["seed"]), repr(float(s["final_rel_err"])), s["status"],
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plotting (delegates geometry to svgplot; this file owns the data shaping)


def _median_band(traces):
    """Align traces of different lengths by holding the last value, then
    take per-iteration median and min/max envelope."""
    tmax = max(len(t) for t in traces)
    grid = np.empty((len(traces), tmax))
    for i, t in enumerate(traces):
        grid[i, :len(t)] = t
        grid[i, len(t):] = t[-1]
    return _median(grid), grid.min(axis=0), grid.max(axis=0)


def _median(values):
    """np.median(values, axis=0), bit for bit, by sorting: np.median's NaN
    check imports numpy.ma. A column whose sorted last entry is NaN has it
    as its median."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=0)
    mid = len(ordered) // 2
    med = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return np.where(np.isnan(ordered[-1]), ordered[-1], med)


def _log_clip(vals):
    return np.log10(np.clip(np.nan_to_num(np.asarray(vals, dtype=float),
                                          nan=REL_CLIP_HI, posinf=REL_CLIP_HI),
                            REL_CLIP_LO, REL_CLIP_HI))


def _run_key(summary) -> tuple:
    return tuple(summary[k] for k in ("algo", "kappa", "r_star", "eta", "seed"))


def _render_svgs(spec, out_dir, by_run) -> list:
    """Panels from by_run, a {_run_key: rel_err column} map over the grid."""
    written = []
    seeds = spec.resolved_seeds()

    def write(name, title, xlabel, series):
        svg = svgplot.render_panel(title=title, xlabel=xlabel,
                                   ylabel="log10 relative error", series=series)
        _atomic_write(os.path.join(out_dir, name), svg)
        written.append(name)

    for kappa in spec.kappa:
        for r_star in spec.r_star:
            cell = f"kappa={_fmt(kappa)} r*={r_star}"
            panel, sweep = [], []
            for algo in spec.algorithms:
                finals = []
                for eta in spec.etas:
                    traces = [by_run[(algo, kappa, r_star, eta, s)] for s in seeds]
                    # each seed is held at its last value, so med[-1] is their median final error
                    med, lo, hi = _median_band(traces)
                    entry = {
                        "label": f"{algo} eta={_fmt(eta)}",
                        "x": np.arange(len(med)),
                        "y": _log_clip(med),
                    }
                    if len(seeds) > 1:
                        entry["band"] = (_log_clip(lo), _log_clip(hi))
                    panel.append(entry)
                    finals.append(med[-1])
                sweep.append({"label": algo, "x": spec.etas, "y": _log_clip(finals)})
            write(f"panel_k{_fmt(kappa)}_rs{r_star}.svg", cell, "iteration", panel)
            if len(spec.etas) >= 2:
                write(f"sweep_k{_fmt(kappa)}_rs{r_star}.svg",
                      f"final error vs step size ({cell})", "eta", sweep)
    return written


def read_trace_csv(path):
    """Columns of one run trace as a dict of lists (floats except branch)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    cols = lines[0].split(",")
    out = {c: [] for c in cols}
    for row, line in enumerate(lines[1:], 1):
        toks = line.split(",")
        if len(toks) != len(cols):
            raise ValueError(f"row {row} has {len(toks)} fields, the header {len(cols)}")
        for c, tok in zip(cols, toks):
            out[c].append(tok if c == "branch" else float(tok))
    return out


def render_dir(path) -> list:
    """Re-render SVGs for an existing run directory from its manifest and
    CSVs (no solver execution).  A directory without a manifest raises
    FileNotFoundError; a malformed manifest or run CSV raises SpecFileError."""
    mpath = os.path.join(path, "manifest.json")
    if not os.path.isfile(mpath):
        raise FileNotFoundError(f"no manifest.json under {path}")
    with open(mpath, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:
            raise SpecFileError(f"{mpath}: not JSON: {e}") from e
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), str)
            and isinstance(manifest.get("runs"), list)):
        raise SpecFileError(f"{mpath}: needs a 'config' text and a 'runs' list")
    spec = parse_spec_text(manifest["config"], source=mpath)
    if "csv" not in spec.formats:
        # the panels are drawn from the run CSVs; the manifest keeps no trace data
        raise SpecFileError(f"{mpath}: the config has no csv format, so there are no "
                            f"run CSVs to plot from")
    by_run = {}
    for s in manifest["runs"]:
        try:
            key = _run_key(s)
            name = run_filename(*key)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise SpecFileError(f"{mpath}: bad run entry {s!r}") from e
        csv_path = os.path.join(path, name)
        try:
            rel = read_trace_csv(csv_path).get("rel_err")
        except ValueError as e:
            raise SpecFileError(f"{csv_path}: {e}") from e
        if not rel:
            raise SpecFileError(f"{csv_path}: no rel_err values")
        by_run[key] = rel
    missing = [t[1:] for t in _grid(spec) if t[1:] not in by_run]
    if missing:
        raise SpecFileError(f"{mpath}: no run for {run_filename(*missing[0])}")
    return _render_svgs(spec, path, by_run)
