"""Command-line front end.

Verbs:
    run <spec-file>       execute an experiment grid from a config file
    preset fig1|fig2|fig3 execute a built-in replication grid
    plot <dir>            re-render SVG panels from a result directory
    verify                run the acceptance suite (exit 1 on any failure)
    probe <spec-file>     brute-force stationary-point census (tiny instances)

Exit codes: 0 ok, 1 criterion failure, 2 usage error, 3 I/O error.
RANKMIN_OUT sets the default output root when neither --out nor the config
file names a directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .diagnostics import (MAX_PROBE_EVALUATIONS, MAX_PROBE_N, MAX_PROBE_R, BudgetExceededError,
                          landscape_probe)
from .harness import OUT_ENV, SpecFileError
from .objectives import quadratic_objective, sensing_objective
from .verify import verify_suite

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rankmin")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="output directory (default: config, then $%s)" % OUT_ENV)
        sp.add_argument("--seed", type=int, help="override the master seed")
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker processes, 1 to the usable core count (default: all)")
        sp.add_argument("--format", dest="formats",
                        help="outputs among csv, svg, json, as [output] formats lists them")

    sp = sub.add_parser("run", help="run an experiment grid from a config file")
    sp.add_argument("spec_file")
    add_common(sp)

    sp = sub.add_parser("preset", help="run a built-in grid")
    sp.add_argument("name", choices=sorted(harness.PRESETS))
    add_common(sp)

    sp = sub.add_parser("plot", help="re-render SVGs from a result directory")
    sp.add_argument("directory")

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--out", help="write the JSON verdict here")

    sp = sub.add_parser("probe", help="stationary-point census from a config file")
    sp.add_argument("spec_file")
    sp.add_argument("--out", help="write the JSON report here (default: stdout)")
    return p


def _cmd_grid(spec, args, default_name: str) -> int:
    # the CPUs this process may run on; an affinity mask (taskset) can narrow them
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    # a process pool starts all of its workers at once
    if args.jobs is not None and not 1 <= args.jobs <= cores:
        print(f"error: --jobs must lie in [1, {cores}], the usable core count "
              f"(got {args.jobs})", file=sys.stderr)
        return EXIT_USAGE
    # each flag reads as its spec-file key
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    if args.formats is not None:
        spec = replace(spec, formats=harness._parse_words(args.formats))
    root = os.environ.get(OUT_ENV)
    out = args.out or spec.out_dir or (root and os.path.join(root, default_name))
    jobs = args.jobs if args.jobs is not None else cores
    result = harness.run_experiment(spec, out_dir=out, jobs=jobs)
    print(f"wrote {len(result.files)} files to {result.out_dir}")
    return EXIT_OK


_PROBE_DEFAULTS = {
    "objective": "quadratic", "n": 3, "r": 2, "r_star": 2, "kappa": 2.0,
    "psd": False, "m_factor": 3, "seed": 0, "starts": 64, "iters": 3000,
    "eps": 1e-6, "gamma": 0.0,
}
# each key parses as the type of its default
_PROBE_SCHEMA = {"probe": {key: harness._parse_bool if isinstance(v, bool) else type(v)
                           for key, v in _PROBE_DEFAULTS.items()}}


def parse_probe_file(path):
    """The [probe] settings of a probe file, and its instance as the
    validated one-cell grid that harness.cell_problem builds."""
    sections = harness.read_schema_text(harness.read_config_file(path), _PROBE_SCHEMA, str(path))
    given = sections.get("probe", {})
    cfg = dict(_PROBE_DEFAULTS, **given)
    if cfg["objective"] not in ("quadratic", "sensing"):
        raise SpecFileError("objective must be 'quadratic' or 'sensing'")
    if cfg["psd"] and cfg["objective"] == "quadratic":
        raise SpecFileError("psd = true needs objective = sensing (the quadratic has no PSD mode)")
    if "m_factor" in given and cfg["objective"] == "quadratic":
        raise SpecFileError("m_factor needs objective = sensing (the quadratic reads no operators)")
    if cfg["n"] > MAX_PROBE_N or cfg["r"] > MAX_PROBE_R:
        raise SpecFileError(f"the probe is for n <= {MAX_PROBE_N}, r <= {MAX_PROBE_R} only")
    if cfg["starts"] < 1 or cfg["iters"] < 1:
        raise SpecFileError("starts and iters must be >= 1")
    if not (np.isfinite(cfg["eps"]) and cfg["eps"] > 0):
        raise SpecFileError("eps must be finite and > 0")
    if not (np.isfinite(cfg["gamma"]) and cfg["gamma"] >= 0):
        raise SpecFileError("gamma must be finite and >= 0")
    # the instance obeys the rules of a one-cell grid, with its messages
    spec = harness.ExperimentSpec(n=cfg["n"], r=cfg["r"], r_star=(cfg["r_star"],),
                                  kappa=(cfg["kappa"],), m_factor=cfg["m_factor"],
                                  psd=cfg["psd"], master_seed=cfg["seed"], seed_count=1)
    return cfg, spec.validate()


def _num(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _cmd_probe(args) -> int:
    cfg, spec = parse_probe_file(args.spec_file)
    problem = harness.cell_problem(spec, cfg["kappa"], cfg["r_star"], cfg["seed"])
    # the quadratic's target is the cell's ground truth, drawn first from the seed
    x_star = problem.ground_truth
    f = quadratic_objective(x_star) if cfg["objective"] == "quadratic" else sensing_objective(problem)
    points = landscape_probe(f, spec.n, spec.r, seed=cfg["seed"], starts=cfg["starts"],
                             iters=cfg["iters"], eps=cfg["eps"], gamma=cfg["gamma"])
    xsd = x_star.dense()
    xs_norm = float(np.linalg.norm(xsd))
    report = {
        # the report states the evaluation cap the census ran under
        "instance": dict(cfg, budget=MAX_PROBE_EVALUATIONS),
        "points": [
            {
                "f_value": _num(p.f_value),
                "cluster_size": p.cluster_size,
                "sigma": [float(s) for s in p.x.sigma],
                "rel_err_to_truth": _num(np.linalg.norm(p.x.dense() - xsd)
                                         / max(xs_norm, 1e-300)),
                "grad_norm": _num(p.certificate.grad_norm),
                "min_eig": _num(p.certificate.min_eig),
                "ambient_grad_norm": _num(p.certificate.ambient_grad_norm),
                "classification": p.certificate.classification,
            }
            for p in points
        ],
    }
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        harness._atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_grid(harness.parse_spec_file(args.spec_file), args, "run")
        if args.verb == "preset":
            return _cmd_grid(harness.PRESETS[args.name](), args, args.name)
        if args.verb == "plot":
            files = harness.render_dir(args.directory)
            print(f"rendered {len(files)} SVG files in {args.directory}")
            return EXIT_OK
        if args.verb == "verify":
            verdict = verify_suite(level=args.level, out=args.out)
            return EXIT_OK if verdict["all_passed"] else EXIT_CRITERION
        if args.verb == "probe":
            return _cmd_probe(args)
        raise AssertionError(f"unhandled verb {args.verb!r}")
    except (SpecFileError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
