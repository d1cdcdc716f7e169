"""Experiment runner: builds the test operators, sweeps the error
estimators over time grids, and benchmarks the step-size controllers.

    krylovexp build --config cfg.json --out results/
    krylovexp sweep --config cfg.json --out results/ [--threads 4] [--seed 7]
    krylovexp bench --config cfg.json --out results/

Exit codes: 0 ok, 1 a proven upper bound was exceeded by the oracle
error, 2 configuration problem, or a bench run the stepper cannot
finish (say, a fixed-step run whose Krylov build breaks down, or a run
whose propagated vector underflows to 0).

The JSON config holds a "problems" list plus a "sweep" and/or "bench"
section; see the README for a complete example.  Sweep output is one
wide CSV per (problem, m) with the classic column set, one long-format
CSV covering every estimator evaluation, and a standalone matplotlib
script that renders the log-log overlay figures.

A sweep pays once per problem and once per t-grid.  Each problem is
built once, with one start vector, one call for its reference rows over
the grid (they do not depend on m) and one Krylov store sized for the
largest m, whose decomposition at each m is bitwise a fresh build of that
dimension.  A cell then fills every phi grid its per-t loop reads, one
call per grid, before the loop: q = 0, p, p + 1 (and p + 2 when
corrected) at each t, the q = 0 grid joined at p = 0 uncorrected by t/2
and 3t/4, where effective_order_quad samples rho.  So an Arnoldi cell
runs one Pade per distinct row, a Lanczos cell one phi_scalar call per
grid, and each distinct row is computed once.  The estimators and
effective_order (the rho column) take one t and read only cached rows.
--threads runs the problems, and then the cells, on that many threads;
the outputs do not depend on it.

This module owns every output format: the column tuples below, the cell
formatter fmt_cell and the one CSV writer _write_csv.  The estimators and
the stepper return numbers and records only.
"""

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .approximant import Approximant, effective_order
from .estimators import CORRECTED_KINDS, ESTIMATORS, ORDER_SAMPLES, era, err1, quad_estimates
from .krylov import KrylovConfig, build_krylov, extend_krylov
from .oracle import TARGET_ACCURACY, oracle_reference
from .problems import ProblemSpec, starting_vector
from .stepper import ControllerSpec, propagate, propagate_fixed_steps


class ConfigError(Exception):
    pass


# the wide column of each standard kind, which its corrected row shares;
# NaN where the kind has no value
_ESTIMATE_COLUMNS = {"Era": "era", "Err1": "err1", "HermiteQuad": "hermite_quad",
                     "ImprovedHermiteQuad": "improved_hermite_quad", "TrapezoidQuad": "trapezoid_quad",
                     "EffectiveOrderQuad": "effective_order_quad"}
WIDE_COLUMNS = ("t", "oracle_error", *_ESTIMATE_COLUMNS, "rho")
LONG_COLUMNS = ("problem", "m", "sigma", "p", "t", "estimator", "value",
                "extra_matvecs", "oracle_error")
LONG_KEY = ("problem", "m", "p", "t", "estimator")
BENCH_COLUMNS = ("problem", "controller", "estimator", "m", "tol", "N", "total_t",
                 "total_matvecs", "accumulated_bound", "oracle_error_per_unit_t")
BENCH_KEY = ("problem", "controller", "estimator", "m", "tol")


def _breaks_bound(err, bound):
    """True when an oracle error err exceeds a proven bound by more than
    the slack: 1e-9 relative to the bound, plus ten times the oracle's
    target accuracy (1e-12)."""
    return err > bound * (1.0 + 1e-9) + 10.0 * TARGET_ACCURACY


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _number(value, what, low, integer=False):
    """value as an int (integer=True) or a float, when it is a JSON number
    of that kind, finite and >= low; a bool is neither."""
    _require(isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
             and math.isfinite(value) and value >= low,
             f"{what} must be {'an integer' if integer else 'a number'} >= {low}, got {value!r}")
    return value if integer else float(value)


# the keys each config object takes; any other key is an error, so no
# setting is silently ignored
_KEYS = {
    "config": {"problems", "sweep", "bench"},
    "problem": {"kind", "params", "seed"},
    "sweep": {"m", "t_grid", "p", "corrected"},
    "t_grid": {"values", "start", "stop", "points", "scale"},
    "bench": {"runs"},
    "bench run": {"problem", "controller", "estimator", "m", "tol", "n_steps", "t_final"},
}


def _checked(obj, what):
    """obj, when it is an object whose keys _KEYS[what] all allows."""
    _require(isinstance(obj, dict), f"{what} must be an object, got {obj!r}")
    _require(obj.keys() <= _KEYS[what], f"unknown {what} keys {sorted(obj.keys() - _KEYS[what])}")
    return obj


def _distinct(values, what):
    """values, when no two are equal."""
    _require(len(set(values)) == len(values), f"a {what} is listed twice; its outputs would collide")
    return values


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _problem_specs(config, seed_override=None):
    # every command reads the problems first, so the top level is checked here
    entries = _checked(config, "config").get("problems")
    _require(isinstance(entries, list) and entries, "config needs a nonempty 'problems' list")
    specs = []
    for e in entries:
        _require("kind" in _checked(e, "problem"), "each problem needs a 'kind'")
        kind, params = e["kind"], e.get("params", {})
        _require(isinstance(params, dict), f"{kind} 'params' must be an object")
        seed = seed_override if seed_override is not None else _number(
            e.get("seed", 0), f"{kind} seed", 0, True)
        try:
            spec = ProblemSpec(kind, params, seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key, value in spec.params.items():
            _number(value, f"{kind} parameter {key!r}", 2 if key == "n" else -math.inf, key == "n")
        specs.append(spec)
    _distinct([s.kind for s in specs], "problem kind")
    return specs


def _t_grid(section):
    grid = _checked(section.get("t_grid"), "t_grid")
    if "values" in grid:
        _require(len(grid) == 1, "t_grid takes 'values' or 'start'/'stop'/'points'/'scale', not both")
        values = grid["values"]
        _require(isinstance(values, list) and values, "t_grid.values must be a nonempty list")
        values = [_number(x, "t value", 0.0) for x in values]
        _require(all(x > 0 for x in values), "t values must be > 0")
        return _distinct(sorted(values), "t")
    for key in ("start", "stop", "points"):
        _require(key in grid, f"t_grid needs '{key}' (or explicit 'values')")
    start, stop = (_number(grid[key], f"t_grid.{key}", 0.0) for key in ("start", "stop"))
    points = _number(grid["points"], "t_grid.points", 1, True)
    _require(0 < start <= stop, "t_grid needs 0 < start <= stop")
    scale = grid.get("scale", "log")
    _require(scale in ("log", "linear"), f"t_grid.scale must be 'log' or 'linear', got {scale!r}")
    space = np.geomspace if scale == "log" else np.linspace
    return _distinct(list(space(start, stop, points)), "t")


def _sweep_problem(spec, ms, ts, p):
    """What the cells of one problem share: sigma, the reference rows over
    ts (they do not depend on m) and the decomposition of each m of ms,
    all read from one store sized for the largest.  Each is
    build_krylov(steps=smallest m) grown by extend_krylov, so it is bitwise
    a fresh build of its dimension; a breakdown ends the chain, as it ends
    a fresh build of any larger m."""
    op, sigma = spec.build()
    v = starting_vector(spec)
    refs = oracle_reference(spec, op, sigma, ts, v, p)
    ms = sorted(ms)
    dec = build_krylov(op, v, KrylovConfig(m_max=ms[-1]), steps=ms[0])
    decs = {}
    for m in ms:
        if not dec.breakdown:
            dec = extend_krylov(dec, m - dec.m)
        decs[m] = dec
    return sigma, refs, decs


def _sweep_cell(spec, m, sigma, dec, refs, ts, p, corrected):
    """All estimator evaluations for one (problem, m) pair, from the
    problem's reference rows and the decomposition of dimension m.

    Every phi grid the per-t loop reads is filled first, one call each:
    q = p for the approximant, p + 1 for err1 (and the correction's
    corner), p + 2 for corrected err1, and q = 0 for rho, joined at p = 0
    uncorrected by the fractions ORDER_SAMPLES of each t where
    effective_order_quad samples rho.  A grid call never clears the
    decomposition's cache, so the per-t calls of era, err1, the
    quadratures and effective_order read only cached rows, and each
    distinct (sigma, q, t) row is computed once, at any grid length."""
    appr = Approximant(dec, sigma, p, corrected=corrected)
    quads = p == 0 and not corrected
    samples = [t * f for f in ORDER_SAMPLES if f != 1.0 for t in ts] \
        if quads and not dec.breakdown else []
    for q in sorted({0, *range(p, p + 2 + corrected)}):
        dec.phi(appr.sigma, q, ts + samples if q == 0 else ts)
    wide_rows, long_rows, violation = [], [], False
    for t, ref in zip(ts, refs):
        err = float(np.linalg.norm(appr.apply(t) - ref))
        ests = [era(dec, sigma, t, p, corrected), err1(dec, sigma, t, p, corrected)]
        if quads:  # the quadratures estimate the standard exponential approximant's error
            ests += quad_estimates(dec, sigma, t)
        values = {CORRECTED_KINDS.get(e.kind, e.kind): e.value for e in ests}
        wide_rows.append({"t": t, "oracle_error": err, "rho": effective_order(dec, sigma, t),
                          **{col: values.get(kind, math.nan)
                             for col, kind in _ESTIMATE_COLUMNS.items()}})
        for est in ests:
            long_rows.append({
                "problem": spec.kind, "m": m, "sigma": sigma, "p": p,
                "t": t, "estimator": est.kind, "value": est.value,
                "extra_matvecs": est.extra_matvecs, "oracle_error": err,
            })
            violation = violation or (est.is_proven_upper_bound
                                      and _breaks_bound(err, est.value))
    return wide_rows, long_rows, violation


def fmt_sigma(sigma):
    """sigma as "-1.0j", "-1.0" or "0.6-0.8j": a part that is zero is left out."""
    s = complex(sigma)
    if s.imag == 0.0:
        return repr(s.real)
    if s.real == 0.0:
        return f"{s.imag!r}j"
    return f"{s.real!r}{s.imag:+}j"


def fmt_cell(x):
    """One CSV cell: strings and integers as they are, a complex sigma by
    fmt_sigma, any other number in its shortest round-trip decimal form."""
    if isinstance(x, (str, int)):
        return str(x)
    if isinstance(x, complex):
        return fmt_sigma(x)
    return repr(float(x))


def _write_csv(path, columns, rows, key):
    """The header, then the rows sorted by the key columns, so identical
    inputs give byte-identical files in any row order."""
    lines = [",".join(columns)]
    for r in sorted(rows, key=lambda r: tuple(r[c] for c in key)):
        lines.append(",".join(fmt_cell(r[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


_PLOT_SCRIPT = '''\
"""Render log-log overlays of the sweep CSVs (generated file)."""
import csv
import math

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

FILES = {files!r}

for name in FILES:
    with open(name) as fh:
        rows = list(csv.DictReader(fh))
    t = [float(r["t"]) for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4.5))
    for col in {columns!r}:
        y = [float(r[col]) for r in rows]
        if all(math.isnan(v) for v in y):
            continue
        style = "k-" if col == "oracle_error" else None
        if style:
            ax.loglog(t, y, style, label=col, linewidth=2)
        else:
            ax.loglog(t, y, label=col)
    ax.set_xlabel("t")
    ax.set_ylabel("error / estimate")
    ax.set_title(name)
    ax.legend(fontsize=7)
    fig.tight_layout()
    out = name.rsplit(".", 1)[0] + ".png"
    fig.savefig(out, dpi=150)
    print("wrote", out)
'''


def cmd_sweep(config, out_dir, threads=1, seed_override=None):
    specs = _problem_specs(config, seed_override)
    section = _checked(config.get("sweep"), "sweep")
    ms = section.get("m")
    _require(isinstance(ms, list) and ms, "sweep needs a nonempty 'm' list")
    ms = _distinct([_number(m, "sweep m", 2, True) for m in ms], "sweep m")
    ts = _t_grid(section)
    p = _number(section.get("p", 0), "sweep p", 0, True)
    corrected = section.get("corrected", False)
    _require(isinstance(corrected, bool), f"sweep 'corrected' must be a bool, got {corrected!r}")

    def each(fn, items):
        """fn over items, on --threads threads."""
        if threads == 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))

    shared = each(lambda spec: _sweep_problem(spec, ms, ts, p), specs)
    cells = [(spec, m, sigma, decs[m], refs)
             for spec, (sigma, refs, decs) in zip(specs, shared) for m in ms]
    results = each(lambda cell: _sweep_cell(*cell, ts, p, corrected), cells)

    all_long = []
    files = []
    violated = False
    for (spec, m, *_), (wide, long_rows, violation) in zip(cells, results):
        name = f"sweep_{spec.kind}_m{m}.csv"
        _write_csv(out_dir / name, WIDE_COLUMNS, wide, ("t",))
        files.append(name)
        all_long.extend(long_rows)
        violated = violated or violation
    _write_csv(out_dir / "estimates_long.csv", LONG_COLUMNS, all_long, LONG_KEY)
    (out_dir / "plot_sweeps.py").write_text(_PLOT_SCRIPT.format(
        files=sorted(files), columns=("oracle_error", *_ESTIMATE_COLUMNS)))
    return 1 if violated else 0


def _bench_run(run, specs):
    """(spec, m, ctrl, estimator, n_steps, t_final) of one bench run, with
    n_steps None for a run to t_final and t_final None otherwise."""
    _checked(run, "bench run")
    kind, estimator = run.get("problem"), run.get("estimator", "era")
    _require(isinstance(kind, str) and kind in specs, f"unknown bench problem {kind!r}")
    _require(isinstance(estimator, str) and estimator in ESTIMATORS,
             f"unknown estimator {estimator!r}")
    try:
        m = _number(run["m"], "m", 2, True)
        ctrl = ControllerSpec(run["controller"], _number(run["tol"], "tol", 0.0))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad bench run: {exc}") from exc
    _require(("n_steps" in run) != ("t_final" in run),
             "bench run needs exactly one of 'n_steps' and 't_final'")
    if "n_steps" in run:
        return specs[kind], m, ctrl, estimator, _number(run["n_steps"], "n_steps", 1, True), None
    t_final = _number(run["t_final"], "t_final", 0.0)
    _require(t_final > 0.0, "t_final must be > 0")
    return specs[kind], m, ctrl, estimator, None, t_final


def cmd_bench(config, out_dir, seed_override=None):
    specs = {s.kind: s for s in _problem_specs(config, seed_override)}
    section = _checked(config.get("bench"), "bench")
    runs = section.get("runs")
    _require(isinstance(runs, list) and runs, "bench needs a nonempty 'runs' list")
    parsed = [_bench_run(run, specs) for run in runs]

    rows = []
    violated = False
    for spec, m, ctrl, estimator, n_steps, t_final in parsed:
        op, sigma = spec.build()
        v = starting_vector(spec)
        cfg = KrylovConfig(m_max=m)
        try:
            if n_steps is not None:
                result = propagate_fixed_steps(op, sigma, v, n_steps, cfg, ctrl, estimator)
            else:
                result = propagate(op, sigma, v, t_final, cfg, ctrl, estimator)
        except RuntimeError as exc:
            raise ConfigError(f"bench run {spec.kind}, {ctrl.kind}, m = {m}: {exc}") from exc
        total_t = result.total_time
        ref = oracle_reference(spec, op, sigma, [total_t], v)[0]
        err = float(np.linalg.norm(result.w_final - ref))
        rows.append({
            "problem": spec.kind, "controller": ctrl.kind, "estimator": estimator, "m": m,
            "tol": ctrl.tol, "N": len(result.records), "total_t": total_t,
            "total_matvecs": result.total_matvecs,
            "accumulated_bound": result.accumulated_bound,
            "oracle_error_per_unit_t": err / total_t,
        })
        if all(r.estimate.is_proven_upper_bound for r in result.records):
            # the accumulated bound, and for per-unit-step runs tol * total_t
            violated = (violated or _breaks_bound(err, result.accumulated_bound)
                        or (ctrl.error_model == "per_unit_step"
                            and _breaks_bound(err, ctrl.tol * total_t)))
    _write_csv(out_dir / "bench.csv", BENCH_COLUMNS, rows, BENCH_KEY)
    return 1 if violated else 0


def cmd_build(config, out_dir, seed_override=None):
    for spec in _problem_specs(config, seed_override):
        op, sigma = spec.build()
        base = out_dir / spec.kind
        op.to_matrix_market(base.with_suffix(".mtx"))
        meta = {
            "kind": spec.kind,
            "params": spec.params,
            "seed": spec.seed,
            "sigma": fmt_sigma(sigma),
            "n": op.n,
            "nnz": op.nnz,
            "symmetry": op.symmetry,
            "nonexpansive": op.log_norm_bound(sigma) <= 0.0,
            "norm_1": op.norm_1,
            "norm_inf": op.norm_inf,
        }
        base.with_suffix(".meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="krylovexp",
        description="Krylov exponential/phi action experiments")
    parser.add_argument("command", choices=("build", "sweep", "bench"))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="override every problem seed")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigError("--seed must fit in 64 bits")
        config = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "build":
            return cmd_build(config, out_dir, args.seed)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, args.threads, args.seed)
        return cmd_bench(config, out_dir, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
