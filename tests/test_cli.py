"""End-to-end runs of the krylovexp command line driver."""

import collections
import csv
import json

import numpy as np
import pytest
import scipy.io

from krylovexp import cli
from krylovexp.estimators import ESTIMATORS
from krylovexp.krylov import KrylovDecomposition
from krylovexp.cli import (BENCH_COLUMNS, BENCH_KEY, LONG_COLUMNS, LONG_KEY,
                           WIDE_COLUMNS, _breaks_bound, _write_csv, fmt_cell,
                           fmt_sigma, main)
from krylovexp.oracle import TARGET_ACCURACY
from krylovexp.problems import ProblemSpec


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SWEEP_CFG = {
    "problems": [{"kind": "heat", "params": {"n": 40}, "seed": 0}],
    "sweep": {"m": [4, 6], "t_grid": {"values": [0.5, 0.1, 1.0]}},
}

BENCH_CFG = {
    "problems": [{"kind": "heat", "params": {"n": 30}}],
    "bench": {"runs": [
        {"problem": "heat", "controller": "direct_era_local",
         "m": 8, "tol": 1e-6, "n_steps": 3},
        {"problem": "heat", "controller": "heuristic_iterated",
         "estimator": "trapezoid_quad", "m": 8, "tol": 1e-6, "t_final": 2.0},
    ]},
}


@pytest.mark.parametrize("argv_extra, payload", [
    ([], {"problems": []}),
    ([], {"problems": [{"params": {}}]}),
    ([], {"problems": [{"kind": "airy"}]}),
    ([], {"problems": [{"kind": "heat"}]}),                       # no sweep section
    ([], {"problems": [{"kind": "heat"}], "sweep": {"m": []}}),
    ([], {"problems": [{"kind": "heat"}],
          "sweep": {"m": [1], "t_grid": {"values": [1.0]}}}),
    ([], {"problems": [{"kind": "heat"}],
          "sweep": {"m": [4], "t_grid": {"values": []}}}),
    ([], {"problems": [{"kind": "heat"}],
          "sweep": {"m": [4], "t_grid": {"values": [-1.0]}}}),
    ([], {"problems": [{"kind": "heat"}],
          "sweep": {"m": [4], "t_grid": {"start": 1.0, "stop": 2.0}}}),
    ([], {"problems": [{"kind": "heat"}],
          "sweep": {"m": [4], "t_grid": {"start": 2.0, "stop": 1.0, "points": 3}}}),
    (["--threads", "0"], SWEEP_CFG),
    (["--seed", "-1"], SWEEP_CFG),
    ([], {**SWEEP_CFG, "sweep": {**SWEEP_CFG["sweep"], "p": -1}}),
    ([], {**SWEEP_CFG, "sweep": {**SWEEP_CFG["sweep"], "m": ["a"]}}),
    ([], {**SWEEP_CFG, "sweep": {**SWEEP_CFG["sweep"], "t_grid": {"values": ["x"]}}}),
    # the oracle's target accuracy is a constant, not a setting
    ([], {"problems": [{"kind": "hubbard"}],
          "sweep": {**SWEEP_CFG["sweep"], "oracle_accuracy": 1e-13}}),
    ([], {**SWEEP_CFG, "problems": [{"kind": "heat", "params": {"n": "x"}}]}),
    ([], {**SWEEP_CFG, "sweep": {**SWEEP_CFG["sweep"], "corrected": "no"}}),
    ([], {"problems": [{"kind": "heat"}],
          "sweep": {"m": [4], "t_grid": {"start": 1.0, "stop": 2.0, "points": 3,
                                         "scale": "lg"}}}),
    ([], {**SWEEP_CFG, "problems": [{"kind": "heat", "seed": "x"}]}),
])
def test_sweep_config_errors_exit_2(tmp_path, capsys, argv_extra, payload):
    cfg = write_config(tmp_path, payload)
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path)] + argv_extra)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{problems: [")
    assert main(["sweep", "--config", str(path)]) == 2


@pytest.mark.parametrize("run", [
    {"problem": "hubbard", "controller": "direct_era", "m": 8, "tol": 1e-6,
     "n_steps": 2},                                               # not in problems
    {"problem": "heat", "controller": "direct_era", "m": 8, "tol": 1e-6},
    {"problem": "heat", "controller": "direct_era", "m": 8, "tol": 1e-6,
     "n_steps": 0},
    {"problem": "heat", "controller": "direct_era", "tol": 1e-6, "n_steps": 2},
    {"problem": "heat", "controller": "no_such_controller", "m": 8,
     "tol": 1e-6, "n_steps": 2},
    # the kind fixes the error model, so a run cannot set one
    {"problem": "heat", "controller": "heuristic_iterated", "m": 8,
     "tol": 1e-6, "n_steps": 2, "error_model": "global_budget"},
    {"problem": "heat", "controller": "direct_era_local", "m": 8, "tol": 1e-6,
     "t_final": "x"},
    {"problem": "heat", "controller": "heuristic_iterated", "estimator": "bogus",
     "m": 8, "tol": 1e-6, "n_steps": 2},
    # m = 1 has no per-unit-step inversion and no defect
    {"problem": "heat", "controller": "direct_era_local", "m": 1, "tol": 1e-6,
     "n_steps": 2},
    {"problem": "heat", "controller": "heuristic", "estimator": "trapezoid_quad",
     "m": 1, "tol": 1e-6, "n_steps": 2},
    # the a-priori first step needs tol < 1
    {"problem": "heat", "controller": "expokit_first_step_only", "m": 8, "tol": 2.0,
     "n_steps": 2},
    # keys the bench does not know, once controller settings, are not ignored
    {"problem": "heat", "controller": "heuristic", "m": 8, "tol": 1e-6,
     "n_steps": 2, "safety": 0.8},
    {"problem": "heat", "controller": "heuristic_iterated", "m": 8, "tol": 1e-6,
     "n_steps": 2, "iteration_cap": 3},
    # a run ends at a step count or at a time, not both
    {"problem": "heat", "controller": "direct_era_local", "m": 8, "tol": 1e-6,
     "n_steps": 2, "t_final": 5.0},
    # not even the model the kind implements
    {"problem": "heat", "controller": "direct_era_local", "m": 8, "tol": 1e-6,
     "n_steps": 2, "error_model": "per_unit_step"},
    # the estimator picks the corrected approximant: direct_era_local with
    # era_corrected is that run
    {"problem": "heat", "controller": "direct_era_corrected", "m": 8, "tol": 1e-6,
     "n_steps": 2},
])
def test_bench_config_errors_exit_2(tmp_path, run):
    cfg = write_config(tmp_path, {"problems": [{"kind": "heat"}],
                                  "bench": {"runs": [run]}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["build", "sweep", "bench"])
def test_repeated_problem_kind_exits_2(tmp_path, capsys, command):
    """Outputs are named by problem kind, so a second entry of one kind
    would overwrite the first one's files."""
    cfg = write_config(tmp_path, {
        "problems": [{"kind": "heat", "params": {"n": 200}},
                     {"kind": "heat", "params": {"n": 50}}],
        "sweep": SWEEP_CFG["sweep"], "bench": BENCH_CFG["bench"]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "listed twice" in capsys.readouterr().err
    assert not any(out.iterdir())


_FULL_CFG = {"problems": SWEEP_CFG["problems"], "sweep": SWEEP_CFG["sweep"],
             "bench": {"runs": [BENCH_CFG["bench"]["runs"][0]]}}


@pytest.mark.parametrize("command, where, key", [
    ("build", (), "sweeps"),
    ("sweep", ("problems", 0), "sed"),
    ("sweep", ("sweep",), "corected"),
    ("sweep", ("sweep",), "P"),
    ("sweep", ("sweep", "t_grid"), "value"),
    ("bench", ("bench",), "oracle_acuracy"),
    ("bench", ("bench", "runs", 0), "tolerance"),
], ids=["config", "problem", "sweep", "sweep-p", "t_grid", "bench", "bench-run"])
def test_misspelled_config_key_exits_2_and_names_it(tmp_path, capsys, command, where, key):
    """Every config object rejects a key it does not know, so a misspelled
    setting is never silently ignored."""
    payload = json.loads(json.dumps(_FULL_CFG))
    obj = payload
    for step in where:
        obj = obj[step]
    obj[key] = 1
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("sweep", [
    {"m": [6, 6], "t_grid": {"values": [0.5, 1.0]}},
    {"m": [6], "t_grid": {"start": 1.0, "stop": 1.0, "points": 3}},
    {"m": [6], "t_grid": {"start": 1.0, "stop": 1.0, "points": 3, "scale": "linear"}},
    {"m": [6], "t_grid": {"values": [0.5, 0.5]}},
    # a grid is its values or a range, as a bench run ends at n_steps or t_final
    {"m": [6], "t_grid": {"values": [0.5], "start": 0.1, "stop": 1.0, "points": 3}},
], ids=["m", "log-range", "linear-range", "values", "values-and-range"])
def test_sweep_repeats_and_mixed_grids_exit_2(tmp_path, capsys, sweep):
    """A repeated m or t would write its rows twice, and a grid with both
    'values' and a range would ignore one of them."""
    cfg = write_config(tmp_path, {"problems": SWEEP_CFG["problems"], "sweep": sweep})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("end", [{"n_steps": 5}, {"t_final": 2.0}], ids=["n_steps", "t_final"])
def test_bench_repeated_key_exits_2(tmp_path, capsys, end):
    """bench.csv names a row by BENCH_KEY (problem, controller, estimator,
    m, tol), so two runs that differ only in where they end would write
    two rows under one key."""
    run = {"problem": "heat", "controller": "direct_era_local", "m": 8, "tol": 1e-6}
    cfg = write_config(tmp_path, {"problems": [{"kind": "heat", "params": {"n": 30}}],
                                  "bench": {"runs": [{**run, "n_steps": 3}, {**run, **end}]}})
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
    assert "bench run key is listed twice" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_build_writes_matrix_and_metadata(tmp_path):
    cfg = write_config(tmp_path, {
        "problems": [{"kind": "heat", "params": {"n": 30}},
                     {"kind": "convection_diffusion", "params": {"n": 3}}],
    })
    out = tmp_path / "ops"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0

    meta = json.loads((out / "heat.meta.json").read_text())
    assert meta["n"] == 30
    assert meta["sigma"] == "-1.0"
    assert meta["symmetry"] == "hermitian"
    assert meta["nonexpansive"] is True

    from krylovexp import ProblemSpec
    op, _ = ProblemSpec("heat", {"n": 30}).build()
    assert meta["nnz"] == op.nnz
    loaded = scipy.io.mmread(out / "heat.mtx").tocsr()
    assert abs(loaded - op.csr).max() < 1e-15

    cd = json.loads((out / "convection_diffusion.meta.json").read_text())
    assert cd["n"] == 27 and cd["sigma"] == "1.0" and cd["symmetry"] == "general"


def test_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CFG)
    out = tmp_path / "run1"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    for name in ("sweep_heat_m4.csv", "sweep_heat_m6.csv",
                 "estimates_long.csv", "plot_sweeps.py"):
        assert (out / name).exists()

    lines = (out / "sweep_heat_m4.csv").read_text().splitlines()
    assert lines[0] == ",".join(WIDE_COLUMNS)
    assert len(lines) == 1 + 3
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == sorted(ts) == [0.1, 0.5, 1.0]
    # every row parses as floats and the proven bound dominates the error
    for line in lines[1:]:
        vals = dict(zip(WIDE_COLUMNS, map(float, line.split(","))))
        assert vals["oracle_error"] <= vals["Era"] * (1 + 1e-9) + 1e-12

    # the plot helper must at least be valid python
    src = (out / "plot_sweeps.py").read_text()
    compile(src, "plot_sweeps.py", "exec")
    assert "sweep_heat_m4.csv" in src


def test_sweep_is_deterministic_and_thread_invariant(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CFG)
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out3),
                 "--threads", "2"]) == 0
    for name in ("sweep_heat_m4.csv", "estimates_long.csv"):
        ref = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == ref
        assert (out3 / name).read_bytes() == ref


# heat at n = 6 breaks down at m = 6, so its m = 8 cell reads the broken chain
SHARED_CFG = {
    "problems": [{"kind": "heat", "params": {"n": 6}},
                 {"kind": "schrodinger_free", "params": {"n": 30}},
                 {"kind": "convection_diffusion", "params": {"n": 3}}],
    "sweep": {"m": [8, 4], "t_grid": {"values": [0.01, 0.3, 2.0]}},
}


@pytest.mark.parametrize("corrected", [False, True])
def test_sweep_shares_each_problems_work_across_m(tmp_path, monkeypatch, corrected):
    """A sweep over m = [8, 4] writes the wide CSVs of two one-m sweeps
    byte for byte, and their long rows, while it builds each problem, its
    start vector, its reference rows and its Krylov store once."""
    sweep = {**SHARED_CFG["sweep"], "corrected": corrected}
    lines = {}
    for m in (4, 8):
        cfg = write_config(tmp_path, {**SHARED_CFG, "sweep": {**sweep, "m": [m]}}, f"m{m}.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / f"m{m}")]) == 0
        lines[m] = (tmp_path / f"m{m}" / "estimates_long.csv").read_text().splitlines()

    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ProblemSpec, "build", counted("build", ProblemSpec.build))
    for name in ("starting_vector", "oracle_reference", "build_krylov"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    cfg = write_config(tmp_path, {**SHARED_CFG, "sweep": sweep}, "both.json")
    out = tmp_path / "both"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert calls == {name: 3 for name in ("build", "starting_vector", "oracle_reference",
                                          "build_krylov")}
    for problem in ("heat", "schrodinger_free", "convection_diffusion"):
        for m in (4, 8):
            name = f"sweep_{problem}_m{m}.csv"
            assert (out / name).read_bytes() == (tmp_path / f"m{m}" / name).read_bytes()
    both = (out / "estimates_long.csv").read_text().splitlines()
    assert both[0] == lines[4][0] == lines[8][0]
    assert sorted(both[1:]) == sorted(lines[4][1:] + lines[8][1:])


@pytest.mark.parametrize("points", [65, 200])
@pytest.mark.parametrize("kind", ["convection_diffusion", "heat"])
def test_sweep_cell_computes_each_phi_row_once(monkeypatch, kind, points):
    """A p = 0 cell reads four phi grids (q = 0 and q = 1 at each t, and
    q = 0 at t/2 and 3t/4 for the effective order), 4 x points distinct
    rows; each is computed exactly once, on Arnoldi (convection-diffusion)
    and Lanczos (heat) alike."""
    computed = []
    fill = KrylovDecomposition._fill

    def counted(self, sigma, q, ts):
        computed.extend((sigma, q, t) for t in ts)
        return fill(self, sigma, q, ts)

    spec = ProblemSpec(kind)
    ts = list(np.geomspace(1e-3, 10.0, points))
    sigma, refs, decs = cli._sweep_problem(spec, [10], ts, 0)
    monkeypatch.setattr(KrylovDecomposition, "_fill", counted)
    wide, _, _ = cli._sweep_cell(spec, 10, sigma, decs[10], refs, ts, 0, False)
    assert len(wide) == points
    assert len(computed) == len(set(computed)) == 4 * points


def test_seed_override_changes_starting_vector(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CFG)
    out1, out2 = tmp_path / "s0", tmp_path / "s7"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2),
                 "--seed", "7"]) == 0
    a = (out1 / "sweep_heat_m4.csv").read_bytes()
    b = (out2 / "sweep_heat_m4.csv").read_bytes()
    assert a != b


def test_bound_check_slack_is_ten_oracle_targets():
    """The absolute slack of the proven-bound check is 10 * TARGET_ACCURACY,
    exactly 1e-12: an error of 1e-12 over a zero bound passes, and the
    next float above it breaks the bound."""
    assert 10.0 * TARGET_ACCURACY == 1e-12
    assert not _breaks_bound(1e-12, 0.0)
    assert _breaks_bound(np.nextafter(1e-12, 1.0), 0.0)


def test_sweep_detects_bound_violation(tmp_path, monkeypatch):
    """A broken reference makes the proven-bound check fire: exit 1."""
    import krylovexp.oracle as oracle

    def wrong_reference(n, sigma, ts, v):
        return np.array([v * 1e6 for _ in ts])

    monkeypatch.setattr(oracle, "oracle_laplacian", wrong_reference)
    cfg = write_config(tmp_path, SWEEP_CFG)
    out = tmp_path / "viol"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "sweep_heat_m4.csv").exists()  # outputs still written


def test_bench_outputs(tmp_path):
    cfg = write_config(tmp_path, BENCH_CFG)
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0].startswith("problem,controller,estimator,m,tol,N,")
    assert len(lines) == 1 + 2
    row = dict(zip(BENCH_COLUMNS, next(l for l in lines[1:]
                                       if l.startswith("heat,direct_era_local,")).split(",")))
    assert int(row["N"]) == 3           # n_steps honoured
    # per-unit-step budget met by construction
    assert float(row["oracle_error_per_unit_t"]) <= 1e-6 * (1 + 1e-9) + 1e-11


def test_bench_global_budget_run_checks_its_own_model(tmp_path):
    """direct_era_global targets era = tol per step, so only the
    accumulated bound applies; err / t may exceed tol."""
    cfg = write_config(tmp_path, {
        "problems": [{"kind": "hubbard", "params": {"omega": 0.123}, "seed": 0}],
        "bench": {"runs": [{"problem": "hubbard", "controller": "direct_era_global",
                            "m": 10, "tol": 1e-8, "n_steps": 10}]},
    })
    out = tmp_path / "global"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    row = dict(zip(BENCH_COLUMNS, lines[1].split(",")))
    assert row["controller"] == "direct_era_global"
    err = float(row["oracle_error_per_unit_t"]) * float(row["total_t"])
    assert err <= float(row["accumulated_bound"]) * (1 + 1e-9) + 1e-12
    assert float(row["oracle_error_per_unit_t"]) > 1e-8


def test_bench_through_a_breakdown_exits_0(tmp_path):
    """heat at n = 6 breaks down before m = 10, where the projection is
    exact: every estimator kind reads 0.0 and the run covers t_final in one
    step, instead of dying with exit 1, which means a bound was exceeded."""
    runs = [{"problem": "heat", "controller": "direct_era_local", "estimator": kind,
             "m": 10, "tol": 1e-8, "t_final": 1.0} for kind in sorted(ESTIMATORS)]
    cfg = write_config(tmp_path, {"problems": [{"kind": "heat", "params": {"n": 6}}],
                                  "bench": {"runs": runs}})
    out = tmp_path / "breakdown"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()[1:]
    assert len(lines) == len(ESTIMATORS)
    for line in lines:
        row = dict(zip(BENCH_COLUMNS, line.split(",")))
        assert (row["N"], row["accumulated_bound"]) == ("1", "0.0")


@pytest.mark.parametrize("sweep", [{}, {"corrected": True}, {"p": 1}],
                         ids=["plain", "corrected", "p1"])
def test_sweep_through_a_breakdown_at_dimension_one_exits_0(tmp_path, sweep):
    """On convection-diffusion at n = 2 without convection the ones start
    vector is an eigenvector, so the Krylov build breaks down at m = 1.
    The projection is exact: the sweep writes every row, each estimate
    0.0 and rho nan (the defect has no derivative at m = 1), and exits 0,
    instead of dying with exit 1, which means a bound was exceeded."""
    ts = [0.01, 0.3, 2.0]
    cfg = write_config(tmp_path, {
        "problems": [{"kind": "convection_diffusion",
                      "params": {"n": 2, "mu1": 0.0, "mu2": 0.0}}],
        "sweep": {"m": [2, 3], "t_grid": {"values": ts}, **sweep}})
    out = tmp_path / "breakdown"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    quads = not sweep
    for m in (2, 3):
        with open(out / f"sweep_convection_diffusion_m{m}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["t"]) for r in rows] == ts
        for row in rows:
            assert row["rho"] == "nan"
            assert float(row["oracle_error"]) < 1e-14
            for col in ("Era", "Err1", "HermiteQuad", "ImprovedHermiteQuad",
                        "TrapezoidQuad", "EffectiveOrderQuad"):
                assert row[col] == ("0.0" if quads or col in ("Era", "Err1") else "nan"), col
    with open(out / "estimates_long.csv") as fh:
        long_rows = list(csv.DictReader(fh))
    assert len(long_rows) == 2 * len(ts) * (6 if quads else 2)
    assert {(r["value"], r["extra_matvecs"]) for r in long_rows} == {("0.0", "0")}


def test_bench_fixed_steps_through_a_breakdown_exits_2(tmp_path, capsys):
    """A fixed-step run cannot take the unbounded step a breakdown allows:
    the run is reported as one error line naming it (exit 2), since exit 1
    means a proven bound was exceeded."""
    run = {"problem": "heat", "controller": "heuristic_iterated",
           "estimator": "improved_hermite_quad", "m": 10, "tol": 1e-8, "n_steps": 3}
    cfg = write_config(tmp_path, {"problems": [{"kind": "heat", "params": {"n": 6}}],
                                  "bench": {"runs": [run]}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "heat" in err[0] and "heuristic_iterated" in err[0] and "m = 10" in err[0]


CD_RUN = {"problem": "convection_diffusion", "controller": "direct_era_local",
          "m": 30, "tol": 1e-6}


def test_bench_below_1e150_exits_0(tmp_path):
    """On convection-diffusion |w| falls to 4e-159 by t = 0.489, where
    np.linalg.norm loses digits; the run still reaches t_final."""
    cfg = write_config(tmp_path, {"problems": [{"kind": "convection_diffusion"}],
                                  "bench": {"runs": [{**CD_RUN, "t_final": 0.6}]}})
    out = tmp_path / "cd"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    row = dict(zip(BENCH_COLUMNS, (out / "bench.csv").read_text().splitlines()[1].split(",")))
    assert row["total_t"] == "0.6"


def test_bench_heuristic_kinds_through_a_zero_estimate_exit_0(tmp_path):
    """At tol 1e-300 on heat the era estimate of a step underflows to 0.0;
    the heuristic kinds take their first-step rule again and reach t_final
    (exit 0) instead of raising ValueError (a traceback, exit 1, the code
    for an exceeded proven bound)."""
    runs = [{"problem": "heat", "controller": kind, "m": 10, "tol": 1e-300, "t_final": 6e-30}
            for kind in ("heuristic", "expokit_first_step_only")]
    cfg = write_config(tmp_path, {"problems": [{"kind": "heat", "params": {"n": 50}}],
                                  "bench": {"runs": runs}})
    out = tmp_path / "tiny"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "bench.csv").read_text().splitlines()))
    assert [r["total_t"] for r in rows] == ["6e-30", "6e-30"]


def test_bench_vanished_vector_exits_2(tmp_path, capsys):
    """By t = 2 the convection-diffusion solution underflows to exactly 0:
    one error line naming the run (exit 2), not a traceback."""
    cfg = write_config(tmp_path, {"problems": [{"kind": "convection_diffusion"}],
                                  "bench": {"runs": [{**CD_RUN, "t_final": 2.0}]}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "cd")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "direct_era_local" in err[0] and "propagated vector vanished" in err[0]


def test_bench_detects_bound_violation(tmp_path, monkeypatch):
    import krylovexp.oracle as oracle
    monkeypatch.setattr(oracle, "oracle_laplacian",
                        lambda n, sigma, ts, v: np.array([v * 1e6 for _ in ts]))
    cfg = write_config(tmp_path, BENCH_CFG)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "v")]) == 1


def test_sweep_linear_and_log_grids(tmp_path):
    base = {"problems": [{"kind": "heat", "params": {"n": 30}}]}
    cfg_log = write_config(tmp_path, {
        **base, "sweep": {"m": [4], "t_grid": {"start": 0.1, "stop": 10.0,
                                               "points": 3}}}, "log.json")
    out = tmp_path / "log"
    assert main(["sweep", "--config", cfg_log, "--out", str(out)]) == 0
    ts = [float(l.split(",")[0]) for l in
          (out / "sweep_heat_m4.csv").read_text().splitlines()[1:]]
    assert np.allclose(ts, [0.1, 1.0, 10.0])

    cfg_lin = write_config(tmp_path, {
        **base, "sweep": {"m": [4], "t_grid": {"start": 1.0, "stop": 3.0,
                                               "points": 3,
                                               "scale": "linear"}}}, "lin.json")
    out = tmp_path / "lin"
    assert main(["sweep", "--config", cfg_lin, "--out", str(out)]) == 0
    ts = [float(l.split(",")[0]) for l in
          (out / "sweep_heat_m4.csv").read_text().splitlines()[1:]]
    assert np.allclose(ts, [1.0, 2.0, 3.0])


def test_sweep_phi_and_corrected_modes(tmp_path):
    # the quadratures are the standard exponential approximant's: with the
    # corrected approximant, at p = 0 as at p = 1, and with the standard
    # phi_1 approximant, only era and err1 (or their corrected rows) report
    for p, corrected in ((0, True), (1, True), (1, False)):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "heat", "params": {"n": 30}}],
            "sweep": {"m": [6], "t_grid": {"values": [0.2, 0.6]},
                      "p": p, "corrected": corrected},
        }, f"p{p}_{corrected}.json")
        out = tmp_path / f"p{p}_{corrected}"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "estimates_long.csv") as fh:
            kinds = [r["estimator"] for r in csv.DictReader(fh)]
        suffix = "_corrected" if corrected else ""
        assert sorted(set(kinds)) == [f"era{suffix}", f"err1{suffix}"]
        assert len(kinds) == 4
        with open(out / "sweep_heat_m6.csv") as fh:
            rows = list(csv.DictReader(fh))
        quads = ("HermiteQuad", "ImprovedHermiteQuad", "TrapezoidQuad", "EffectiveOrderQuad")
        assert len(rows) == 2 and all(r[c] == "nan" for r in rows for c in quads)
        assert all(float(r["Era"]) > 0.0 and float(r["Err1"]) > 0.0 for r in rows)


def test_write_bench_csv_deterministic(tmp_path):
    """Two problems run with the same controller, estimator, m and tol
    give two rows that the leading problem column tells apart and
    orders."""
    rows = [
        {"problem": problem, "controller": controller, "estimator": "era", "m": 10,
         "tol": 1e-8, "N": n, "total_t": n / 2.0, "total_matvecs": 10 * n,
         "accumulated_bound": n * 1e-9, "oracle_error_per_unit_t": n * 1e-10}
        for problem, controller, n in (("heat", "b", 3), ("heat", "a", 2),
                                       ("hubbard", "a", 4))
    ]
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    _write_csv(p1, BENCH_COLUMNS, rows, BENCH_KEY)
    _write_csv(p2, BENCH_COLUMNS, list(reversed(rows)), BENCH_KEY)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert lines[0].startswith("problem,")
    assert [line.split(",", 3)[:3] for line in lines[1:]] == [
        ["heat", "a", "era"], ["heat", "b", "era"], ["hubbard", "a", "era"]]


def test_write_sweep_csv_deterministic_and_sorted(tmp_path):
    rows = [
        {"problem": "b", "m": 10, "sigma": -1j, "p": 0, "t": 2.0,
         "estimator": "era", "value": 1e-3, "extra_matvecs": 0,
         "oracle_error": 9e-4},
        {"problem": "a", "m": 10, "sigma": -1j, "p": 0, "t": 1.0,
         "estimator": "err1", "value": 2e-3, "extra_matvecs": 0,
         "oracle_error": 8e-4},
    ]
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    _write_csv(p1, LONG_COLUMNS, rows, LONG_KEY)
    _write_csv(p2, LONG_COLUMNS, list(reversed(rows)), LONG_KEY)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(LONG_COLUMNS)
    assert lines[1].startswith("a,")  # sorted by problem first


def test_fmt_cell_round_trips_floats():
    for x in (1.0, 0.1, 1e-300, 12345.6789, 2.0 ** -52):
        assert float(fmt_cell(x)) == x
    assert fmt_cell(1.5) == "1.5"


def test_fmt_sigma():
    assert fmt_sigma(-1j) == "-1.0j"
    assert fmt_sigma(-1.0) == "-1.0"
    assert fmt_sigma(1.0) == "1.0"
