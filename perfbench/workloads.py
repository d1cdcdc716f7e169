"""The benchmark's workloads, each driving krylovexp through its public API.

A workload turns the seed into inputs (setup), runs one op on one input
(prepare, then run), verifies each input once with an untimed op checked
against the package's own oracles (verify), and checks every later op on
that input against the verified result (same).  Only run is timed.
"""

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import krylovexp as kx
import krylovexp.cli
from tracing import TARGETS, Tracer

# the CLI's self-check: relative slack on a bound, and an absolute slack
# of ten times the oracle's target accuracy
ORACLE_ACCURACY = 1e-13
BOUND_SLACK_REL = 1e-9
ABS_SLACK = 10.0 * ORACLE_ACCURACY

M_MAX = 30


@dataclass
class Verified:
    """What the verifying op of one input established."""
    ok: bool
    reference: object
    matvecs: int
    err_over_tol: float
    detail: dict = field(default_factory=dict)


class PropagateWorkload:
    """Each op is one kx.propagate call on one start vector."""

    def __init__(self, name, problem, t_final, controller, estimator, ref_recipe):
        self.name = name
        self.ref_recipe = ref_recipe
        self.problem = problem
        self.t_final = t_final
        self.controller = controller
        self.estimator = estimator

    def setup(self, seed):
        """The problem's conventional start vector; the seed selects nothing."""
        spec = kx.ProblemSpec(self.problem)
        op, sigma = spec.build()
        return {"op": op, "sigma": sigma, "vectors": [kx.starting_vector(spec)],
                "cfg": kx.KrylovConfig(m_max=M_MAX),
                "ctrl": kx.ControllerSpec(*self.controller)}

    def inputs(self, state):
        return len(state["vectors"])

    def prepare(self, state, i):
        pass

    def run(self, state, i):
        return kx.propagate(state["op"], state["sigma"], state["vectors"][i],
                            self.t_final, state["cfg"], state["ctrl"],
                            self.estimator)

    def verify(self, state, i):
        """One untimed op checked by the CLI bench command's rules against
        oracle_series: the accumulated bound when every step is proven,
        and err / t <= tol under the per-unit-step model."""
        result = self.run(state, i)
        v = state["vectors"][i]
        ctrl = state["ctrl"]
        ref = kx.oracle_series(state["op"], state["sigma"], self.t_final, v,
                               ORACLE_ACCURACY)
        w = result.w_final
        err = float(np.linalg.norm(w - ref))
        ok = bool(np.all(np.isfinite(w))) and math.isfinite(err)
        proven = all(r.estimate.is_proven_upper_bound for r in result.records)
        if proven:
            bound = result.accumulated_bound
            ok = ok and err <= bound + bound * BOUND_SLACK_REL + ABS_SLACK
            if ctrl.error_model == "per_unit_step":
                ok = ok and (err / self.t_final
                             <= ctrl.tol * (1.0 + BOUND_SLACK_REL) + ABS_SLACK / self.t_final)
        # errors below the oracle's resolution read as that resolution
        resolved = max(err, ABS_SLACK)
        return Verified(ok=ok, reference=w.tobytes(),
                        matvecs=result.total_matvecs,
                        err_over_tol=resolved / self.t_final / ctrl.tol,
                        detail={"oracle_error": err, "proven": proven,
                                "substeps": len(result.records)})

    def same(self, state, i, reference, result):
        return result.w_final.tobytes() == reference

    @staticmethod
    def step_counts(result):
        return (len(result.records),
                sum(r.controller_iterations for r in result.records))


SWEEP_CONFIG = {
    "problems": [{"kind": "hubbard"}, {"kind": "heat"},
                 {"kind": "convection_diffusion"}],
    "sweep": {"m": [10, 30], "p": 0,
              "t_grid": {"start": 1e-3, "stop": 0.1, "points": 12, "scale": "log"}},
}


class SweepWorkload:
    """Each op is one in-process ``krylovexp sweep`` on one (problem, m)
    cell of SWEEP_CONFIG; the cells are the inputs, so a pass over the
    inputs is the whole sweep.  The CLI builds each cell on its own, so
    the cells together do the work of the whole sweep."""

    name = "sweep_cli"
    # reference calls timed next to each op (see reference.py): mostly the
    # series oracle's kind of work, under a tenth of the mean op's time
    ref_recipe = {"sparse": 20, "dense": 2, "vector": 2}

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir) / self.name

    def setup(self, seed):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        cells = []
        for problem in SWEEP_CONFIG["problems"]:
            for m in SWEEP_CONFIG["sweep"]["m"]:
                cell = f"{problem['kind']}_m{m}"
                config = self.work_dir / f"{cell}.json"
                config.write_text(json.dumps({
                    "problems": [problem],
                    "sweep": {**SWEEP_CONFIG["sweep"], "m": [m]}}))
                out = self.work_dir / cell
                argv = ["sweep", "--config", str(config), "--out", str(out),
                        "--threads", "1", "--seed", str(seed)]
                cells.append((argv, out))
        return {"cells": cells}

    def inputs(self, state):
        return len(state["cells"])

    def prepare(self, state, i):
        shutil.rmtree(state["cells"][i][1], ignore_errors=True)

    def run(self, state, i):
        return krylovexp.cli.main(state["cells"][i][0])

    def _outputs(self, state, i, code):
        out = state["cells"][i][1]
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def verify(self, state, i):
        """One untimed op, its matvecs counted (the sweep reports none).
        Exit code 0 is the CLI's own check that no proven bound was
        exceeded.  err_over_tol is that check's ratio for the era rows,
        error / (era * (1 + slack) + absolute slack); 1 is the limit."""
        counter = Tracer(targets=[t for t in TARGETS if t[2] == "sparse.matvec"])
        with counter:
            code, _ = counter.run(0, self.run, state, i)
        matvecs = counter.fired().get("sparse.matvec", 0)
        reference = self._outputs(state, i, code)
        ratio = 0.0
        rows = reference[1]["estimates_long.csv"].decode().splitlines()
        header = rows[0].split(",")
        col = {c: header.index(c) for c in ("estimator", "value", "oracle_error")}
        for line in rows[1:]:
            cells = line.split(",")
            if cells[col["estimator"]] != "era":
                continue
            value = float(cells[col["value"]])
            err = float(cells[col["oracle_error"]])
            ratio = max(ratio, err / (value * (1.0 + BOUND_SLACK_REL) + ABS_SLACK))
        return Verified(ok=code == 0 and math.isfinite(ratio), reference=reference,
                        matvecs=matvecs, err_over_tol=ratio,
                        detail={"exit_code": code, "files": sorted(reference[1])})

    def same(self, state, i, reference, result):
        return self._outputs(state, i, result) == reference

    @staticmethod
    def step_counts(result):
        return 0, 0


def make_workloads(work_dir):
    return {w.name: w for w in (
        # non-normal, dissipative: Arnoldi, estimator re-evaluation and Pade
        # reference: Gram-Schmidt, Pade and matvecs in about the op's
        # proportions, under a tenth of its time
        PropagateWorkload("cd_arnoldi", "convection_diffusion", 0.1,
                          ("heuristic_iterated", 1e-8), "trapezoid_quad",
                          ref_recipe={"sparse": 1, "dense": 4, "vector": 5}),
        SweepWorkload(work_dir),
    )}
