"""krylovexp benchmark: certified-solve time on two workloads.

    python3 perfbench/run.py --workload cd_arnoldi --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it carries the per-layer metrics of a traced run.  Untraced ops are timed
against a fixed reference workload run next to them (reference.py), and
their ratio holds when other tenants slow the machine down.  A fuller record (the
environment, sample counts, tail percentiles, per-layer extras) goes to
``perfbench/results/``.  See perfbench/README.md for what each metric
means.
"""

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# one BLAS thread in this process and its children, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
WORKLOADS = ("cd_arnoldi", "sweep_cli")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_QUANTILES = (0.999, 0.99, 0.9)
MIN_BEYOND = 10


def _rank(q, n):
    """1-based nearest rank of the q-quantile of n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def quantile(samples, q):
    return sorted(samples)[_rank(q, len(samples)) - 1]


def tail_percentile(samples):
    """The highest of p99.9, p99 and p90 (nearest rank) with at least
    MIN_BEYOND samples above its rank, as (label, value, samples beyond),
    or None when even p90 has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_QUANTILES:
        rank = _rank(q, n)
        if n - rank >= MIN_BEYOND:
            return f"p{q * 100:g}", ordered[rank - 1], n - rank
    return None


def _use_source():
    if not (SRC / "krylovexp" / "__init__.py").is_file():
        sys.exit(f"error: no krylovexp sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(name, seed):
    """Seconds for importing krylovexp and building the workload's inputs."""
    start = time.perf_counter()
    import workloads
    workloads.make_workloads(WORK)[name].setup(seed)
    return time.perf_counter() - start


def setup_sample(name, seed):
    """setup_probe in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment():
    import numpy
    import scipy
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


class Phase:
    """Ops of one kind (traced or not), each checked after its timer stops."""

    def __init__(self, wl, state, verified):
        self.wl = wl
        self.state = state
        self.verified = verified
        self.times = []
        self.failed = 0

    def step(self, k, call):
        self.wl.prepare(self.state, k)
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            result = None
            traceback.print_exc()
        self.times.append(time.perf_counter() - start)
        ref = self.verified[k]
        ok = result is not None and ref is not None and ref.ok
        if ok:
            try:
                ok = self.wl.same(self.state, k, ref.reference, result)
            except Exception:
                ok = False
                traceback.print_exc()
        self.failed += not ok
        return result


def relative_times(times, blocks):
    """Each op's time over the mean of the reference blocks on either side
    of it: blocks[i] ran just before op i and blocks[i + 1] just after."""
    if len(blocks) != len(times) + 1:
        raise ValueError("need one reference block before each op and one after the last")
    return [2.0 * t / (blocks[i] + blocks[i + 1]) for i, t in enumerate(times)]


def per_input_median(values, n):
    """Mean over the n inputs of the median of each input's values; ops
    cycle over the inputs, so op j ran input j % n."""
    return statistics.fmean(statistics.median(values[k::n]) for k in range(n))


def timed_loop(wl, state, verified, seconds, reference, probe):
    """Back-to-back untraced ops, one client, in whole passes over the
    inputs until `seconds` have passed, each op preceded by a block of the
    reference workload, and one more block after the last op.
    probe() runs SETUP_PROBES times at evenly spaced points of the loop,
    so that its samples see the machine at different moments; its time is
    not loop time.  Returns the phase, the reference blocks, the loop time
    and the probe samples."""
    phase = Phase(wl, state, verified)
    n = wl.inputs(state)
    schedule = [seconds * j / SETUP_PROBES for j in range(SETUP_PROBES)]
    samples = []
    blocks = []
    gc.collect()
    loop_s = 0.0
    i = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while loop_s < seconds or i % n:
            if len(samples) < SETUP_PROBES and loop_s >= schedule[len(samples)]:
                samples.append(probe())
            start = time.perf_counter()
            blocks.append(reference.block())
            k = i % n
            phase.step(k, lambda: wl.run(state, k))
            i += 1
            loop_s += time.perf_counter() - start
    blocks.append(reference.block())
    while len(samples) < SETUP_PROBES:
        samples.append(probe())
    return phase, blocks, loop_s, samples


def traced_loop(wl, state, verified, seconds, tracer):
    """Untraced and traced ops alternate on the same input, so both see
    the same load from the rest of the machine, in whole passes over the
    inputs until `seconds` have passed.  Returns both phases, the
    per-layer metrics and extras."""
    import tracing
    plain = Phase(wl, state, verified)
    traced = Phase(wl, state, verified)
    orth, substeps, iterations, nonconverged = [], [], [], []
    n = wl.inputs(state)

    def run_traced(i, k):
        result, flagged = tracer.run(i, wl.run, state, k)
        nonconverged.append(flagged)
        return result

    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain.step(k, lambda: wl.run(state, k))
        with tracer:
            result = traced.step(k, lambda: run_traced(i, k))
        if result is not None:
            orth.extend(tracing.orth_loss(d) for d in tracer.take_decompositions())
            s, it = wl.step_counts(result)
            substeps.append(s)
            iterations.append(it)
        i += 1
        if time.perf_counter() >= deadline and i % n == 0:
            break
    metrics, extras = tracing.layer_metrics(tracer.spans, range(i))
    metrics.update({
        "krylov.orth_loss.max": max(orth, default=0.0),
        "stepper.substeps": sum(substeps) / i,
        "stepper.controller_iterations": sum(iterations) / i,
        "stepper.nonconverged": sum(nonconverged) / i,
        "trace.overhead_frac": statistics.median(
            t / p for t, p in zip(traced.times, plain.times)) - 1.0,
    })
    return (plain, traced), metrics, extras


def verify_all(wl, state):
    out = []
    for k in range(wl.inputs(state)):
        wl.prepare(state, k)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out.append(wl.verify(state, k))
        except Exception:
            traceback.print_exc()
            out.append(None)
    return out


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    _use_source()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    units = declared_metrics(args.trace)

    import krylovexp
    import reference
    import tracing
    import workloads
    if not Path(krylovexp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: krylovexp was imported from {krylovexp.__file__}, not {SRC}")
    wl = workloads.make_workloads(WORK)[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            state = tracer.run(tracing.SETUP, wl.setup, args.seed)[0]
    else:
        state = wl.setup(args.seed)
    verified = verify_all(wl, state)
    good = [v for v in verified if v is not None]
    extras = {"inputs": [None if v is None else {"ok": v.ok, **v.detail} for v in verified]}

    if args.trace:
        phases, metrics, layer_extras = traced_loop(wl, state, verified,
                                                    args.seconds, tracer)
        extras.update(layer_extras)
        extras["ops_per_kind"] = len(phases[0].times)
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    else:
        phase, blocks, loop_s, setup_s = timed_loop(
            wl, state, verified, args.seconds, reference.Reference(wl.ref_recipe),
            lambda: setup_sample(args.workload, args.seed))
        phases = (phase,)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "solve_rel.p50": per_input_median(relative_times(phase.times, blocks),
                                              wl.inputs(state)),
            "matvecs_per_solve": statistics.fmean(v.matvecs for v in good) if good else 0.0,
            "err_over_tol.max": max((v.err_over_tol for v in good), default=0.0),
        }
        tail = tail_percentile(phase.times)
        extras.update({
            "setup_s.samples": setup_s,
            "solve_s.samples": len(phase.times),
            "solve_s.min": min(phase.times),
            "solve_s.p10": quantile(phase.times, 0.1),
            "solve_s.p50": statistics.median(phase.times),
            "solve_s.tail": None if tail is None else dict(zip(("percentile", "value", "beyond"), tail)),
            "solves_per_s": len(phase.times) / (loop_s - sum(blocks[:-1])),
            "reference_s.p50": statistics.median(blocks),
        })

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    extras["failed_frac"] = failed / attempted
    correct = failed == 0 and len(good) == len(verified) and all(v.ok for v in good)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "extras": extras,
        "result": result}, indent=1) + "\n")
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
