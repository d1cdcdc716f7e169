"""Span tracing of krylovexp's layers from outside the package.

A Tracer wraps the public functions and methods listed in TARGETS while
it is installed.  Each wrapped call records a span (name, start, end,
parent span, op id) in memory; nothing inside the package is edited.
Functions are patched under every name a krylovexp module binds them to,
because callers look them up in their own module namespace (for example
``krylovexp.stepper.build_krylov``).  Methods and properties are patched
on their class.

The tracer assumes one thread: the harness runs the CLI with
``--threads 1``.
"""

import functools
import gzip
import json
import math
import sys
import time
import warnings

import numpy as np

from krylovexp import (approximant, cli, dense, estimators, krylov, oracle,
                       problems, sparse, stepper)

# (owner, attribute, span name, kind); kind is "function", "method" or
# "property".  The layer of a span is the part of its name before the dot.
TARGETS = (
    (problems.ProblemSpec, "build", "problems.build", "method"),
    (problems, "starting_vector", "problems.starting_vector", "function"),
    (sparse.SparseOperator, "matvec", "sparse.matvec", "method"),
    (krylov, "build_krylov", "krylov.build", "function"),
    (krylov.KrylovDecomposition, "V", "krylov.V", "property"),
    (krylov.KrylovDecomposition, "T", "krylov.T", "property"),
    (dense, "expm_dense", "dense.expm", "function"),
    (dense, "phi_dense", "dense.phi_dense", "function"),
    (dense, "phi_scalar", "dense.phi_scalar", "function"),
    (dense, "symtrid_eig", "dense.symtrid_eig", "function"),
    (approximant.Approximant, "apply", "approximant.apply", "method"),
    (approximant, "effective_order", "approximant.effective_order", "function"),
    (estimators, "evaluate", "estimators.evaluate", "function"),
    (estimators, "era", "estimators.era", "function"),
    (estimators, "err1", "estimators.err1", "function"),
    (estimators, "quad_estimates", "estimators.quad_estimates", "function"),
    (stepper, "propagate", "stepper.propagate", "function"),
    (stepper, "step_size_direct", "stepper.step_size_direct", "function"),
    (stepper, "step_size_iterated", "stepper.step_size_iterated", "function"),
    (oracle, "oracle_series", "oracle.series", "function"),
    (oracle, "oracle_laplacian", "oracle.laplacian", "function"),
    (cli, "main", "cli.main", "function"),
    (cli, "cmd_sweep", "cli.sweep", "function"),
)

OP = "bench.op"
SETUP = "setup"

NONCONVERGED_TEXT = "did not converge"


def _matvec_bytes(args, result):
    """Bytes a CSR matvec must touch at least: matrix arrays, x and y."""
    csr = args[0].csr
    return (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
            + np.asarray(args[1]).nbytes + result.nbytes)


def _estimates(args, result):
    """(estimates returned, extra matvecs they report)."""
    if isinstance(result, list):
        return len(result), sum(e.extra_matvecs for e in result)
    return 1, result.extra_matvecs


def _rho_invalid(args, result):
    return not (math.isfinite(result) and result >= 0.0)


# what a span keeps of its call, by span name
_NOTES = {
    "sparse.matvec": _matvec_bytes,
    "estimators.evaluate": _estimates,
    "estimators.era": _estimates,
    "estimators.err1": _estimates,
    "estimators.quad_estimates": _estimates,
    "approximant.effective_order": _rho_invalid,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "krylovexp" or name.startswith("krylovexp."))]


class Tracer:
    """Records spans of the wrapped calls made while an op is open.

    spans[i] = [name, start, end, parent index or -1, op id, note]
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.decompositions = []
        self._stack = []
        self._op = None
        self._patched = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------
    def install(self):
        """Patch every target.  A missing target raises AttributeError, so
        a rename inside the package fails here instead of zeroing a layer."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        try:
            for owner, attr, name, kind in self.targets:
                original = getattr(owner, attr) if kind != "property" else vars(owner).get(attr)
                if kind == "property":
                    if not isinstance(original, property):
                        raise AttributeError(f"{owner.__name__}.{attr} is not a property")
                    self._set(owner, attr, original,
                              property(self._wrap(original.fget, name)))
                elif kind == "method":
                    self._set(owner, attr, original, self._wrap(original, name))
                else:
                    wrapper = self._wrap(original, name)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        note = _NOTES.get(name)
        keep_dec = name == "krylov.build"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1] = start - self._t0
                span[2] = end - self._t0
            if note is not None:
                span[5] = note(args, result)
            if keep_dec:
                self.decompositions.append(result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- ops ----------------------------------------------------------------
    def run(self, op_id, fn, *args):
        """Call fn(*args) as one op: a root span named OP under op_id.

        Returns (result, "did not converge" warnings raised)."""
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        idx = len(self.spans)
        span = [OP, 0.0, 0.0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        self._op = op_id
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                end = time.perf_counter()
                self._op = None
                self._stack.pop()
                span[1] = start - self._t0
                span[2] = end - self._t0
        nonconverged = sum(NONCONVERGED_TEXT in str(w.message) for w in caught)
        return result, nonconverged

    def take_decompositions(self):
        decs, self.decompositions = self.decompositions, []
        return decs

    def fired(self):
        """Span counts by name."""
        counts = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not subtracted twice."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start  # end of the part covered so far; children come by start time
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo = max(lo, reach)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _layer(name):
    return name.split(".", 1)[0]


def orth_loss(dec):
    """||V^H V - I||_2 of a decomposition's basis."""
    V = dec.V
    return float(np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1]), 2))


def layer_metrics(spans, op_ids, setup_id=SETUP):
    """Per-layer numbers per op over the spans of op_ids, plus the
    problems-layer time of the traced setup.

    Matvecs are attributed to the layer of their nearest enclosing
    non-sparse span.
    """
    ops = set(op_ids)
    n_ops = len(ops)
    selfs = self_times(spans)
    by_name = {}
    setup_problems = 0.0
    matvec_layer = {}
    matvec_bytes = 0
    computed = requested = reported = 0
    rho_invalid = 0
    for i, span in enumerate(spans):
        name, start, end, parent, op, note = span
        if op == setup_id and _layer(name) == "problems":
            setup_problems += selfs[i]
        if op not in ops:
            continue
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += selfs[i]
        entry[2] += end - start
        if note is None:
            continue  # the call raised and returned nothing to account for
        if name == "sparse.matvec":
            matvec_bytes += note
            p = parent
            while p >= 0 and _layer(spans[p][0]) == "sparse":
                p = spans[p][3]
            layer = _layer(spans[p][0]) if p >= 0 else "bench"
            matvec_layer[layer] = matvec_layer.get(layer, 0) + 1
        elif name == "approximant.effective_order":
            rho_invalid += bool(note)
        elif _layer(name) == "estimators":
            if name != "estimators.evaluate":
                computed += note[0]
            p = parent
            while p >= 0 and _layer(spans[p][0]) != "estimators":
                p = spans[p][3]
            if p < 0:
                requested += note[0]
                reported += note[1]

    def calls(*names):
        return sum(by_name.get(n, (0,))[0] for n in names) / n_ops

    def self_s(*names):
        return sum(by_name.get(n, (0, 0.0))[1] for n in names) / n_ops

    def total_s(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in names) / n_ops

    def layer_self_s(layer):
        return sum(v[1] for k, v in by_name.items() if _layer(k) == layer) / n_ops

    matvec_s = self_s("sparse.matvec") * n_ops
    return {
        "problems.build_s": setup_problems + layer_self_s("problems"),
        "sparse.matvec.calls": calls("sparse.matvec"),
        "sparse.matvec.self_s": self_s("sparse.matvec"),
        "sparse.matvec.gbytes_per_s_computed":
            matvec_bytes / matvec_s / 1e9 if matvec_s > 0 else 0.0,
        "krylov.build.calls": calls("krylov.build"),
        "krylov.build.self_s": self_s("krylov.build"),
        "krylov.basis.self_s": self_s("krylov.V", "krylov.T"),
        "dense.expm.calls": calls("dense.expm"),
        "dense.expm.self_s": self_s("dense.expm"),
        "dense.phi.calls": calls("dense.phi_dense", "dense.phi_scalar"),
        "dense.phi.self_s": self_s("dense.phi_dense", "dense.phi_scalar"),
        "dense.symtrid_eig.calls": calls("dense.symtrid_eig"),
        "dense.symtrid_eig.self_s": self_s("dense.symtrid_eig"),
        "approximant.apply.calls": calls("approximant.apply"),
        "approximant.apply.self_s": self_s("approximant.apply"),
        "approximant.effective_order.calls": calls("approximant.effective_order"),
        "approximant.effective_order.self_s": self_s("approximant.effective_order"),
        "approximant.rho_invalid": rho_invalid / n_ops,
        "estimators.evaluate.calls": calls("estimators.evaluate"),
        "estimators.evaluate.self_s": layer_self_s("estimators"),
        "estimators.computed_per_requested":
            computed / requested if requested else 0.0,
        "estimators.matvecs_unreported":
            (matvec_layer.get("estimators", 0) - reported) / n_ops,
        "stepper.control.self_s":
            self_s("stepper.step_size_direct", "stepper.step_size_iterated"),
        "oracle.series.calls": calls("oracle.series"),
        "oracle.series.s": total_s("oracle.series"),
        "oracle.laplacian.s": total_s("oracle.laplacian"),
        "oracle.matvecs": matvec_layer.get("oracle", 0) / n_ops,
        "cli.sweep.self_s": layer_self_s("cli"),
    }, {"layer_self_s": {layer: layer_self_s(layer)
                         for layer in sorted({_layer(k) for k in by_name})},
        "matvecs_by_layer": {k: v / n_ops for k, v in sorted(matvec_layer.items())}}

