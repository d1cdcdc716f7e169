"""Arnoldi and Lanczos builds of the Krylov decomposition A V = V T + tau v_next e_m^*.

The decomposition object carries everything the approximants and error
estimators downstream need: the operator it was built from, the basis,
the projected matrix, the next subdiagonal entry tau, the subdiagonal
product gamma (also in log form, which is what the estimators actually
consume), breakdown state, the cached A v_next, and the per-sigma
evaluator of e^{sigma t T} e_1 and its phi relatives.

Builds are strictly incremental: extending an existing decomposition by
k steps performs exactly the same floating-point operations as building
to m+k from scratch, so the two results are bitwise identical.
"""

from dataclasses import dataclass

import numpy as np

from .dense import expm_dense, phi_dense, phi_scalar, symtrid_eig

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class KrylovConfig:
    """Build configuration.

    mode: "arnoldi", "lanczos", or "auto" (lanczos iff the operator is
        flagged hermitian).
    reorthogonalize: "none", "full", "twice", or "auto" ("twice" when
        m_max > 20, else "full").  For Arnoldi, "none" and "full" both
        mean the single modified Gram-Schmidt sweep; "twice" repeats it.
        For Lanczos, "none" is the bare three-term recurrence.
    breakdown_tol: absolute threshold on tau; None means the running
        default n * eps * max_j ||A v_j||_2.
    """

    m_max: int
    mode: str = "auto"
    reorthogonalize: str = "auto"
    breakdown_tol: float | None = None

    def __post_init__(self):
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.mode not in ("arnoldi", "lanczos", "auto"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.reorthogonalize not in ("none", "full", "twice", "auto"):
            raise ValueError(f"unknown reorthogonalize policy: {self.reorthogonalize!r}")


class KrylovDecomposition:
    """Result of build_krylov / extend_krylov.  Treat as immutable.

    Attributes
    ----------
    op : the operator the decomposition was built from
    m : reached dimension (== m_max unless breakdown ended the build early)
    tau_next : next subdiagonal entry tau_{m+1,m} (0.0 on breakdown)
    v_next : the (m+1)-th basis vector, or None on breakdown
    gamma : product of the m-1 subdiagonal entries of T (may underflow;
        log_gamma is the robust form)
    breakdown : True when the build stopped with tau at or below the
        breakdown threshold, in which case the Krylov approximation is
        exact for every t
    """

    def __init__(self, op, mode, reorth, m_max, state, breakdown_tol=None):
        self.op = op
        self.mode = mode
        self.reorth = reorth
        self.m_max = m_max
        self._bk_tol = breakdown_tol
        self._state = state
        self.breakdown = state["breakdown"]
        self.m = state["m"]
        self.tau_next = state["tau_next"]
        self.v_next = state["vs"][self.m] if not self.breakdown else None
        subdiag = self.subdiag
        self.gamma = float(np.prod(subdiag)) if subdiag.size else 1.0
        self.log_gamma = float(np.sum(np.log(subdiag))) if subdiag.size else 0.0
        self._V = None
        self._T = None
        self._a_v_next = None
        self._small = {}

    @property
    def n(self):
        return self._state["vs"][0].shape[0]

    @property
    def subdiag(self):
        """The m-1 subdiagonal entries of T (all real positive)."""
        if self.mode == "lanczos":
            return np.asarray(self._state["beta"][: self.m - 1], dtype=float)
        return np.asarray([self._state["hcols"][j][j + 1].real for j in range(self.m - 1)],
                          dtype=float)

    @property
    def V(self):
        if self._V is None:
            self._V = np.column_stack(self._state["vs"][: self.m])
        return self._V

    @property
    def T(self):
        if self._T is None:
            m = self.m
            if self.mode == "lanczos":
                T = np.zeros((m, m))
                alpha = self._state["alpha"]
                beta = self._state["beta"]
                for j in range(m):
                    T[j, j] = alpha[j]
                for j in range(m - 1):
                    T[j + 1, j] = beta[j]
                    T[j, j + 1] = beta[j]
            else:
                T = np.zeros((m, m), dtype=complex)
                for j in range(m):
                    col = self._state["hcols"][j]
                    T[: min(j + 2, m), j] = col[: min(j + 2, m)]
            self._T = T
        return self._T

    def tridiag(self):
        """(alpha, beta) of the real symmetric tridiagonal T (Lanczos mode only)."""
        if self.mode != "lanczos":
            raise ValueError("tridiag() is only available in lanczos mode")
        return (np.asarray(self._state["alpha"][: self.m], dtype=float),
                np.asarray(self._state["beta"][: self.m - 1], dtype=float))

    @property
    def matvecs_used(self):
        """Matvecs spent on this decomposition: the build's, plus one once
        a_v_next has been computed."""
        return self._state["matvecs"] + (self._a_v_next is not None)

    def a_v_next(self):
        """A applied to v_next, computed once and cached (one extra matvec)."""
        if self.breakdown:
            raise ValueError("no v_next after breakdown")
        if self._a_v_next is None:
            self._a_v_next = self.op.matvec(self.v_next)
        return self._a_v_next

    def small_eval(self, sigma):
        """The shared evaluator of e^{sigma t T} e_1 and corner phi entries
        for this decomposition and prefactor sigma."""
        if sigma not in self._small:
            self._small[sigma] = _SmallEval(self, sigma)
        return self._small[sigma]

    def dump_csv(self, path):
        """Write T, tau_next, gamma and build diagnostics to a CSV file."""
        lines = ["field,i,j,value"]
        T = self.T
        for i in range(self.m):
            for j in range(self.m):
                if T[i, j] != 0:
                    lines.append(f"T,{i},{j},{_fmt(T[i, j])}")
        lines.append(f"tau_next,,,{_fmt(self.tau_next)}")
        lines.append(f"gamma,,,{_fmt(self.gamma)}")
        lines.append(f"log_gamma,,,{_fmt(self.log_gamma)}")
        lines.append(f"m,,,{self.m}")
        lines.append(f"breakdown,,,{int(self.breakdown)}")
        lines.append(f"matvecs,,,{self.matvecs_used}")
        lines.append(f"mode,,,{self.mode}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class _SmallEval:
    """Evaluations of e^{sigma t T} e_1 and corner phi entries for one (dec, sigma).

    Every e^{sigma t T} that approximants and estimators need comes from
    here: Lanczos decompositions reuse a single symmetric tridiagonal
    eigendecomposition across all t; Arnoldi ones pay one Pade call per
    requested t.
    """

    def __init__(self, dec, sigma):
        self.dec = dec
        self.sigma = sigma
        self._u_cache = {}
        if dec.mode == "lanczos":
            alpha, beta = dec.tridiag()
            self.lam, self.Q = symtrid_eig(alpha, beta)
            self.q1 = self.Q[0].copy()
            self.qm = self.Q[dec.m - 1].copy()
        else:
            self.lam = None

    def u(self, t):
        """e^{sigma t T} e_1 as a length-m complex vector."""
        hit = self._u_cache.get(t)
        if hit is not None:
            return hit
        if self.lam is not None:
            val = self.Q @ (np.exp(self.sigma * t * self.lam) * self.q1)
        else:
            val = expm_dense(self.dec.T, self.sigma * t)[:, 0]
        if len(self._u_cache) > 256:
            self._u_cache.clear()
        self._u_cache[t] = val
        return val

    def corner_phi(self, q, t):
        """e_m^* phi_q(sigma t T) e_1."""
        if q == 0:
            return complex(self.u(t)[self.dec.m - 1])
        if self.lam is not None:
            return complex(self.qm @ (phi_scalar(self.sigma * t * self.lam, q) * self.q1))
        return complex(phi_dense(self.dec.T, self.sigma * t, q)[self.dec.m - 1])

    def phi_column(self, p, t):
        """phi_p(sigma t T) e_1 as a length-m vector (p = 0 gives u)."""
        if p == 0:
            return self.u(t)
        if self.lam is not None:
            return self.Q @ (phi_scalar(self.sigma * t * self.lam, p) * self.q1)
        return phi_dense(self.dec.T, self.sigma * t, p)


def _fmt(x):
    if isinstance(x, complex) or np.iscomplexobj(np.asarray(x)):
        xc = complex(x)
        if xc.imag == 0.0:
            return repr(xc.real)
        return f"{xc.real!r}{xc.imag:+}j"
    return repr(float(x))


def _resolve(op, cfg):
    mode = cfg.mode
    if mode == "auto":
        mode = "lanczos" if op.symmetry == "hermitian" else "arnoldi"
    if mode == "lanczos" and op.symmetry != "hermitian":
        raise ValueError("lanczos mode requires an operator flagged hermitian")
    reorth = cfg.reorthogonalize
    if reorth == "auto":
        reorth = "twice" if cfg.m_max > 20 else "full"
    return mode, reorth


def _step(state, op, mode, reorth, breakdown_tol):
    """Advance the build by one column.  Returns False on breakdown."""
    vs = state["vs"]
    j = state["m"]
    w = op.matvec(vs[j])
    state["matvecs"] += 1
    state["amax"] = max(state["amax"], float(np.linalg.norm(w)))

    if mode == "lanczos":
        if reorth == "none":
            if j > 0:
                w = w - state["beta"][j - 1] * vs[j - 1]
            a = float(np.vdot(vs[j], w).real)
            w = w - a * vs[j]
        else:
            if j > 0:
                w = w - state["beta"][j - 1] * vs[j - 1]
            a = float(np.vdot(vs[j], w).real)
            w = w - a * vs[j]
            sweeps = 2 if reorth == "twice" else 1
            for _ in range(sweeps):
                for i in range(j + 1):
                    w = w - np.vdot(vs[i], w) * vs[i]
        state["alpha"].append(a)
    else:
        h = np.zeros(j + 2, dtype=complex)
        for i in range(j + 1):
            c = np.vdot(vs[i], w)
            h[i] = c
            w = w - c * vs[i]
        if reorth == "twice":
            for i in range(j + 1):
                c = np.vdot(vs[i], w)
                h[i] += c
                w = w - c * vs[i]
        state["hcols"].append(h)

    tau = float(np.linalg.norm(w))
    tol = breakdown_tol if breakdown_tol is not None else len(w) * _EPS * state["amax"]
    state["m"] = j + 1
    if tau <= tol:
        state["breakdown"] = True
        state["tau_next"] = 0.0
        if mode == "lanczos":
            state["beta"].append(0.0)
        return False
    if mode == "lanczos":
        state["beta"].append(tau)
    else:
        state["hcols"][j][j + 1] = tau
    state["tau_next"] = tau
    vs.append(w / tau)
    return True


def build_krylov(op, v, cfg, steps=None):
    """Run the Arnoldi/Lanczos iteration from a unit vector v up to cfg.m_max.

    With steps=k (1 <= k <= cfg.m_max) only the first k columns are
    produced; the result can be grown later with extend_krylov and is
    bitwise identical to a single full build.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.n,):
        raise ValueError("start vector has wrong length")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError("start vector must have unit 2-norm")
    if steps is None:
        steps = cfg.m_max
    if not 1 <= steps <= cfg.m_max:
        raise ValueError("steps must lie in [1, m_max]")
    mode, reorth = _resolve(op, cfg)
    state = {
        "vs": [v.copy()],
        "alpha": [], "beta": [], "hcols": [],
        "amax": 0.0, "matvecs": 0, "m": 0,
        "breakdown": False, "tau_next": 0.0,
    }
    for _ in range(steps):
        if not _step(state, op, mode, reorth, cfg.breakdown_tol):
            break
    return KrylovDecomposition(op, mode, reorth, cfg.m_max, state,
                               breakdown_tol=cfg.breakdown_tol)


def extend_krylov(dec, steps):
    """Grow an existing decomposition by `steps` further columns.

    The result is bitwise identical to a fresh build of dimension
    dec.m + steps with the same configuration.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return dec
    if dec.breakdown:
        raise ValueError("cannot extend past a breakdown (the approximation is already exact)")
    if dec.m + steps > dec.m_max:
        raise ValueError(f"extension to m={dec.m + steps} exceeds m_max={dec.m_max}")
    old = dec._state
    state = {
        "vs": list(old["vs"]),
        "alpha": list(old["alpha"]), "beta": list(old["beta"]),
        "hcols": list(old["hcols"]),
        "amax": old["amax"], "matvecs": old["matvecs"], "m": old["m"],
        "breakdown": False, "tau_next": old["tau_next"],
    }
    for _ in range(steps):
        if not _step(state, dec.op, dec.mode, dec.reorth, dec._bk_tol):
            break
    return KrylovDecomposition(dec.op, dec.mode, dec.reorth, dec.m_max, state,
                               breakdown_tol=dec._bk_tol)
