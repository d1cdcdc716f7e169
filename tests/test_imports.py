"""Importing the package loads only what every call needs."""

import os
import subprocess
import sys
from pathlib import Path

import krylovexp

# each is loaded by the first call that uses it: Matrix Market I/O, the
# sine-transform oracle and the Chebyshev oracle's Bessel coefficients
DEFERRED = ("scipy.io", "scipy.fft", "scipy.special")


def _loaded_after(code):
    """The DEFERRED modules a fresh interpreter holds after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(krylovexp.__file__).parents[1]), env.get("PYTHONPATH", "")])
    probe = f"import sys\n{code}\nprint(*(m for m in {DEFERRED!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.split()


def test_import_loads_no_deferred_module():
    assert _loaded_after("import krylovexp") == []


def test_the_calls_that_use_them_load_them(tmp_path):
    """The probe does see a loaded module: each deferred import happens on
    the first call that needs it."""
    setup = ("import krylovexp as kx\n"
             "spec = kx.ProblemSpec('heat', {'n': 4})\n"
             "op, v = spec.build()[0], kx.starting_vector(spec)\n")
    for call, module in (("kx.oracle_laplacian(4, -1j, [0.1], v)", "scipy.fft"),
                         ("kx.oracle_chebyshev(op, -1j, [0.1], v)", "scipy.special"),
                         (f"op.to_matrix_market({str(tmp_path / 'heat.mtx')!r})", "scipy.io")):
        assert module in _loaded_after(setup + call), call
