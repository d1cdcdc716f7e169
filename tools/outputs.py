"""Write every output CI checks, under one directory with a sha256
manifest, and compare two such manifests.

    python tools/outputs.py configs
        Write the CLI configs CI runs, derived from README.md's JSON block,
        and the README's library example as readme_example.py, into the
        working directory.
    python tools/outputs.py run --root CHECKOUT --out DIR
        Run CHECKOUT's src on the configs of CHECKOUT's README: the
        example, build (of the README problems and of the non-default
        operators the sweeps read), the four benches and every sweep but
        the p = 1 one (minutes of series oracle), each on one thread, then
        CHECKOUT's demos.  Every output file, and each script's stdout,
        lands under DIR, listed in DIR/MANIFEST.sha256.  Any command that
        exits nonzero stops the run.
    python tools/outputs.py diff BASE HEAD --allow OUTPUT_CHANGES
        Compare the manifests of two run directories.  Exit 1 when a file
        was added, removed or changed and no line of the allow file (a path
        or a glob, relative to the run directory; blank lines and lines
        starting with # are skipped) names it, or when a line of the allow
        file names no moved file, so a stale entry cannot let later
        changes through.  Under each changed CSV, print every cell that
        moved as "path:line column: BASE -> HEAD".

CI runs this script against a change and against its parent on one
runner and one BLAS thread count, so any moved byte is the code's doing.
"""

import argparse
import csv
import fnmatch
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

MANIFEST = "MANIFEST.sha256"

# (output directory, CLI command, config) for every CLI run the manifest holds
RUNS = (
    ("build", "build", "readme_cfg"),
    # the non-default operators' .mtx and meta.json, compared as built
    # rather than only through the sweeps that read them
    ("build_nondefault", "build", "readme_cfg_nondefault"),
    ("build_cd_mu0", "build", "readme_cfg_cd_mu0"),
    ("bench", "bench", "readme_cfg"),
    ("bench_corrected", "bench", "readme_cfg_bench_corrected"),
    ("bench_cd", "bench", "readme_cfg_bench_cd"),
    ("bench_controllers", "bench", "readme_cfg_bench_controllers"),
    ("sweep_cfg", "sweep", "readme_cfg"),
    ("sweep_cfg_corrected", "sweep", "readme_cfg_corrected"),
    ("sweep_cfg_nondefault", "sweep", "readme_cfg_nondefault"),
    ("sweep_cfg_cd_mu0", "sweep", "readme_cfg_cd_mu0"),
    ("sweep_cfg_long", "sweep", "readme_cfg_long"),
    ("sweep_cfg_breakdown", "sweep", "readme_cfg_breakdown"),
)


def readme_configs(text):
    """{file name: contents} of every config CI runs, from the README text."""
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)

    def readme():
        return json.loads(block)

    files = {"readme_cfg.json": block,
             # the library example, so an API change cannot leave it stale
             "readme_example.py": re.search(r"```python\n(.*?)```", text, re.S).group(1)}
    # the same problems swept with the corrected approximant and with p = 1
    for name, change in (("corrected", {"corrected": True}), ("p1", {"p": 1})):
        cfg = readme()
        cfg["sweep"].update(change)
        files[f"readme_cfg_{name}.json"] = json.dumps(cfg)
    # the bench with the direct run propagating the corrected approximant,
    # so the self-check guards the corrected certificate too
    cfg = readme()
    for run in cfg["bench"]["runs"]:
        if run["controller"].startswith("direct_era"):
            run["estimator"] = "era_corrected"
    files["readme_cfg_bench_corrected.json"] = json.dumps(cfg)
    # the benchmark's cd_arnoldi op through bench, so the self-check
    # guards a run in real (float64) arithmetic
    cfg = {"problems": [{"kind": "convection_diffusion"}],
           "bench": {"runs": [{"problem": "convection_diffusion",
                               "controller": "heuristic_iterated",
                               "estimator": "trapezoid_quad", "m": 30,
                               "tol": 1e-8, "t_final": 0.1}]}}
    files["readme_cfg_bench_cd.json"] = json.dumps(cfg)
    # the three controller kinds no other run takes, on the README's
    # Hubbard over fixed steps and its heat to a final time
    runs = [{"problem": "hubbard", "controller": kind, "m": 10, "tol": 1e-8, "n_steps": 10}
            for kind in ("direct_era_global", "heuristic", "expokit_first_step_only")]
    runs[1]["estimator"] = "trapezoid_quad"
    runs += [{"problem": "heat", "controller": "heuristic", "m": 10, "tol": 1e-8, "t_final": 5.0},
             {"problem": "heat", "controller": "expokit_first_step_only",
              "estimator": "era_corrected", "m": 10, "tol": 1e-8, "t_final": 5.0}]
    files["readme_cfg_bench_controllers.json"] = json.dumps(
        {"problems": [p for p in readme()["problems"] if p["kind"] in ("hubbard", "heat")],
         "bench": {"runs": runs}})
    # the README sweep on non-default operators: a smaller non-normal
    # convection-diffusion, Hubbard with U = 0, the free particle at
    # n = 50, and the symmetric (Lanczos) convection-diffusion
    for name, problems in (
            ("nondefault", [{"kind": "convection_diffusion",
                             "params": {"n": 6, "mu1": 0.3, "mu2": -0.5}},
                            {"kind": "hubbard", "params": {"omega": 1.1, "U": 0.0}},
                            {"kind": "schrodinger_free", "params": {"n": 50}}]),
            ("cd_mu0", [{"kind": "convection_diffusion",
                         "params": {"mu1": 0.0, "mu2": 0.0}}])):
        files[f"readme_cfg_{name}.json"] = json.dumps(
            {"problems": problems, "sweep": readme()["sweep"]})
    # the README's heat and convection-diffusion swept over 100 t from
    # 1e-3 to 10: a cell reads 400 phi rows, on a Lanczos and an Arnoldi
    # problem
    files["readme_cfg_long.json"] = json.dumps(
        {"problems": [p for p in readme()["problems"]
                      if p["kind"] in ("heat", "convection_diffusion")],
         "sweep": {**readme()["sweep"],
                   "t_grid": {"start": 1e-3, "stop": 10.0, "points": 100, "scale": "log"}}})
    # a Krylov build that breaks down at dimension 1: at n = 2 without
    # convection the ones start vector is an eigenvector; every
    # estimate is 0.0 and rho nan, and the sweep must exit 0
    files["readme_cfg_breakdown.json"] = json.dumps(
        {"problems": [{"kind": "convection_diffusion",
                       "params": {"n": 2, "mu1": 0.0, "mu2": 0.0}}],
         "sweep": {**readme()["sweep"], "m": [2, 3]}})
    # the README sweep split into one config per m
    for m in readme()["sweep"]["m"]:
        cfg = readme()
        cfg["sweep"]["m"] = [m]
        files[f"readme_cfg_m{m}.json"] = json.dumps(cfg)
    return files


def write_configs(readme, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in readme_configs(Path(readme).read_text()).items():
        (directory / name).write_text(text)


def write_manifest(directory):
    """Write DIR/MANIFEST.sha256: one "sha256  path" line per file under
    DIR, sorted by path."""
    directory = Path(directory)
    files = sorted(p for p in directory.rglob("*") if p.is_file() and p.name != MANIFEST)
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(directory).as_posix()}"
             for p in files]
    (directory / MANIFEST).write_text("".join(line + "\n" for line in lines))


def read_manifest(directory):
    """{path: sha256} from DIR/MANIFEST.sha256."""
    pairs = (line.split("  ", 1) for line in (Path(directory) / MANIFEST).read_text().splitlines())
    return {path: digest for digest, path in pairs}


def moved_files(base, head):
    """The paths added, removed or changed from the base manifest to the
    head one, each with its status, sorted by path."""
    a, b = read_manifest(base), read_manifest(head)
    status = {p: "removed" for p in a.keys() - b.keys()}
    status.update({p: "added" for p in b.keys() - a.keys()})
    status.update({p: "changed" for p in a.keys() & b.keys() if a[p] != b[p]})
    return sorted(status.items())


def changed_cells(base, head, path):
    """One "path:line column: BASE -> HEAD" line per cell of the CSV at
    path that differs between the two run directories; a row or cell one
    side lacks reads as empty."""
    base_rows, head_rows = (list(csv.reader(Path(d, path).read_text().splitlines()))
                            for d in (base, head))
    header = head_rows[0] if head_rows else []
    for line, (a, b) in enumerate(zip_longest(base_rows, head_rows, fillvalue=[]), 1):
        for col, (x, y) in enumerate(zip_longest(a, b, fillvalue="")):
            if x != y:
                name = header[col] if col < len(header) else f"#{col + 1}"
                yield f"{path}:{line} {name}: {x} -> {y}"


def allowed_patterns(path):
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def diff(base, head, allow):
    """Print every moved file and whether the allow file lists it, each
    changed cell of a moved CSV, and every allow line that names no moved
    file; return the exit code: 1 when some moved file is not listed or
    some allow line is stale, else 0."""
    patterns = allowed_patterns(allow)
    moved = moved_files(base, head)
    unlisted = 0
    for path, status in moved:
        listed = any(fnmatch.fnmatchcase(path, pattern) for pattern in patterns)
        unlisted += not listed
        print(f"{status:8s} {path}" + ("  (listed)" if listed else ""))
        if status == "changed" and path.endswith(".csv"):
            for cell in changed_cells(base, head, path):
                print("         " + cell)
    stale = [pattern for pattern in patterns
             if not any(fnmatch.fnmatchcase(path, pattern) for path, _ in moved)]
    for pattern in stale:
        print(f"stale    {pattern}  (listed, but no file moved)")
    total = len(read_manifest(head))
    print(f"{unlisted} unlisted moved file(s) of {total}, {len(stale)} stale allow line(s)")
    return 1 if unlisted or stale else 0


def _python(script_args, root, cwd, stdout_path=None):
    """Run python with CHECKOUT's src first on the path, under
    -W error::RuntimeWarning; return its stdout, and write it to
    stdout_path when one is given."""
    env = {**os.environ, "PYTHONPATH": str(Path(root, "src").resolve())}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *script_args],
                          cwd=cwd, env=env, stdout=subprocess.PIPE, check=True)
    if stdout_path is not None:
        Path(stdout_path).parent.mkdir(parents=True, exist_ok=True)
        Path(stdout_path).write_bytes(done.stdout)
    return done.stdout


def run(root, out):
    """Write every output of CHECKOUT under OUT and its manifest."""
    root, out = Path(root).resolve(), Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        # an installed krylovexp must not shadow the checkout's
        found = Path(_python(["-c", "import krylovexp; print(krylovexp.__file__)"],
                             root, work).decode().strip()).resolve()
        if Path(root, "src") not in found.parents:
            sys.exit(f"krylovexp resolves to {found}, not under {root}/src")
        write_configs(root / "README.md", work)
        _python(["readme_example.py"], root, work, out / "readme_example.stdout")
        for name, command, cfg in RUNS:
            _python(["-m", "krylovexp.cli", command, "--config", f"{cfg}.json",
                     "--out", str(out / name)], root, work)
        for demo in sorted((root / "demos").glob("*.py")):
            _python([str(demo)], root, work, out / "demos" / f"{demo.stem}.stdout")
    write_manifest(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("configs", help="write the CLI configs CI runs")
    runner = sub.add_parser("run", help="write a checkout's outputs and manifest")
    runner.add_argument("--root", required=True)
    runner.add_argument("--out", required=True)
    differ = sub.add_parser("diff", help="compare two run directories")
    differ.add_argument("base")
    differ.add_argument("head")
    differ.add_argument("--allow", required=True)
    args = parser.parse_args(argv)
    if args.command == "configs":
        write_configs("README.md", ".")
    elif args.command == "run":
        run(args.root, args.out)
    else:
        return diff(args.base, args.head, args.allow)
    return 0


if __name__ == "__main__":
    sys.exit(main())
