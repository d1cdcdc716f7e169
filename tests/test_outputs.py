"""tools/outputs.py: the manifest diff CI runs against the parent commit,
and the configs CI's README step runs."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def _run_dir(path, value):
    """A run directory holding one CSV cell and a demo's stdout, with its
    manifest."""
    (path / "sweep_cfg").mkdir(parents=True)
    (path / "sweep_cfg" / "sweep_heat_m10.csv").write_text(f"t,Era\n0.1,{value!r}\n")
    (path / "demos").mkdir()
    (path / "demos" / "01.stdout").write_text("n = 200\n")
    outputs.write_manifest(path)
    return path


def test_a_file_moved_by_one_ulp_fails_until_listed(tmp_path, capsys):
    x = 0.1 + 0.2
    base = _run_dir(tmp_path / "base", x)
    same = _run_dir(tmp_path / "same", x)
    moved = _run_dir(tmp_path / "moved", float(np.nextafter(x, 1.0)))
    allow = tmp_path / "OUTPUT_CHANGES"
    allow.write_text("# nothing moves\n\n")
    assert outputs.main(["diff", str(base), str(same), "--allow", str(allow)]) == 0
    assert outputs.main(["diff", str(base), str(moved), "--allow", str(allow)]) == 1
    printed = capsys.readouterr().out
    assert "changed  sweep_cfg/sweep_heat_m10.csv\n" in printed
    # the moved cell itself, at its line and column
    assert f"sweep_cfg/sweep_heat_m10.csv:2 Era: {x!r} -> {float(np.nextafter(x, 1.0))!r}\n" in printed
    for listed in ("sweep_cfg/sweep_heat_m10.csv", "sweep_cfg/*.csv"):
        allow.write_text(f"# moved on purpose\n{listed}\n")
        assert outputs.main(["diff", str(base), str(moved), "--allow", str(allow)]) == 0
        # a line naming no moved file is stale: it would let a later
        # change move that file unseen
        assert outputs.main(["diff", str(base), str(same), "--allow", str(allow)]) == 1
        assert "stale    " + listed in capsys.readouterr().out
    allow.write_text("sweep_cfg/*.csv\ndemos/*.stdout\n")
    assert outputs.main(["diff", str(base), str(moved), "--allow", str(allow)]) == 1
    allow.write_text("sweep_cfg/*.csv\n")
    # a file that appears or goes away counts as moved too
    (moved / "demos" / "02.stdout").write_text("new\n")
    outputs.write_manifest(moved)
    assert outputs.main(["diff", str(base), str(moved), "--allow", str(allow)]) == 1
    assert outputs.main(["diff", str(moved), str(base), "--allow", str(allow)]) == 1


def test_committed_output_changes_and_configs(tmp_path):
    """The committed OUTPUT_CHANGES parses, and the configs CI runs are
    written from the README: its JSON block verbatim, and one config per
    run of the manifest."""
    outputs.allowed_patterns(ROOT / "OUTPUT_CHANGES")
    outputs.write_configs(ROOT / "README.md", tmp_path)
    readme = json.loads((tmp_path / "readme_cfg.json").read_text())
    assert (tmp_path / "readme_example.py").read_text()
    for _, command, cfg in outputs.RUNS:
        parsed = json.loads((tmp_path / f"{cfg}.json").read_text())
        assert "problems" in parsed and command in (*parsed, "build"), cfg
    for m in readme["sweep"]["m"]:
        assert json.loads((tmp_path / f"readme_cfg_m{m}.json").read_text())["sweep"]["m"] == [m]
