"""The oracle is an independent reference: oracle.py imports nothing of
krylovexp but the argument validators of sparse, so no Krylov,
small-matrix or estimator code can leak into the values it checks."""

import ast
from pathlib import Path

import krylovexp

ORACLE = Path(krylovexp.__file__).parent / "oracle.py"


def package_imports(path=ORACLE):
    """'line: module.name' for every name path imports from krylovexp
    other than a sparse.validate_* function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: {a.name}" for a in node.names
                      if a.name.split(".")[0] == "krylovexp"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "krylovexp":
                continue
            module = module.removeprefix("krylovexp").lstrip(".")
            found += [f"{node.lineno}: {module}.{a.name}".replace(" .", " ") for a in node.names
                      if not (module == "sparse" and a.name.startswith("validate_"))]
    return found


def test_oracle_imports_only_the_validators():
    assert package_imports() == []


def test_lint_sees_a_package_import(tmp_path):
    path = tmp_path / "oracle.py"
    path.write_text("import numpy as np\n"
                    "from .sparse import validate_time, SparseOperator\n"
                    "from . import dense\n"
                    "from krylovexp.krylov import build_krylov\n"
                    "import krylovexp.estimators\n")
    assert package_imports(path) == ["2: sparse.SparseOperator", "3: dense",
                                      "4: krylov.build_krylov", "5: krylovexp.estimators"]
