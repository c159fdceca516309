"""The package runs on the standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import schur_shadows

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "schur_shadows"}


def test_modules_import_only_stdlib_and_numpy():
    modules = sorted(Path(schur_shadows.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not foreign, foreign
