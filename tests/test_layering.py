"""Layering: a low package imports nothing from the layers above it.

Every ``repro`` import under a package's source — function-level
imports included — must come from one of the packages that package
may import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: package -> the ``repro`` packages its modules may import
ALLOWED = {
    # any service layer may fan out, so repro.par imports none of them
    "par": ("par", "obs"),
    # the guards instrument the solvers, integrators and scheduler, so
    # they import none of those
    "guard": ("guard", "obs", "util"),
    # the proxies run serially on the substrate: they neither fan out
    # nor borrow another proxy's solvers
    "kinetics": ("kinetics", "core", "util"),
    "md": ("md", "core", "guard", "obs", "util"),
}


def _repro_imports(path):
    """``(line, module)`` for every ``repro`` import in *path*,
    function-level imports included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = ([f"repro.{alias.name}" for alias in node.names]
                     if node.module == "repro" else [node.module])
        else:
            continue
        for name in names:
            if name == "repro" or name.startswith("repro."):
                yield node.lineno, name


@pytest.mark.parametrize("package", sorted(ALLOWED))
def test_package_imports_only_allowed_layers(package):
    files = sorted((SRC / package).glob("*.py"))
    assert files
    allowed = [["repro", name] for name in ALLOWED[package]]
    outside = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in _repro_imports(path)
        if name.split(".")[:2] not in allowed
    ]
    assert outside == []
