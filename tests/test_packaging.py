"""The package metadata in ``pyproject.toml`` matches what ``src/`` imports."""

from __future__ import annotations

import ast
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports(source_root: Path) -> set[str]:
    """Top-level modules imported under ``source_root`` that are neither in
    the standard library nor the ``repro`` package itself."""
    found: set[str] = set()
    for path in source_root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_are_exactly_the_third_party_imports():
    metadata = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = set(metadata["project"]["dependencies"])
    assert third_party_imports(ROOT / "src") == declared == {"numpy", "scipy"}


def test_console_script_points_at_the_cli():
    metadata = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert metadata["project"]["scripts"] == {"repro-watertreatment": "repro.cli:main"}
