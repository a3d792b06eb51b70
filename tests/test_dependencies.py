"""The library's runtime dependency is numpy alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dynlaw").glob("*.py"))


def imported_modules(path):
    """Top-level names of the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_imports_only_stdlib_and_numpy(path):
    foreign = {m for m in imported_modules(path)
               if m != "numpy" and m not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_lists_only_numpy_at_runtime():
    text = (ROOT / "pyproject.toml").read_text()
    # the [project] table's dependencies array (tomllib needs Python 3.11)
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listed = ast.literal_eval(re.search(r"^dependencies\s*=\s*(\[.*?\])", project,
                                        re.MULTILINE | re.DOTALL).group(1))
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in listed] == ["numpy"]
