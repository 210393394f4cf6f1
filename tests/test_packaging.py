"""The package declares what it imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules():
    """Every absolute import in src/loopfiber, by its top-level name."""
    names = set()
    for path in (ROOT / "src" / "loopfiber").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # "numpy>=1.24" -> "numpy"; each dependency's import name is its own
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                for d in declared}
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names)
    assert {"numpy", "orjson"} <= third_party
    assert third_party == declared


@pytest.mark.parametrize("name", sorted(
    "loopfiber" if p.stem == "__init__" else f"loopfiber.{p.stem}"
    for p in (ROOT / "src" / "loopfiber").glob("*.py")
    if p.stem != "__main__"))  # which runs the command on import
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from loopfiber.<module> import *` only when someone runs it
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
