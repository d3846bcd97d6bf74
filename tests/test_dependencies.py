"""Every third-party module the package imports is a declared dependency."""

import ast
import importlib.metadata
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def third_party_imports():
    """Top-level module names imported anywhere under src/lsgnn/, outside
    the standard library and the package itself."""
    names = set()
    for path in (ROOT / "src" / "lsgnn").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"__future__", "lsgnn"})


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {normalized(re.match(r"[A-Za-z0-9._-]+", spec).group()) for spec in project["dependencies"]}
    distributions = importlib.metadata.packages_distributions()
    imports = third_party_imports()
    assert {"numpy", "orjson", "scipy", "yaml"} <= set(imports)
    undeclared = {name: distributions.get(name) for name in imports
                  if not {normalized(d) for d in distributions.get(name, [])} & declared}
    assert undeclared == {}, f"imported but not in pyproject.toml dependencies: {undeclared}"
