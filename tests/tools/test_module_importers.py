"""Every module under ``src/repro`` is imported by another one.

A module nothing in the package imports is code no query runs: a second
copy of a path the program already has, kept alive only by its own tests.
The census parses each ``src/repro/**/*.py`` with :mod:`ast` (nothing is
imported or run) and collects every module an ``import`` names, counting
the packages on the way (``from repro.qp.plans import JoinStep`` imports
``repro``, ``repro.qp`` and ``repro.qp.plans``).  The entry points are
exempt: packages that the examples, benchmarks and tests drive from
outside, and the simulated-network test fixture.
"""

import ast
from pathlib import Path
from typing import Dict, Set

SOURCE = Path(__file__).resolve().parents[2] / "src"

# Driven from outside the package, never from inside it.
ENTRY_POINTS = (
    "repro.apps",       # the paper's applications, run by examples/
    "repro.baselines",  # the systems the benchmarks compare against
    "repro.pht",        # the Prefix Hash Tree, run by its own benchmarks
    "repro.simnet",     # overlay-only deployments for tests and benchmarks
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SOURCE).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _with_packages(name: str) -> Set[str]:
    parts = name.split(".")
    return {".".join(parts[: end]) for end in range(1, len(parts) + 1)}


def _imports(path: Path, module: str, modules: Set[str]) -> Set[str]:
    """Every module of the package that ``path`` imports."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_packages(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: climb from the importing package
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found |= _with_packages(base)
            # ``from repro.qp import plans`` names a module, not an attribute.
            found |= {f"{base}.{alias.name}" for alias in node.names}
    return found & modules


def _census() -> Dict[str, Set[str]]:
    """Each module of the package -> the other modules that import it."""
    paths = {_module_name(path): path for path in sorted((SOURCE / "repro").rglob("*.py"))}
    modules = set(paths)
    importers: Dict[str, Set[str]] = {module: set() for module in modules}
    for module, path in paths.items():
        for imported in _imports(path, module, modules) - {module}:
            importers[imported].add(module)
    return importers


def _exempt(module: str) -> bool:
    return any(module == entry or module.startswith(entry + ".") for entry in ENTRY_POINTS)


def test_every_module_has_an_importer_inside_the_package():
    unimported = sorted(
        module for module, importers in _census().items() if not importers and not _exempt(module)
    )
    assert unimported == []


def test_every_entry_point_is_a_module_nothing_imports():
    """The allowlist hides nothing: drop an entry once the package imports it."""
    importers = _census()
    for entry in ENTRY_POINTS:
        assert entry in importers and not importers[entry], entry
