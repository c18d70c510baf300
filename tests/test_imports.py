"""Every name a module of the package imports is used in that module, and
every module it imports is the standard library, ugo or a declared
dependency.  Every public function and class is declared in the README's
library table or used by another module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ugo

SRC = Path(ugo.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert unused == []


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    text = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    deps = tomllib.loads(text)["project"]["dependencies"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps)
    return {name.lower().replace("-", "_") for name in names}


def test_imports_are_stdlib_ugo_or_declared():
    allowed = set(sys.stdlib_module_names) | {"ugo"} | _declared_dependencies()
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {top}" for top in tops if top not in allowed]
    assert foreign == []


def test_import_builds_no_table():
    # `import ugo.cli` is all a single inspect pays before its query: no
    # sieve, sweep table or class data may be built at import.
    code = (
        "import ugo.cli\n"
        "from ugo import forms, intarith, sweep\n"
        "print(intarith._spf_array is None, sweep._table is None,"
        " forms._class_data.cache_info().currsize,"
        " intarith._trial_primes.cache_info().currsize)"
    )
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "0", "0"]


def _public_definitions() -> dict[str, set[str]]:
    # The public module-level functions and classes of each module.
    return {
        path.stem: {
            node.name
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        for path in sorted(SRC.glob("*.py"))
    }


def _used_across_modules(modules) -> set[tuple[str, str]]:
    # (module, name) for each `from .module import name` and `module.name`
    # read in another module of the package.
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        here, aliases = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        here.add((node.module, alias.name))
                    elif alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    here.add((aliases[node.value.id], node.attr))
        used |= {(module, name) for module, name in here if module != path.stem}
    return used


def _declared_surface() -> dict[str, set[str]]:
    # The README's library table: module in the first cell, its public
    # names in the second.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1]
    declared = {}
    for line in section.splitlines():
        if match := re.match(r"\| `ugo\.(\w+)` \| ([^|]*)\|", line):
            declared[match[1]] = set(re.findall(r"`(\w+)`", match[2]))
    return declared


def test_public_names_are_declared_or_used():
    defined = _public_definitions()
    used = _used_across_modules(defined)
    declared = _declared_surface()
    undeclared = [
        f"{module}.{name}"
        for module, names in defined.items()
        for name in sorted(names)
        if name not in declared.get(module, ()) and (module, name) not in used
    ]
    assert undeclared == []
    stale = [
        f"{module}.{name}"
        for module, names in declared.items()
        for name in sorted(names - defined.get(module, set()))
    ]
    assert stale == []
