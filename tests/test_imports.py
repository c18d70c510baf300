"""Every name a module of the package imports is used in that module, and
every module it imports is the standard library, ugo or a declared
dependency."""

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
