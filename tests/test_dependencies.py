"""numpy is the package's only runtime dependency.

Every module under ``src/vulngraph/`` imports only the standard library,
numpy and ``vulngraph`` itself, and pyproject.toml declares numpy alone.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vulngraph"}


def imported(path: Path) -> set[str]:
    """The top-level names of the modules that ``path`` imports, leaving
    out relative imports, which stay in the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_stdlib_numpy_and_the_package():
    modules = sorted((ROOT / "src" / "vulngraph").glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: imported(path) - ALLOWED for path in modules}
    assert not any(outside.values()), outside


def test_numpy_is_the_only_declared_dependency():
    # Read without tomllib, which Python 3.10 lacks: the ``[project]``
    # table runs to the next table header, and its ``dependencies`` is
    # one Python-literal list of strings.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL).group(1)
    declared = re.search(r"^dependencies\s*=\s*(\[.*?\])", project,
                         re.MULTILINE | re.DOTALL).group(1)
    assert [re.split(r"[<>=!~;\[ ]", dependency)[0]
            for dependency in ast.literal_eval(declared)] == ["numpy"]
