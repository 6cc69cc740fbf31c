"""`oracles.py` is the independent reference the package is checked against,
so it must not reach the package by any import."""
import ast
from pathlib import Path

import pytest

ORACLES = Path(__file__).parent / "oracles.py"


def package_imports(source: str) -> list[str]:
    """Every import in `source` that names the package: `import`, `from ...
    import` (relative ones included) and `__import__`/`import_module` calls
    with a literal module name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [str(node.args[0].value)]
        else:
            continue
        found += [n for n in names if n.startswith(".") or n.split(".")[0] == "sdhkit"]
    return found


def test_oracles_import_nothing_from_the_package():
    assert package_imports(ORACLES.read_text()) == []


@pytest.mark.parametrize("line", [
    "import sdhkit",
    "import numpy, sdhkit.index as ix",
    "from sdhkit import biqp",
    "from sdhkit.index import pack",
    "from . import sdh",
    "x = __import__('sdhkit')",
    "import importlib; m = importlib.import_module('sdhkit.biqp')",
])
def test_every_import_form_is_caught(line):
    assert package_imports(line)


def test_other_imports_pass():
    assert package_imports("import itertools\nimport numpy as np\nfrom scipy import linalg\n") == []
