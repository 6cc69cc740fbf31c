"""`oracles.py` is the independent reference the package is checked against,
so it must not reach the package by any import, and its own shortcuts are
checked against brute force."""
import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import oracles

ORACLES = Path(__file__).parent / "oracles.py"
PACKAGE = Path(__file__).parent.parent / "src" / "sdhkit"


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


def label_casts(source: str) -> list[str]:
    """Every call in `source` that converts an expression naming labels to
    int64, `np.asarray(labels, dtype=np.int64)` or `labels.astype(np.int64)`,
    outside `class_labels`, the one function that decides what labels are."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "class_labels"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            converted, dtypes = node.func.value, dtypes + node.args[:1]
        elif node.args:
            converted = node.args[0]
        else:
            continue
        if ("label" in ast.unparse(converted).lower()
                and any("int64" in ast.unparse(d) for d in dtypes)):
            found.append(ast.unparse(node))
    return found


def test_only_class_labels_casts_labels():
    found = {path.name: label_casts(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: casts for name, casts in found.items() if casts} == {}


@pytest.mark.parametrize("line", [
    "labels = np.asarray(labels, dtype=np.int64)",
    "y = np.array(self.labels, dtype='int64')",
    "q = query_labels.astype(np.int64)",
    "b = data.labels[cols].astype(dtype=np.int64)",
])
def test_every_label_cast_is_caught(line):
    assert label_casts(line)


def test_other_casts_pass():
    source = ("codes = np.asarray(codes, dtype=np.int64)\n"
              "words = labels.astype(np.uint8)\n"
              "def class_labels(values):\n    return np.asarray(labels, dtype=np.int64)\n")
    assert label_casts(source) == []


# The one function per module that may count bits: the distance kernel, and
# the Hadamard rule, which counts bits of row and column indices, not codes.
POPCOUNT_HOMES = {"index.py": "hamming_matrix", "codes.py": "hadamard_codes"}


def popcounts(source: str, home: str | None = None) -> list[str]:
    """Every use of NumPy's `bitwise_count` in `source` outside the function
    named `home`: an attribute or a name, an import of it, or its name as a
    string."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == home
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        named = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name",
                 ast.Constant: "value"}.get(type(node))
        if named and getattr(node, named) == "bitwise_count":
            found.append(ast.unparse(node))
    return found


def test_only_the_distance_kernel_counts_bits():
    found = {path.name: popcounts(path.read_text(), POPCOUNT_HOMES.get(path.name))
             for path in PACKAGE.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {}


@pytest.mark.parametrize("line", [
    "d = np.bitwise_count(a ^ b)",
    "from numpy import bitwise_count",
    "count = numpy.bitwise_count",
    "f = getattr(np, 'bitwise_count')",
    "def hamming(a, b):\n    return np.bitwise_count(a ^ b).sum()",
])
def test_every_bit_count_is_caught(line):
    assert popcounts(line, "hamming_matrix")


def test_bit_counts_in_the_home_function_pass():
    source = ("def hamming_matrix(d, q):\n    return np.bitwise_count(d ^ q)\n"
              "x = np.bitwise_xor(a, b)\ny = np.count_nonzero(x)\n")
    assert popcounts(source, "hamming_matrix") == []


def bucket_none_checks(source: str) -> list[str]:
    """Every comparison in `source` of an expression naming buckets or
    groups with None. Every `CodeIndex` holds buckets, one per item when its
    (code, label) pairs are all distinct, and `_groups` always returns a
    grouping, so such a test would only bring back a second, per-item path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                and any(word in ast.unparse(o).lower()
                        for o in operands for word in ("bucket", "group"))):
            found.append(ast.unparse(node))
    return found


def test_no_code_asks_whether_an_index_has_buckets():
    found = {path.name: bucket_none_checks(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: checks for name, checks in found.items() if checks} == {}


@pytest.mark.parametrize("line", [
    "if index._buckets is None:\n    pass",
    "bucketed = self._buckets is not None",
    "buckets = index._buckets\nif buckets is None:\n    pass",
    "x = 1 if None == idx._buckets else 2",
    "if query_groups is not None:\n    pass",
    "grouped = _groups(codes, key) is None",
])
def test_every_bucket_none_check_is_caught(line):
    assert bucket_none_checks(line)


def test_other_none_checks_pass():
    source = ("if labels is not None:\n    pass\n"
              "first, group = _groups(queries, slot)\n"
              "count = index._buckets.words.count\n"
              "sizes = None if labels is None else buckets.sizes\n")
    assert bucket_none_checks(source) == []


def tie_orderings(levels):
    """The relevance sequence of every ordering of each level's items, the
    items taken as distinct, so equal sequences repeat."""
    per_level = [itertools.permutations([True] * r + [False] * (n - r)) for n, r in levels]
    for parts in itertools.product(*map(list, per_level)):
        yield [rel for part in parts for rel in part]


def test_tie_average_precision_is_the_mean_over_tie_orderings():
    rng = np.random.default_rng(0)
    for _ in range(30):
        levels = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 5))
            levels.append((n, int(rng.integers(0, n + 1))))
        if not any(r for _, r in levels):
            levels.append((1, 1))
        aps = [oracles.average_precision_reference(seq) for seq in tie_orderings(levels)]
        assert abs(oracles.tie_average_precision(levels) - np.mean(aps)) <= 1e-12, levels
