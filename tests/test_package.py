"""Package-wide checks on what `src/fedlora` carries."""

import ast
from pathlib import Path

import fedlora

# Functions that nothing in `src` calls but that stay there: the benchmark's
# tracer (benchmark/instrument.py) wraps them by module and name, and its
# self-test expects every traced name but one probe to be present. They move
# to tests/oracles.py once the tracer is pointed at functions the engine runs.
BENCHMARK_PINNED = ["fisher.average_fim", "fisher.sample_fim_diag",
                    "linalg.eigh_symmetric", "network.apply_update"]


def _names(node):
    """Every identifier `node` uses: names, attributes and imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_function_is_reached_from_src():
    # a function or class that only tests use is a test oracle: it belongs
    # in tests/oracles.py; docstring mentions do not count as a use
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(fedlora.__file__).parent.glob("*.py")}
    unreached = sorted(
        f"{module}.{fn.name}"
        for module, tree in trees.items() for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
        and not any(fn.name in _names(node) for other in trees.values()
                    for node in other.body if node is not fn))
    assert unreached == BENCHMARK_PINNED
