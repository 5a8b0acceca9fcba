"""Each module keeps its underscore names to itself, and input is read by
one rule.

A decision that several modules need sits behind one module's public name.
The guards parse every `src/lthead/*.py`. One lists each relative import of
another module's underscore name (`from .losses import _x`) and each
`mod._x` where `mod` is a sibling module (`from . import calibrators as mod`).
The other lists each `np.asarray(p, dtype=...)` or `np.array(p, dtype=...)`
on a parameter `p` of the enclosing function: a second casting rule beside
`numerics.real_values` and `losses.class_labels`.
"""

import ast
from pathlib import Path

import lthead

SRC = Path(lthead.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_crossings(src: Path) -> list[str]:
    """`file:line: name` for every use of a sibling module's underscore name."""
    siblings = {p.stem for p in src.glob("*.py")}
    hits = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in siblings:
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        hits.append(f"{path.name}:{node.lineno}: "
                                    f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                hits.append(f"{path.name}:{node.lineno}: "
                            f"{node.value.id}.{node.attr}")
    return hits


def test_no_module_reads_a_sibling_underscore_name():
    assert private_crossings(SRC) == []


def test_guard_sees_both_forms(tmp_path):
    (tmp_path / "a.py").write_text("def _x(): pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import _x\nfrom . import a as mod\nmod._x()\nmod.__name__\n")
    assert private_crossings(tmp_path) == ["b.py:1: a._x", "b.py:3: mod._x"]


def parameter_casts(src: Path) -> list[str]:
    """`file:line: np.f(p)` for every dtype cast of a function's own parameter."""
    hits = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, [a.vararg, a.kwarg])]}
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("asarray", "array")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "np"
                        and node.args and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in params
                        and (len(node.args) > 1
                             or any(k.arg == "dtype" for k in node.keywords))):
                    hits.add((path.name, node.lineno,
                              f"np.{node.func.attr}({node.args[0].id})"))
    return [f"{name}:{line}: {call}" for name, line, call in sorted(hits)]


def test_no_function_casts_its_own_parameter():
    assert parameter_casts(SRC) == []


def test_cast_guard_sees_parameters_only(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "def f(x, *, y):\n"
        "    rows = [1.0]\n"
        "    np.asarray(rows, dtype=float)\n"
        "    np.asarray(x)\n"
        "    y.astype(float)\n"
        "    np.array(y, float)\n"
        "    return np.asarray(x, dtype=np.float64, order='C')\n")
    assert parameter_casts(tmp_path) == ["a.py:7: np.array(y)",
                                         "a.py:8: np.asarray(x)"]
