"""Each module keeps its underscore names to itself.

A decision that several modules need sits behind one module's public name.
The guard parses every `src/lthead/*.py` and lists each relative import of
another module's underscore name (`from .losses import _x`) and each
`mod._x` where `mod` is a sibling module (`from . import calibrators as mod`).
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
