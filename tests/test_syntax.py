"""Every Python file the tests run parses under the Python 3.10 grammar and
names nothing newer than the floors CI declares (Python 3.10, numpy 1.24).

``ast.parse(..., feature_version=(3, 10))`` refuses syntax newer than 3.10,
such as ``except*``, so the oldest supported Python is checked offline.  It
checks grammar only, so a short explicit list of runtime names newer than
those floors is scanned for as well; a newer name missing from the list
still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]

# dotted names, spelled with the module's real name, and the release that added them
NEWER_THAN_FLOORS = {
    "tomllib": "Python 3.11",
    "typing.Self": "Python 3.11",
    "enum.StrEnum": "Python 3.11",
    "ExceptionGroup": "Python 3.11",
    "BaseExceptionGroup": "Python 3.11",
    "hashlib.file_digest": "Python 3.11",
    "numpy.concat": "numpy 2.0",
    "numpy.trapezoid": "numpy 2.0",
    "numpy.isdtype": "numpy 2.0",
    "numpy.unique_counts": "numpy 2.0",
    "numpy.cumulative_sum": "numpy 2.1",
}
# methods newer than the floors, found on any object
NEWER_METHODS = {"add_note": "Python 3.11"}


def newer_names(source: str) -> list[str]:
    """The names of ``source`` that are newer than the floors, one per use."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the dotted name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = [dotted(node)]
            if isinstance(node, ast.Attribute) and node.attr in NEWER_METHODS:
                names.append(node.attr)
        else:
            continue
        found += [n for n in names if n in NEWER_THAN_FLOORS or n in NEWER_METHODS]
    return found


def test_sources_parse_as_python_3_10():
    assert len(SOURCES) > 10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_python_3_11_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_sources_name_nothing_newer_than_the_ci_floors():
    found = {}
    for path in SOURCES:
        names = newer_names(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def test_the_floor_scan_finds_newer_names_through_aliases():
    source = (
        "import tomllib\n"
        "import numpy as xp\n"
        "from typing import Self\n"
        "from hashlib import file_digest as fd\n"
        "import enum\n"
        "x = xp.concat([a, b])\n"
        "y = xp.cumulative_sum(x)\n"
        "class E(enum.StrEnum): pass\n"
        "err.add_note('context')\n"
        "raise ExceptionGroup('g', [])\n"
        "fd(f, 'sha256')\n"
        "z = xp.concatenate([a, b])\n"  # numpy 1.0: not flagged
    )
    assert sorted(newer_names(source)) == sorted([
        "tomllib", "typing.Self", "hashlib.file_digest", "hashlib.file_digest",
        "numpy.concat", "numpy.cumulative_sum", "enum.StrEnum", "add_note", "ExceptionGroup",
    ])
