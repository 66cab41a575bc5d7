"""Every Python file the tests run parses under the Python 3.10 grammar.

``ast.parse(..., feature_version=(3, 10))`` refuses syntax newer than 3.10,
such as ``except*``, so the oldest supported Python is checked offline.  It
checks grammar only: a 3.11 runtime API called from 3.10-valid syntax passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def test_sources_parse_as_python_3_10():
    assert len(SOURCES) > 10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_python_3_11_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
