"""Every Python file parses as Python 3.10, the oldest version the package
supports (``requires-python``), even when the tests run on a newer one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for part in ("src/relgen", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")
)


def test_every_source_directory_has_files():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
