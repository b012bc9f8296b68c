"""pyproject.toml promises Python >= 3.10: every source file parses with
the 3.10 grammar, whichever newer interpreter runs the suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
