"""Static gate: no subpackage imports another one's private names.

A ``_``-prefixed name is private to the subpackage that defines it
(``repro.check``, ``repro.litmus``, ...).  When a second subpackage needs
it, it must become public where it lives — the way ``check.minimize.ddmin``
and ``check.mutants.build_crash_system`` serve every crash harness — or
each harness grows its own copy again.  This AST walk fails on any
``from repro.<a>... import _name`` inside ``src/repro/<b>`` with a != b.
Top-level modules (``repro/cli.py``, ``repro/api.py``, ...) count as one
package of their own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _subpackage(parts, src):
    """The subpackage of a ``repro``-rooted dotted path, or None for a
    top-level module."""
    if len(parts) > 1 and (src / parts[1]).is_dir():
        return parts[1]
    return None


def private_cross_imports(path, src=SRC):
    """``(lineno, module, name)`` for every private name ``path`` imports
    from a different subpackage of the package rooted at ``src``."""
    home = _subpackage(path.relative_to(src.parent).with_suffix("").parts,
                       src)
    hits = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        parts = tuple((node.module or "").split("."))
        if parts[0] != "repro" or _subpackage(parts, src) == home:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                hits.append((node.lineno, node.module, alias.name))
    return hits


def test_no_private_imports_across_subpackages():
    offenders = [
        f"{path.relative_to(SRC.parent.parent)}:{lineno}: "
        f"from {module} import {name}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, module, name in private_cross_imports(path)
    ]
    assert not offenders, (
        "private names imported across repro subpackages (make them "
        "public where they live):\n  " + "\n  ".join(offenders)
    )


def test_lint_catches_a_cross_package_private_import(tmp_path):
    # The walk must have teeth: a planted offender is reported, a private
    # import from the importer's own subpackage is not.
    src = tmp_path / "repro"
    (src / "litmus").mkdir(parents=True)
    (src / "check").mkdir()
    planted = src / "litmus" / "runner.py"
    planted.write_text(
        "from repro.check.minimize import _ddmin\n"
        "from repro.litmus.dsl import _parse\n"
    )
    assert private_cross_imports(planted, src) == [
        (1, "repro.check.minimize", "_ddmin")]


def test_relative_imports_are_not_used():
    # The walk resolves absolute imports only; keep it that way.
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not node.level, f"{path}:{node.lineno}"
