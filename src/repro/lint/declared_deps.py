"""``declared-deps`` — the package imports only what it declares.

``pip install repro-twin`` installs ``[project].dependencies`` and
nothing else, so an import of any other third-party package works on a
developer's machine and fails on a clean install. Every absolute import
in the tree must name the standard library (``sys.stdlib_module_names``),
the package itself, or a distribution listed in the ``pyproject.toml``
beside the tree (in the directory holding the package, or the one above
a ``src/`` layout). Names compare case-insensitively with ``-``/``.``
read as ``_``. A tree with no ``pyproject.toml`` beside it (an installed
copy, an in-memory fixture) is not checked.

``tomllib`` arrived in Python 3.11 and the package supports 3.10, so the
one array this needs is read by :func:`declared_dependencies`.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

from .model import SourceTree, Violation

CHECKER = "declared-deps"

_PROJECT_RE = re.compile(r"^\[project\][ \t]*$(.*?)(?=^\[|\Z)", re.M | re.S)
_DEPENDENCIES_RE = re.compile(r"^dependencies\s*=\s*\[", re.M)
#: Tokens inside the array: a quoted string, its closing bracket, or a
#: comment (skipped).
_TOKEN_RE = re.compile(r'"([^"]*)"|\'([^\']*)\'|(\])|#[^\n]*')
_NAME_RE = re.compile(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)")


def normalize(name: str) -> str:
    """A distribution or module name in comparable form."""
    return re.sub(r"[-_.]+", "_", name).lower()


def declared_dependencies(text: str) -> set[str]:
    """Normalized names in ``[project].dependencies`` of pyproject
    ``text`` (empty when the table or the key is absent)."""
    section = _PROJECT_RE.search(text)
    if section is None:
        return set()
    start = _DEPENDENCIES_RE.search(section.group(1))
    if start is None:
        return set()
    names = set()
    for token in _TOKEN_RE.finditer(section.group(1), start.end()):
        if token.group(3):
            break
        requirement = token.group(1) or token.group(2)
        match = _NAME_RE.match(requirement or "")
        if match is not None:
            names.add(normalize(match.group(1)))
    return names


def find_pyproject(root: Path) -> Path | None:
    """The ``pyproject.toml`` beside the package at ``root``, if any."""
    if not root.is_dir():
        return None
    for directory in (root.parent, root.parent.parent):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def check(tree: SourceTree) -> list[Violation]:
    """Flag absolute imports of undeclared third-party packages."""
    pyproject = find_pyproject(tree.root)
    if pyproject is None:
        return []
    allowed = declared_dependencies(pyproject.read_text())
    allowed |= {normalize(name) for name in sys.stdlib_module_names}
    allowed.add(normalize(tree.root.name))
    found = []
    for file in tree:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if normalize(top) not in allowed:
                    found.append(
                        Violation(
                            CHECKER,
                            file.rel,
                            node.lineno,
                            f"imports {top!r}, which {pyproject.name}'s "
                            "[project].dependencies does not declare; "
                            "declare it there or drop the import",
                        )
                    )
    return found
