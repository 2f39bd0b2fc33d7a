"""File collection and the one-call entry point (`run_lint`).

Path semantics match the CLI conventions set by ``bench --only``: a
path that does not exist is a usage error (`LintPathError` → exit 2,
clear message), not an empty-and-green run.  Directories are walked
for ``*.py`` in sorted order so reports are byte-stable.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint.core import LintResult, ModuleInfo, lint_modules


class LintPathError(ValueError):
    """A requested lint path does not exist."""


def lint_repo_root(start: Optional[str] = None) -> Path:
    """The repository root: nearest ancestor holding a pyproject.toml
    (falls back to the current directory when the package is installed
    outside its checkout)."""
    path = Path(start or os.path.abspath(__file__)).resolve()
    for candidate in (path, *path.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return Path(os.getcwd())


def default_paths(root: Path) -> List[Path]:
    """What ``python -m repro lint`` checks with no path arguments."""
    return [root / "src" / "repro"]


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories to a sorted, de-duplicated .py list."""
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            raise LintPathError(
                f"no such file or directory: {p} (paths are files or "
                f"directories of .py sources)"
            )
    seen = set()
    unique: List[Path] = []
    for f in sorted(files):
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            unique.append(f)
    return unique


def run_lint(
    paths: Optional[Sequence] = None,
    root: Optional[Path] = None,
    rules: Optional[Sequence] = None,
) -> LintResult:
    """Lint ``paths`` (default: ``<repo>/src/repro``) with the full
    registered rule set (or ``rules``).  One parse feeds every rule."""
    # the rules package registers on import; pulling it here keeps
    # `from repro.analysis.lint.runner import run_lint` self-contained
    import repro.analysis.lint.rules  # noqa: F401

    root = Path(root) if root is not None else lint_repo_root()
    targets = [Path(p) for p in paths] if paths else default_paths(root)
    files = collect_files(targets)
    modules = [ModuleInfo.parse(f, root=root) for f in files]
    return lint_modules(modules, rules=rules)
