"""Where the experiment tables are saved.

``bench_tables.py`` regenerates the paper's tables/figures (DESIGN.md
§3) and saves each under ``benchmarks/out/`` — the human-readable
``.txt`` and a machine-readable ``.json`` (schema "repro.table") so
the trajectory can be diffed across PRs (docs/OBSERVABILITY.md).

Run with::

    pytest benchmarks -q -s
"""

import os

import pytest

from repro.experiments import table_files

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture
def save_table():
    """Print a table and persist its two files for EXPERIMENTS.md."""

    def _save(name: str, table) -> None:
        files = table_files(name, table)
        print()
        print(files[f"{name}.txt"], end="")
        for filename, content in files.items():
            with open(os.path.join(OUT_DIR, filename), "w") as fh:
                fh.write(content)

    return _save
