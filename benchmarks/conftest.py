"""Where the experiment tables are saved.

``bench_tables.py`` regenerates the paper's tables/figures (DESIGN.md
§3) and saves each as ``benchmarks/out/<table_name>.txt``.  The
values behind them are the committed ``BENCH_*.json`` baseline's, the
document ``python -m repro bench --compare`` diffs
(docs/OBSERVABILITY.md).

Run with::

    pytest benchmarks -q -s
"""

import os

import pytest

from repro.experiments import table_text

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture
def save_table():
    """Print a table and persist it for EXPERIMENTS.md."""

    def _save(name: str, table) -> None:
        text = table_text(table)
        print()
        print(text, end="")
        with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fh:
            fh.write(text)

    return _save
