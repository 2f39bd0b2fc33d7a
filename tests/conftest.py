"""Fixtures shared across the tier-1 suite."""

import contextlib
import io

import pytest


@pytest.fixture(scope="session")
def quick_bench_run(tmp_path_factory):
    """One ``python -m repro bench --quick`` for the whole session —
    (document path, stdout).  The run is the slowest thing tier-1 does,
    and every value it writes is exact, so the tests that need "a quick
    run" can all read the same one."""
    from repro.cli import main

    out = tmp_path_factory.mktemp("bench") / "BENCH_quick.json"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["bench", "--quick", "--out", str(out)]) == 0
    return out, printed.getvalue()
