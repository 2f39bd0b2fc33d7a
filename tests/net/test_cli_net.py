"""CLI surface of the real transport: ``repro net ...``, and
``--sim-backend`` applying to ``real-asyncio`` like any other kernel."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.net.supervisor import NodeSupervisor, SpawnFailed


def test_top_accepts_a_sim_backend_on_real_asyncio(capsys):
    assert main(["top", "--kernel", "real-asyncio",
                 "--sim-backend", "sharded-serial", "--quick"]) == 0
    assert "goodput/s" in capsys.readouterr().out


def test_sim_backend_still_works_on_simulated_kernels(capsys):
    assert main(["top", "--kernel", "ideal", "--scenario", "clean",
                 "--sim-backend", "global", "--quick", "--count", "8"]) == 0
    assert "goodput/s" in capsys.readouterr().out


def test_net_serve_needs_exactly_one_bind(capsys):
    """``repro net serve`` forwards its arguments to the node's own
    parser (`repro.net.__main__`), whose required --socket / --tcp
    group refuses neither and both."""
    for bind in ([], ["--socket", "/tmp/x.sock", "--tcp", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["net", "serve", "--name", "n", *bind])
        assert exc.value.code == 2
        assert "usage: repro net serve" in capsys.readouterr().err


def test_the_node_entry_helps_without_a_word_on_stderr():
    """``python -m repro.net`` is what the supervisor spawns, and a live
    node's stderr must stay empty — a ``-m repro.net.server`` entry
    would import the server twice and warn there."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.net", "--help"], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "usage: python -m repro.net" in proc.stdout
    assert "--socket PATH | --tcp PORT" in proc.stdout


def test_net_load_end_to_end(capsys):
    with NodeSupervisor() as sup:
        try:
            node = sup.spawn("cli-node")
        except (SpawnFailed, OSError) as exc:
            pytest.skip(f"this host forbids subprocesses/sockets ({exc})")
        assert main(["net", "load", node.endpoint, "--clients", "2",
                     "--requests", "2", "--timeout-ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "issued" in out and "throughput /s" in out
