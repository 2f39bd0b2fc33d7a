"""CLI surface of the real transport: ``repro net ...``, and
``--sim-backend`` applying to ``real-asyncio`` like any other kernel."""

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
    assert main(["net", "serve", "--name", "n"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["net", "serve", "--name", "n", "--socket", "/tmp/x.sock",
                 "--tcp", "0"]) == 2
    assert "exactly one" in capsys.readouterr().err


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
