"""The make-verify smoke script (benchmarks/verify.py) stays runnable:
one command proving the trace selftest and the quick bench export both
work."""

import importlib.util
import json
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
SCRIPT = os.path.abspath(os.path.join(ROOT, "benchmarks", "verify.py"))


def _load_verify():
    spec = importlib.util.spec_from_file_location("repro_verify", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_verify_script_passes_and_writes_bench_json(tmp_path, capsys):
    from repro.core.api import registered_kernels

    mod = _load_verify()
    assert mod.main(["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all kernels ok" in out
    # one RPC + one fault-recovery smoke line per registered backend
    for kind in registered_kernels():
        for stage in ("rpc", "fault"):
            assert f"verify: {stage} smoke ok on {kind}" in out
    # every registered sim backend is smoked against the global oracle
    from repro.sim.backends import registered_sim_backends

    for name in registered_sim_backends():
        assert f"verify: sim-backend smoke ok on {name}" in out
    assert ("verify: real-transport smoke ok" in out
            or "verify: real-transport smoke skipped" in out)
    assert "verify: ok" in out
    doc = json.loads((tmp_path / "BENCH_verify.json").read_text())
    assert doc["quick"] is True
    assert set(doc["benches"]) == {"E1", "E4", "E5", "E13", "E14", "E15",
                                   "E16", "E17"}


def test_verify_script_rejects_unknown_sim_backend(capsys):
    mod = _load_verify()
    assert mod.main(["--sim-backend", "turbo"]) == 2
    err = capsys.readouterr().err
    assert "turbo" in err
