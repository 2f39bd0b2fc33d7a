"""Process crashes are part of the workload: a crash is one
``engine.schedule(t, cluster.crash_process, name, mode)``."""

from repro.core.api import Proc, make_cluster
from repro.sim.faults import CrashMode


def test_injector_drives_cluster_crashes_end_to_end():
    class Hang(Proc):
        def main(self, ctx):
            yield from ctx.delay(1e9)

    cluster = make_cluster("charlotte")
    cluster.spawn(Hang(), "victim")
    cluster.engine.schedule(
        50.0, cluster.crash_process, "victim", CrashMode.TERMINATE
    )
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.processes["victim"].finished
    assert cluster.metrics.get("cluster.crashes.terminate") == 1


def test_crash_of_already_finished_process_is_noop():
    class Quick(Proc):
        def main(self, ctx):
            yield from ctx.delay(1.0)

    cluster = make_cluster("chrysalis")
    cluster.spawn(Quick(), "quick")
    cluster.run_until_quiet(max_ms=1e5)
    assert cluster.processes["quick"].finished
    cluster.crash_process("quick")  # must not raise or re-kill
    assert cluster.metrics.get("cluster.crashes.terminate") == 0
