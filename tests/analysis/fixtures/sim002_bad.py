"""SIM002 seed: engines constructed directly instead of through the
`repro.sim.backends` registry.  Only parsed by the lint pass.

A direct construction pins the caller to one queue count and drain
policy, so the workload silently cannot run on the other backends.
"""

from repro.sim.engine import Engine


def bespoke_loop():
    eng = Engine()
    eng.schedule(1.0, print, "tick")
    return eng.run()


def bespoke_sharded(sim):
    # the dotted form, picking a policy by hand, is the same violation
    return sim.engine.Engine(shards=4, sharded=True)


def fine():
    from repro.sim.backends import make_engine

    # the registry is the sanctioned constructor: not a violation
    return make_engine("sharded-serial", shards=4)
