"""A fixture every rule must pass: ordered iteration, tolerance
comparison, the boundary crossed only through the registry.  Only
parsed by the checks."""

from repro.core.ports import kernel_profile, registered_kernels


def placements():
    out = {}
    for kind in registered_kernels():  # a list: ordered
        out[kind] = kernel_profile(kind).capabilities.recovery_placement
    return out


def drain(queue, deliver):
    for msg in sorted(queue, key=lambda m: m.seq):
        deliver(msg)


def near(t0, t1, eps=1e-9):
    return abs(t1 - t0) < eps
