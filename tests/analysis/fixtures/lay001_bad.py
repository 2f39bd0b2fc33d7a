"""LAY001 seed: module-level imports that bypass repro.core.ports.

Only parsed by the checks — importing this file would work (the
modules exist) but the point is that LAY001 forbids it: this
file's name declares no kernel, so both imports cross the boundary.
"""

from typing import TYPE_CHECKING

import repro.soda.kernel  # noqa: F401

if TYPE_CHECKING:  # a typing-only cycle is still a layering cycle
    from repro.charlotte.kernel import CharlotteKernel  # noqa: F401


def make_kernel(engine):
    return repro.soda.kernel.SodaKernel(engine)
