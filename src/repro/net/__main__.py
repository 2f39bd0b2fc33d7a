"""``python -m repro.net``: one node process, serving until killed.

    python -m repro.net --name n1 --socket /tmp/n1.sock
    python -m repro.net --name n2 --tcp 0 --drop-first 2

This is what `repro.net.supervisor.NodeSupervisor` spawns, and the
only ``serve`` parser: ``repro net serve ...`` forwards its arguments
here.  A node imports the wire and nothing else — `repro.net.server`,
`repro.net.frames` and `repro.core.wire` — never the simulator, the
kernels or the CLI, so a spawn loads (and, without bytecode caches,
compiles) eight `repro` modules, not the whole tree.  A module of its
own, not ``-m repro.net.server``: running that one as ``__main__``
would import it twice, and runpy warns about that on stderr.
"""

import argparse
from contextlib import suppress
from typing import List, Optional

from repro.net.server import NodeServer


def main(argv: Optional[List[str]] = None,
         prog: str = "python -m repro.net") -> int:
    """Parse ``argv``, bind, print ``REPRO-NET READY <endpoint>`` and
    serve until the process is killed (or interrupted: exit 0)."""
    parser = argparse.ArgumentParser(
        prog=prog, description="run one node server process (prints "
        "'REPRO-NET READY <endpoint>' when bound)",
    )
    parser.add_argument("--name", default="node",
                        help="node name reported in __stats__")
    bind = parser.add_mutually_exclusive_group(required=True)
    bind.add_argument("--socket", metavar="PATH",
                      help="serve on this Unix-domain socket path")
    bind.add_argument("--tcp", type=int, metavar="PORT",
                      help="serve on 127.0.0.1:PORT (0 = ephemeral)")
    parser.add_argument("--drop-first", type=int, default=0, metavar="N",
                        help="execute but withhold the reply for the first "
                             "N distinct requests (forces client retries; "
                             "the retransmit must hit the dedup cache)")
    args = parser.parse_args(argv)
    with suppress(KeyboardInterrupt):  # interactive teardown
        NodeServer(args.name, drop_first=args.drop_first).serve(
            socket_path=args.socket, port=args.tcp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
