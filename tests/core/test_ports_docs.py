"""docs/PORTS.md is a contract: every documented downcall/upcall must
exist in the code, the tables must cover the `KernelRuntimePort`
protocol and the `KernelCapabilities` flags exactly, and the docs that
advertise the registry must actually link it — so the doc cannot drift
from the interface it reifies."""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core.ports import KernelCapabilities, KernelRuntimePort
from repro.core.runtime import LynxRuntimeBase

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "PORTS.md"
CODE_DIRS = ("src", "tests", "examples", "benchmarks")


def _codebase_blob() -> str:
    chunks = []
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            chunks.append(path.read_text())
    return "\n".join(chunks)


def _documented_names() -> set:
    """Backticked tokens from the first column of every table row."""
    names = set()
    for line in DOC.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def _port_methods() -> set:
    return {
        name for name in vars(KernelRuntimePort)
        if name.startswith(("rt_", "notify_", "deliver_"))
    }


def test_doc_exists_and_covers_the_port_protocol():
    assert DOC.exists()
    names = _documented_names()
    missing = _port_methods() - names
    assert not missing, f"port methods missing from the doc: {missing}"


def test_doc_covers_every_capability_flag():
    names = _documented_names()
    for f in dataclasses.fields(KernelCapabilities):
        assert f.name in names, f"capability {f.name!r} missing from doc"


def test_every_documented_name_appears_in_codebase():
    blob = _codebase_blob()
    missing = [n for n in sorted(_documented_names()) if n not in blob]
    assert not missing, f"documented but absent from the code: {missing}"


def test_doc_states_the_registry_and_ideal_backend():
    text = DOC.read_text()
    assert "KernelProfile" in text
    assert "registered_kernels" in text
    assert "ideal" in text
    assert "lower bound" in text


def test_doc_is_linked_from_readme_and_api():
    assert "PORTS.md" in (ROOT / "README.md").read_text()
    assert "PORTS.md" in (ROOT / "docs" / "API.md").read_text()


#: `inspect.signature` of the port names on `LynxRuntimeBase`, taken
#: at 9522e3e (PR 18).  The shared half may be rewritten behind the
#: port; a kernel package must never have to change because it was.
#: `rt_runnable` left the port when the freeze became the runtime's
#: `frozen_count` attribute, which SODA's freeze protocol raises.
#: `rt_shutdown` left when the runtime's clean-up called
#: `runtime_exited` itself (no backend overrode it), and
#: `runtime_costs` when the cluster named its profile as ``costs``.
PORT_SIGNATURES = {
    "rt_startup": "(self) -> 'Generator'",
    "rt_new_link": "(self) -> 'Generator'",
    "rt_send_request":
        "(self, es: 'EndState', msg: 'WireMessage') -> 'Generator'",
    "rt_send_reply":
        "(self, es: 'EndState', msg: 'WireMessage') -> 'Generator'",
    "rt_sync_interest": "(self, es: 'EndState') -> 'Generator'",
    "rt_block_wait": "(self) -> 'Generator'",
    "rt_request_available": "(self, es: 'EndState') -> 'bool'",
    "rt_take_request": "(self, es: 'EndState') -> 'Generator'",
    "rt_destroy": "(self, es: 'EndState', reason: 'str') -> 'Generator'",
    "rt_abort_connect":
        "(self, es: 'EndState', waiter: 'ConnectWaiter') -> 'Generator'",
    "rt_export_end": "(self, es: 'EndState') -> 'dict'",
    "rt_adopt_end": "(self, ref: 'EndRef', meta: 'dict') -> 'Generator'",
    "deliver_reply": "(self, ref: 'EndRef', msg: 'WireMessage') -> 'None'",
    "notify_receipt": "(self, ref: 'EndRef', seq: 'int') -> 'None'",
    "notify_bounce": "(self, ref: 'EndRef', seq: 'int') -> 'None'",
    "notify_reply_aborted": "(self, ref: 'EndRef', seq: 'int') -> 'None'",
    "notify_destroyed":
        "(self, ref: 'EndRef', reason: 'str', crash: 'bool' = False) -> 'None'",
}


def test_the_port_is_frozen():
    port = {n for n in vars(KernelRuntimePort) if not n.startswith("_")}
    assert port == set(PORT_SIGNATURES)
    for name, signature in PORT_SIGNATURES.items():
        found = str(inspect.signature(getattr(LynxRuntimeBase, name)))
        assert found == signature, name


def test_the_registration_snippet_builds_a_profile(monkeypatch):
    """The doc's `register_kernel` example names only `KernelProfile`
    fields (it once kept the CLI's fields after they went)."""
    import repro.core.ports as ports

    text = DOC.read_text()
    start = text.index("register_kernel(KernelProfile(")
    snippet = text[start:text.index("```", start)]
    built = []
    monkeypatch.setattr(ports, "register_kernel", built.append)
    exec(snippet, vars(ports).copy())
    assert [p.name for p in built] == ["mykernel"]
