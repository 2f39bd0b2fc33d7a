"""docs/FAULTS.md is a contract: every documented knob/counter must
exist in the code, every ``faults.*`` / ``recovery.*`` counter the
code emits must be documented, and the `RecoveryPolicy` / `FaultSpec`
dataclass fields must be covered — so the doc cannot drift from the
fault plane it describes."""

import dataclasses
import re
from pathlib import Path

from repro.core.recovery import RecoveryPolicy
from repro.sim.faults import FaultPlan, FaultSpec

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "FAULTS.md"
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


def _emitted_counters() -> set:
    """Every faults.*/recovery.* metric name src/ actually emits."""
    pattern = re.compile(r'"((?:faults|recovery)\.[a-z_]+)"')
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(pattern.findall(path.read_text()))
    return names


def test_doc_exists_and_covers_every_emitted_counter():
    assert DOC.exists()
    documented = _documented_names()
    missing = _emitted_counters() - documented
    assert not missing, f"counters missing from the doc: {missing}"


def test_doc_covers_the_policy_and_spec_fields():
    names = _documented_names()
    for f in dataclasses.fields(RecoveryPolicy):
        assert f.name in names, f"policy knob {f.name!r} missing from doc"
    text = DOC.read_text()
    for f in dataclasses.fields(FaultSpec):
        assert f"`{f.name}`" in text, f"fault rate {f.name!r} missing"
    for builder in ("drop", "duplicate", "delay", "partition"):
        assert hasattr(FaultPlan, builder)
        assert builder in names, f"plan builder {builder!r} missing"


def test_every_documented_name_appears_in_codebase():
    blob = _codebase_blob()
    strip = re.compile(r"[^\w.]")  # `partition(t0, t1)` -> symbol only
    missing = []
    for n in sorted(_documented_names()):
        symbol = strip.split(n)[0]
        if symbol and symbol not in blob:
            missing.append(n)
    assert not missing, f"documented but absent from the code: {missing}"


def test_doc_states_the_placement_split_and_the_bench():
    text = DOC.read_text()
    assert "recovery_placement" in text
    assert "RecoveryExhausted" in text
    assert "kernel_retransmit" in text
    assert "E14" in text
    assert "PORTS.md" in text  # the capability flag's home


def test_doc_is_linked_from_readme_and_api():
    assert "FAULTS.md" in (ROOT / "README.md").read_text()
    assert "FAULTS.md" in (ROOT / "docs" / "API.md").read_text()
