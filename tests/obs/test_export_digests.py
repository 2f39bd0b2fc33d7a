"""The trace exports, pinned byte for byte.

Every record a run writes — `TraceLog.to_jsonl()`, ``repro trace
--chrome -``, ``repro trace --critical-path --by-layer`` and the dumps
of ``repro flight --demo`` — is a pure function of the seed, so its
SHA-256 is too.  These digests were taken before trace records became
rows built on read (docs/PERFORMANCE.md §2.7, §2.8); a change to how a
record is stored, built or exported that alters one byte of any export
fails here.  ``ideal`` and ``real-asyncio`` share their digests: the
frame codec changes no simulated event.
"""

import hashlib

import pytest

from repro.cli import main
from repro.workloads.chaos import (
    chaos_policy,
    lossy_plan,
    partitioned_plan,
    run_chaos_workload,
)
from repro.workloads.migration import run_migration_churn
from repro.workloads.rpc import run_rpc_workload

#: ``run_rpc_workload(kind, 0, count=30, seed=3)`` and
#: ``run_migration_churn(kind, hops=12, seed=3)``
RPC = {
    "charlotte": "0a08a7401805afbebd0413dcab7af0941daecf523cf1da66c21854a53e58fe55",
    "soda": "743a4c1dab5de7bd2a496c2d602ff746da35dde71ef45549541b660ca9f3a54e",
    "chrysalis": "f5e772fd7ee76733b97c26e6b43f204715f721c299c093f77d8e6ccdf41c5861",
    "ideal": "443a1a4503318e2a9a5042f200c90a9f1582329807cd75816ac8545ad032512b",
    "real-asyncio": "443a1a4503318e2a9a5042f200c90a9f1582329807cd75816ac8545ad032512b",
}
MIGRATION = {
    "charlotte": "6e7ea02e1d5e0c3c704e183f9c50d083d1e1511933a3c3dddcd3fb131b69f42b",
    "soda": "f0c22f58499f9020c65ba24023330060ece79cfef10f8e411242a0f365c2b4e6",
    "chrysalis": "9475d964c5a44e66cfc49800820133845a07a366bb42a977e4aed7bd260ab523",
    "ideal": "689ecf85162080d73fff96f569bdf397241d36030db1388e19e59fb3ec392e43",
    "real-asyncio": "689ecf85162080d73fff96f569bdf397241d36030db1388e19e59fb3ec392e43",
}
#: ``run_chaos_workload(kind, seed=3, plan=…, policy=chaos_policy())``
#: under ``lossy_plan(0.1, 0.05)`` and the quick ``partitioned_plan``
LOSSY = {
    "charlotte": "b3e20209dc6e8fa1e6885fe3a8bc1ab064ccc40fe2ab8b5abd907bbe24b9423c",
    "soda": "54da23970e756db1b733c3ff52ffbf8453c2486b724c62bb50ed8186f278fa13",
    "chrysalis": "5f0e185585473b47cafea11ea41f877d871fb0ecb0bba50c438a5b0bfba3ae08",
    "ideal": "c8b4ae4f432b50f78737676c15198a7ce6e5d4637d5b940bd0ded935a2d3cc1f",
}
PARTITIONED = {
    "charlotte": "6d12b54e2d5fa1e8c8493beee504f78dd2ce6a09b943f4f35729bb624debbdf5",
    "soda": "707b9c57a985de141abb4a7543d0e551b0ded253f19edc192b95c318d952bfc4",
    "chrysalis": "a6bcddc40ae3f95df5488466360b94a5a0a21866feec56d78b09e7d65d885a04",
    "ideal": "9e52c858fe532177182abadf7e908d4eb0e463447854e43463e01eed5d0be719",
}
#: stdout of ``repro trace --kernel K --chrome -`` and of ``repro trace
#: --kernel K --critical-path --by-layer``
CHROME = {
    "soda": "7c1714a7738342537a49aa83d4979b33322e600d870b5a6c481586761339a2d0",
    "charlotte": "2d99483fb2d42e24f20276330bad2c2dd0b51b056902e2ea5726f7e7305f9914",
}
CRITICAL_PATH = {
    "soda": "007283224222f97d8c786515c5006a739b066c9f8e7b76b7f6207d86443c83df",
    "charlotte": "8061067469a0366a81eb4d52d2faeddfb5385e66b1aff09adc5a9e85f90a69ce",
}
#: the files ``repro flight --demo --kernel K`` writes, concatenated in
#: name order
FLIGHT = {
    "soda": "83f4e1872d265acdff09cdf86b32baef20c7f1ea3dc72fb1689257bacdafa99b",
    "charlotte": "041735bc2a7d6469a15abf5bcc414762a32769d11f89c3cdaa8ae8cd52887396",
}


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", sorted(RPC))
def test_rpc_and_migration_traces_are_pinned(kind):
    rpc = run_rpc_workload(kind, 0, count=30, seed=3)
    assert _sha(rpc.trace.to_jsonl()) == RPC[kind]
    churn = run_migration_churn(kind, hops=12, seed=3)
    assert _sha(churn["trace"].to_jsonl()) == MIGRATION[kind]


@pytest.mark.parametrize("kind", sorted(LOSSY))
def test_chaos_traces_are_pinned(kind):
    for plan, pinned in ((lossy_plan(0.1, 0.05), LOSSY),
                         (partitioned_plan(quick=True), PARTITIONED)):
        r = run_chaos_workload(kind, seed=3, plan=plan, policy=chaos_policy())
        assert _sha(r.trace.to_jsonl()) == pinned[kind]


@pytest.mark.parametrize("kind", sorted(CHROME))
def test_trace_cli_exports_are_pinned(kind, capsys):
    chrome = _stdout(capsys, ["trace", "--kernel", kind, "--chrome", "-"])
    assert _sha(chrome) == CHROME[kind]
    table = _stdout(capsys, ["trace", "--kernel", kind, "--critical-path",
                             "--by-layer"])
    assert _sha(table) == CRITICAL_PATH[kind]


@pytest.mark.parametrize("kind", sorted(FLIGHT))
def test_flight_demo_dumps_are_pinned(kind, capsys, tmp_path):
    _stdout(capsys, ["flight", "--demo", "--kernel", kind,
                     "--out", str(tmp_path)])
    dumps = sorted(tmp_path.iterdir())
    assert dumps
    assert _sha(b"".join(p.read_bytes() for p in dumps)) == FLIGHT[kind]
