"""The experiment registry (`repro.experiments`): every paper
experiment is declared once, carries a contract that can fail, and its
saved table is a view of the committed baseline — checked here against
`DEFAULT_BENCH_FILENAME` without running a single workload (only the
``--only`` sweep at the end measures anything)."""

import dataclasses
import json
import os

import pytest

import repro.experiments
from repro.cli import main
from repro.experiments import (
    experiment,
    register_experiment,
    registered_experiments,
    table_text,
)
from repro.obs.bench import DEFAULT_BENCH_FILENAME

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
OUT_DIR = os.path.join(ROOT, "benchmarks", "out")
IDS = registered_experiments()


@pytest.fixture(scope="module")
def baseline():
    with open(os.path.join(ROOT, DEFAULT_BENCH_FILENAME)) as fh:
        return json.load(fh)["benches"]


def test_the_registry_is_the_only_list():
    names = [experiment(bid).table_name for bid in IDS]
    assert len(set(names)) == len(names) == len(IDS) == 22
    with pytest.raises(ValueError, match="already registered"):
        register_experiment(experiment("E1"))
    with pytest.raises(ValueError, match="E1, E2, .*A5"):
        experiment("E99")
    # the saved tables are exactly the registered ones, one file each
    saved = {f for f in os.listdir(OUT_DIR)
             if os.path.isfile(os.path.join(OUT_DIR, f))}
    assert saved == {name + ".txt" for name in names}


@pytest.mark.parametrize("bench_id", IDS)
def test_committed_baseline_satisfies_the_claims(bench_id, baseline):
    experiment(bench_id).claims(baseline[bench_id])


@pytest.mark.parametrize("bench_id", IDS)
def test_no_experiment_registers_an_empty_contract(bench_id, baseline):
    """A contract that passes on all-zero metrics asserts nothing."""
    zeroed = {key: value if value is None else 0 * value
              for key, value in baseline[bench_id].items()}
    with pytest.raises(AssertionError):
        experiment(bench_id).claims(zeroed)


@pytest.mark.parametrize("bench_id", IDS)
def test_committed_table_is_a_view_of_the_committed_baseline(bench_id,
                                                             baseline):
    """Drift gate: ``table(<baseline block>)`` through the one
    `table_text` rendering is the committed ``.txt``, byte for byte
    (regenerate: ``pytest benchmarks -q``)."""
    exp = experiment(bench_id)
    with open(os.path.join(OUT_DIR, exp.table_name + ".txt")) as fh:
        assert fh.read() == table_text(exp.table(baseline[bench_id]))


def test_a_broken_claim_writes_no_document(monkeypatch, tmp_path):
    """A Charlotte whose reply acknowledgments cost nothing contradicts
    §3.2; ``bench`` must raise before the envelope is written."""
    e7 = experiment("E7")
    monkeypatch.setitem(
        repro.experiments._REGISTRY, "E7", dataclasses.replace(
            e7, measure=lambda seed, quick: {
                **e7.measure(seed, quick), "acked_messages": 24.0}))
    out = tmp_path / "BENCH_broken.json"
    with pytest.raises(AssertionError, match=r"E7 breaks a claim of §3\.2: "
                                             r".*acked_messages"):
        main(["bench", "--quick", "--only", "E7", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("bench_id", IDS)
def test_bench_only_accepts_every_id(bench_id, capsys):
    assert main(["bench", "--quick", "--only", bench_id, "--out", "-"]) == 0
    assert list(json.loads(capsys.readouterr().out)["benches"]) == [bench_id]
