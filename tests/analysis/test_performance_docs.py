"""docs/PERFORMANCE.md is a contract: every symbol, CLI flag and
metric named in its tables must exist in the code, the `bench`
parser, or the committed baselines, the before/after table must
match what `BENCH_PR1.json` / `BENCH_PR7.json` actually say, and
every doc that names the bench baseline must name the one the code
writes (`DEFAULT_BENCH_FILENAME`) — so the performance book cannot
drift from the hot path it describes."""

import fnmatch
import json
import re
from pathlib import Path

from repro.obs.bench import DEFAULT_BENCH_FILENAME

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "PERFORMANCE.md"
CLI = ROOT / "src" / "repro" / "cli.py"
CODE_DIRS = ("src", "tests", "examples", "benchmarks")


def _codebase_blob() -> str:
    chunks = []
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            chunks.append(path.read_text())
    return "\n".join(chunks)


def _bench_keys() -> set:
    keys = set()
    for name in ("BENCH_PR1.json", "BENCH_PR7.json", DEFAULT_BENCH_FILENAME):
        with open(ROOT / name) as fh:
            for bench in json.load(fh)["benches"].values():
                keys.update(bench)
    return keys


def _documented_names() -> set:
    """Backticked tokens from the first column of every table row."""
    names = set()
    for line in DOC.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def test_doc_exists_and_every_documented_name_resolves():
    assert DOC.exists()
    blob = _codebase_blob()
    cli_src = CLI.read_text()
    bench_keys = _bench_keys()
    strip = re.compile(r"[^\w.*-]")  # `--compare OLD NEW` -> `--compare`
    missing = []
    for name in sorted(_documented_names()):
        symbol = strip.split(name)[0]
        if not symbol:
            continue
        if symbol.startswith("--"):
            ok = symbol in cli_src
        elif "*" in symbol:
            ok = any(fnmatch.fnmatch(k, symbol) for k in bench_keys)
        elif symbol in bench_keys:
            ok = True
        else:
            ok = symbol.lstrip("-_") in blob or symbol in blob
        if not ok:
            missing.append(name)
    assert not missing, f"documented but absent from the code: {missing}"


def test_doc_covers_every_compare_flag_and_the_defaults():
    text = DOC.read_text()
    for flag in ("--compare", "--json"):
        assert flag in text, f"compare flag {flag} missing from the doc"
        assert flag in CLI.read_text()
    # the gate is equality: the retired knobs are in neither place
    for flag in ("--threshold", "--wall-threshold", "--sim-backend NAME`"):
        assert flag not in text, f"retired flag {flag} still documented"
    assert "threshold" not in CLI.read_text()
    # every row status the report can carry is documented
    with open(ROOT / "tests" / "obs" / "golden_compare_schema.json") as fh:
        for status in json.load(fh)["statuses"]:
            assert f"| `{status}` |" in text, status


def _bench_pr_numbers(text: str) -> set:
    return {int(n) for n in re.findall(r"BENCH_PR(\d+)\.json", text)}


def test_every_doc_names_the_baseline_the_code_writes():
    """One baseline name: the newest ``BENCH_PR<n>.json`` a doc
    mentions is the one the code writes, so an older file can only
    appear as history; the CLI names no file at all (it takes
    `DEFAULT_BENCH_FILENAME`) and the workflows name only the current
    one."""
    current = _bench_pr_numbers(DEFAULT_BENCH_FILENAME)
    for rel in ("README.md", "docs/API.md", "docs/OBSERVABILITY.md",
                "docs/PERFORMANCE.md"):
        assert max(_bench_pr_numbers((ROOT / rel).read_text())) in current, rel
    assert not _bench_pr_numbers(CLI.read_text())
    for wf in ("ci.yml", "bench-full.yml"):
        text = (ROOT / ".github" / "workflows" / wf).read_text()
        assert _bench_pr_numbers(text) == current, wf


def test_before_after_table_matches_the_committed_baselines():
    """Each `| metric | bench | old | new | ... |` row must agree with
    the two committed baseline documents (to the table's precision)."""
    docs = {}
    for name in ("BENCH_PR1.json", "BENCH_PR7.json"):
        with open(ROOT / name) as fh:
            docs[name] = json.load(fh)["benches"]
    rows = 0
    for line in DOC.read_text().splitlines():
        m = re.match(
            r"\| `([\w]+)` \| (E\d+|S1) \| ([\d,.]+) \| ([\d,.]+) \|", line
        )
        if not m:
            continue
        metric, bench, old_s, new_s = m.groups()
        rows += 1
        for doc_name, shown in (("BENCH_PR1.json", old_s),
                                ("BENCH_PR7.json", new_s)):
            actual = docs[doc_name][bench][metric]
            stated = float(shown.replace(",", ""))
            assert abs(stated - actual) <= max(abs(actual) * 0.01, 5e-4), (
                f"{metric}: doc says {stated}, {doc_name} says {actual}"
            )
    assert rows >= 6, "the before/after table went missing"


def test_doc_names_the_baselines_and_the_gate_tests():
    text = DOC.read_text()
    assert DEFAULT_BENCH_FILENAME in text  # the current baseline
    assert "BENCH_PR1.json" in text        # the old trajectory point
    assert "repro.bench-compare" in text
    assert "test_ci_perf_gate_fails_a_deliberately_slowed_codec" in text
    assert "substitute the engine itself" in text  # the wheel's reference
    assert "ProtocolViolation" in text     # lazy decode's error timing


def test_doc_is_linked_from_readme_and_api():
    assert "PERFORMANCE.md" in (ROOT / "README.md").read_text()
    assert "PERFORMANCE.md" in (ROOT / "docs" / "API.md").read_text()


def _experiment_ids(lines) -> set:
    return {bid for line in lines for bid in re.findall(r"\b[EA]\d+\b", line)}


def test_experiment_ids_in_the_docs_are_the_registry():
    """Every experiment a DESIGN.md §3 row or an EXPERIMENTS.md heading
    names is registered (an ``E15–E17`` heading names its two ends),
    and EXPERIMENTS.md names every registered one."""
    from repro.experiments import registered_experiments

    registered = set(registered_experiments())
    design = (ROOT / "DESIGN.md").read_text().splitlines()
    experiments = (ROOT / "EXPERIMENTS.md").read_text().splitlines()
    indexed = _experiment_ids(
        line.split("|")[1] for line in design
        if re.match(r"\| [EA]\d+ \|", line))
    headed = _experiment_ids(l for l in experiments if l.startswith("#"))
    assert indexed == registered
    assert headed <= registered
    assert registered <= _experiment_ids(experiments)
