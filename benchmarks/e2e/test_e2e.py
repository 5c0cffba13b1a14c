"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke runs use ``--quick`` (tiny inputs, one set-up, 1 s phases), so the
whole module takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
METRIC_LINE = re.compile(r"^   (\S+)\s+(-?[0-9.e+-]+|nan|inf) (\S+)$")


def run_bench(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), "--quick", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced quick run of all four workloads."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for trace in (0, 1):
        save = out / f"results-{trace}.json"
        proc = run_bench("--seed", "1", "--trace", str(trace), "--out", str(out),
                         "--save", str(save))
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        doc = json.loads(save.read_text())
        runs[trace] = (proc.stdout, doc["traced" if trace else "untraced"], out)
    return runs


def printed_metrics(stdout: str) -> dict:
    """workload -> {metric name: unit} from the human-readable report."""
    found: dict = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = found.setdefault(line.split()[1], {})
            continue
        match = METRIC_LINE.match(line)
        if match and current is not None:
            current[match.group(1)] = match.group(3)
    return found


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(m["name"]) and UNIT_RE.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_quick_smoke_all_workloads(smoke):
    """Every workload runs, answers correctly and reports positive
    end-to-end metrics; the traced run writes one trace per workload, and
    its program, harness and tracer shares account for the traced phase."""
    _stdout, saved, out = smoke[0]
    assert set(saved) == set(workloads.WORKLOADS)
    for workload, result in saved.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["checked"] > 0, workload
        assert all(v > 0 for v in result["metrics"].values()), workload
    _stdout, traced, out = smoke[1]
    for workload, result in traced.items():
        assert result["correct"], workload
        metrics = result["metrics"]
        program = sum(metrics[f"self_share.{layer}"] for layer in tracing.PROGRAM_LAYERS)
        assert metrics["trace.coverage"] == pytest.approx(program), workload
        assert 0.9 <= program + metrics["self_share.bench"] + metrics["self_share.tracer"] \
            <= 1.01, workload
        doc = json.loads((out / f"trace-{workload}.json").read_text())
        assert doc["spans"] and {"id", "parent", "name", "start_us", "end_us",
                                 "request"} <= set(doc["spans"][0])


def test_printed_names_match_the_spec(smoke):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for trace, declared in ((0, e2e), (1, per_layer)):
        stdout = smoke[trace][0]
        printed = printed_metrics(stdout)
        assert list(printed) == list(workloads.WORKLOADS)
        for workload, metrics in printed.items():
            for name in metrics:
                assert NAME_RE.fullmatch(name), name
            assert metrics == declared, workload
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == set(declared)


def test_same_seed_same_inputs_and_bits_per_contact(smoke, tmp_path):
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / sub).mkdir()
        workloads.generate("table5-hot", seed, tmp_path / sub, workloads.QUICK)
    digests = [json.loads((tmp_path / s / "plan.json").read_text())["digest"] for s in "abc"]
    assert digests[0] == digests[1] != digests[2]
    first = smoke[0][1]
    save = tmp_path / "again.json"
    for workload in ("table5-hot", "ingest-compact"):
        proc = run_bench("--seed", "1", "--workload", workload, "--save", str(save))
        assert proc.returncode == 0, proc.stderr[-2000:]
        again = json.loads(save.read_text())["untraced"][workload]
        assert again["digest"] == first[workload]["digest"]
        assert again["metrics"]["bits_per_contact"] == first[workload]["metrics"]["bits_per_contact"]


def test_self_time_arithmetic_on_a_synthetic_tree():
    # a [0,100] has children b [10,40] and c [50,90]; c has child d [60,70].
    spans = [
        (1, 0, "a", "A", 0, 100, 7),
        (2, 1, "b", "B", 10, 40, 7),
        (3, 1, "c", "B", 50, 90, 7),
        (4, 3, "d", "C", 60, 70, 7),
    ]
    assert tracing.self_times(spans) == {"A": 30, "B": 60, "C": 10}


def test_online_self_times_match_the_offline_reference():
    class Clock:
        now = 0

        def __call__(self) -> int:
            return self.now

    clock = Clock()
    tracer = tracing.Tracer(clock=clock)

    def leaf() -> None:
        clock.now += 5

    def middle() -> None:
        clock.now += 2
        traced_leaf()
        clock.now += 3

    def root() -> None:
        traced_middle()
        clock.now += 1
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf", "L")
    traced_middle = tracer.wrap(middle, "middle", "M")
    tracer.set_request(42)
    with tracer.section("loop"):
        tracer.wrap(root, "root", "R")()
    expected = {"L": 10, "M": 5, "R": 1, "bench": 0}
    assert tracing.self_times(tracer.spans) == expected
    assert tracer.self_ns() == dict(expected, tracer=0)
    assert {span[6] for span in tracer.spans} == {42}
    assert tracer.calls()["leaf"] == (2, 10)


def test_stopwatch_scales_each_lap_by_the_probes_around_it():
    now = [0]
    probes = iter([2_000_000, 2_000_000, 1_000_000, 500_000])
    watch = hostspeed.Stopwatch(probe=lambda: next(probes), clock=lambda: now[0])
    now[0] += 10_000_000  # 10 ms while probes read 2 ms: a host at half speed
    assert watch.lap() == pytest.approx(0.005)
    assert watch.scale == pytest.approx(0.5)
    now[0] += 3_000_000  # probes 2 ms and 1 ms; left out of the totals
    assert watch.lap(count=False) == pytest.approx(0.002)
    now[0] += 3_000_000  # probes 1 ms and 0.5 ms
    assert watch.lap() == pytest.approx(0.004)
    assert watch.total_s == pytest.approx(0.009)
    assert watch.raw_s == pytest.approx(0.013)
    assert watch.probes == [2_000_000, 2_000_000, 1_000_000, 500_000]


def test_install_wraps_and_uninstall_restores():
    from repro.core import compressed, structure

    before = compressed.CompressedChronoGraph.neighbors
    decode = compressed.decode_node_structure
    tracer = tracing.Tracer()
    with tracer:
        assert compressed.CompressedChronoGraph.neighbors is not before
        # Imported by name into another module: replaced there too.
        assert compressed.decode_node_structure is not decode
        assert compressed.decode_node_structure is structure.decode_node_structure
    assert compressed.CompressedChronoGraph.neighbors is before
    assert compressed.decode_node_structure is decode


def test_refuses_another_run_length():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "table5-hot",
         "--seconds", str(SPEC["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark fails fast."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table5-hot",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
