"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest verdictbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ["oracle", "decide-mix", "cli-corpus"]


def bench(workload: str, trace: int, seconds: float = 1.0, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def parsed(done):
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("env ")
    return json.loads(lines[-2][4:]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    done = bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    env, result = parsed(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert env["kernel"] and env["input_sha256"] and env["speed_factor"]["median"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    done = bench(workload, trace=1, seconds=2.0)
    assert done.returncode == 0, done.stderr
    _, result = parsed(done)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == spans.LAYER_METRICS
    assert "trace.overhead_share" in metrics
    # every traced second sits in exactly one span's self time
    assert 0.97 <= metrics["trace.self_sum_share"]["value"] <= 1.0 + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_input_hash(workload):
    assert gen.input_sha256(workload, 3) == gen.input_sha256(workload, 3)
    assert gen.input_sha256(workload, 3) != gen.input_sha256(workload, 4)


def test_streams_never_repeat_an_input():
    import itertools

    for workload in WORKLOADS:
        head = list(itertools.islice(gen.stream(workload, 5), 3000))
        assert len(set(head)) == len(head)


def test_oracle_cycles_through_all_32_frame_subsets():
    assert len({gen.oracle_item(i)[2] for i in range(32)}) == 32


def test_exclusion_list_was_screened_for_these_pools():
    doc = json.loads(gen.SCREENED_PATH.read_text())
    assert doc["screen_max_labels"] == gen.SCREEN_MAX_LABELS
    assert doc["heavy_max_labels"] == gen.HEAVY_MAX_LABELS
    for workload in WORKLOADS:
        entry = doc["workloads"][workload]
        assert entry["params"] == gen.PARAMS[workload] and entry["pool"] == gen.PARAMS[workload]["pool"]
        assert gen.PARAMS[workload].get("max_labels", 10000) >= 2 * gen.SCREEN_MAX_LABELS


def test_streams_skip_excluded_items():
    import itertools
    import random

    for workload in WORKLOADS:
        size, listed = gen.PARAMS[workload]["pool"], gen.excluded(workload)
        if not listed:
            continue
        # a seed whose first 1000 pool items include an excluded one
        seed = next(s for s in itertools.count()
                    if any((i - random.Random(s).randrange(size)) % size < 1000 for i in listed))
        head = {json.dumps(item) for item in itertools.islice(gen.stream(workload, seed), 1000)}
        assert not head & {json.dumps(gen.ITEMS[workload](i)) for i in listed}


def test_heavy_items_are_spread_at_their_share():
    import itertools

    lists = gen.screened("decide-mix")
    heavy = {json.dumps(gen.decide_mix_item(i)) for i in lists["heavy"]}
    share = len(heavy) / (gen.PARAMS["decide-mix"]["pool"] - len(lists["excluded"]))
    for start, stop in ((0, 1000), (1000, 2000)):
        window = itertools.islice(gen.stream("decide-mix", 3), start, stop)
        assert abs(sum(json.dumps(item) in heavy for item in window) - share * 1000) <= 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "verdictbench").mkdir()
    done = bench("oracle", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_refuses_runs_of_different_inputs(tmp_path):
    import compare

    def record(path, sha):
        env = {"workload": "oracle", "seed": 1, "kernel": "pure-python", "python": "CPython",
               "trace": 0, "input_sha256": sha}
        metrics = {"queries_per_s": {"value": 10.0, "unit": "1/s"}}
        path.write_text(json.dumps({"env": env, "result": {"metrics": metrics}}))
        return str(path)

    base = record(tmp_path / "a.json", "h1")
    assert compare.main(["--base", base, "--head", record(tmp_path / "b.json", "h1")]) == 0
    assert compare.main(["--base", base, "--head", record(tmp_path / "c.json", "h2")]) == 2
