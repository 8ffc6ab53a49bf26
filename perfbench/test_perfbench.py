"""Self-test of the benchmark, run the way a benchmark driver runs it.

    python3 -m pytest perfbench -q

Each workload runs once untraced and twice traced with `--seconds 1`, so
this takes several minutes. It is not part of the tier-1 suite, which
collects only `tests/`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes")


def run(workload, trace, root=ROOT, seed=3):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result_of(done, kind, workload):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload} {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0), "end_to_end", workload)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run(workload, 1), "per_layer", workload)
    second = result_of(run(workload, 1), "per_layer", workload)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, root=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracing_restores_every_patched_attribute():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import spans
    import workloads  # noqa: F401  (imports every traced clmmlab module)

    def snapshot():
        out = {}
        for name, mod in list(sys.modules.items()):
            if name == "clmmlab" or name.startswith("clmmlab."):
                for attr, value in vars(mod).items():
                    out[name, attr] = value
                    if isinstance(value, type):
                        out.update({(name, attr, k): v
                                    for k, v in vars(value).items()})
        return out

    before = snapshot()
    tracer = spans.Tracer()
    with tracer.tracing("test"):
        during = snapshot()
    after = snapshot()
    changed = [k for k in before if before[k] is not during[k]]
    assert ("clmmlab.env", "lvr_over_path") in changed
    assert ("clmmlab.env", "LPEnv", "step") in changed
    assert ("clmmlab.indicators", "ht_dc_phase") in changed
    assert all(before[k] is after[k] for k in before)
