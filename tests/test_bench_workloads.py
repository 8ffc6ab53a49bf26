"""The benchmark's workloads (perfbench/workloads.py) build clmmlab configs
and call its public API directly. A change to a config's fields or to a
function's parameters would make every op of the benchmark fail; this runs
each workload's setup, and the baseline sweep's config list, against the
current code."""

import importlib.util
import os

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_sets_up_against_the_current_api(tmp_path):
    workloads = _workloads().WORKLOADS
    assert set(workloads) == {"ddqn-train", "toy-ddqn", "baseline-sweep"}
    states = {}
    for name, workload in workloads.items():
        work_dir = tmp_path / name
        work_dir.mkdir()
        states[name] = workload.setup(9001, str(work_dir))
        assert states[name]["seed"] == 9001
    sweep = workloads["baseline-sweep"]
    configs = sweep.configs(states["baseline-sweep"])
    assert len(configs) == len(sweep.path_models) * (len(sweep.taus) + len(sweep.ewa)) + 1
