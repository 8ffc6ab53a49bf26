"""The benchmark's workloads (perfbench/workloads.py) build clmmlab configs
and call its public API directly. A change to a config's fields or to a
function's parameters would make every op of the benchmark fail; this runs
each workload's setup, the baseline sweep's config list and the checks,
against the current code."""

import importlib.util
import json
import math
import os

from clmmlab import backtest
from clmmlab.features import OBSERVATION_DIM

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


def test_every_check_reads_names_of_the_current_api(tmp_path):
    """A workload's op and check read clmmlab names that its setup does
    not (train's defaults, the toy learner's settings, the checkpoint
    reader, the toy policy extractor). Fed what their ops return and
    write, the checks must run and pass on their own terms."""
    module = _workloads()
    cli, dqn, nets, toymdp, verification = (module.cli, module.dqn, module.nets,
                                            module.toymdp, module.verification)
    assert isinstance(verification.TOY_DDQN, dqn.DDQNConfig)
    assert type(verification.TOY_BUDGET) is int and verification.TOY_BUDGET > 0

    train = module.WORKLOADS["ddqn-train"]
    state = train.setup(9001, str(tmp_path))
    steps = cli.TRAIN_DEFAULTS["episodes"] * cli.TRAIN_DEFAULTS["episode_length"]
    n_actions = backtest.RunConfig(method="ddqn").n_actions
    nets.save_checkpoint(str(tmp_path / "checkpoint.json"),
                         nets.init_params(OBSERVATION_DIM, n_actions + 1, seed=0))
    (tmp_path / "run.json").write_text(json.dumps({"steps": steps}))
    assert train.check(state, 0, str(tmp_path)) == {"hours": steps, "attempted": 1,
                                                    "errors": []}

    toy = module.WORKLOADS["toy-ddqn"]
    state = toy.setup(9001, str(tmp_path))
    params = nets.init_params(toymdp.OBS_DIM, toymdp.N_WIDTHS + 1, seed=0)
    record = toy.check(state, dqn.TrainingResult(params=params, steps=7), str(tmp_path))
    assert record["hours"] == 7 and math.isfinite(record["oracle_ratio"])


def test_baseline_sweep_op_and_check_run_clean(tmp_path):
    """The sweep's op and check end to end at a small size: run_backtest,
    write_run_dir's paths, the drift study and Report.from_run_dirs as the
    benchmark calls them."""
    sweep = _workloads().WORKLOADS["baseline-sweep"]
    sweep.hours, sweep.drift_seeds, sweep.drift_hours = 120, 2, 50
    state = sweep.setup(9001, str(tmp_path))
    out = sweep.op(state, 0, str(tmp_path / "op"))
    record = sweep.check(state, out, str(tmp_path / "op"))
    assert record["errors"] == []
    assert record["attempted"] == len(sweep.configs(state)) + 2
    assert record["hours"] == len(sweep.configs(state)) * 120 + 2 * 2 * 50
