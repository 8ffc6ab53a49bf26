"""The benchmark's three workloads, written against clmmlab's public API.

Each workload has:
- `setup(seed, work_dir) -> state`;
- `op(state, k, out_dir) -> out`, one user-visible operation (one
  `clmmlab train`, one toy learner seed, one baseline sweep). Only this
  part is timed and traced;
- `check(state, out, out_dir) -> record`, which checks the op's outputs and
  returns its replayed hours (environment steps or candle-hours),
  `attempted` sub-operations and `errors`, one message per failed
  sub-operation.

Every clmmlab call goes through a module attribute (`backtest.run_backtest`,
not a name imported here), so the traced run sees it.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from clmmlab import (backtest, cli, dqn, features, marketdata, nets, report,
                     tabular, toymdp, verification)


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


class DdqnTrain:
    """The default `clmmlab train` on the bundled fixture, via cli.main."""

    name = "ddqn-train"
    rate_name = "env_steps_per_s"

    def setup(self, seed, work_dir):
        # `clmmlab train` loads the fixture itself; loading it here checks it
        path = marketdata.bundled_candles_path()
        marketdata.load_candles_csv(path)
        return {"seed": seed, "candles": path}

    def op(self, state, k, out_dir):
        argv = ["train", "--candles", state["candles"],
                "--seed", str(state["seed"]), "--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, state, code, out_dir):
        if code != 0:
            return {"hours": 0, "attempted": 1,
                    "errors": [f"clmmlab train exited {code}"]}
        errors = []
        with open(os.path.join(out_dir, "run.json")) as fh:
            steps = json.load(fh)["steps"]
        budget = cli.TRAIN_DEFAULTS["episodes"] * cli.TRAIN_DEFAULTS["episode_length"]
        if steps != budget:
            errors.append(f"trained {steps} steps, budget is {budget}")
        ckpt = os.path.join(out_dir, "checkpoint.json")
        try:
            params, _, _ = nets.load_checkpoint(ckpt)
        except nets.CheckpointError as e:
            errors.append(f"checkpoint does not load: {e}")
        else:
            if not all(np.all(np.isfinite(a)) for _, a in params.arrays()):
                errors.append("checkpoint holds non-finite parameters")
        # one seed, one checkpoint: every op of a run must write the same bytes
        with open(ckpt, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if state.setdefault("checkpoint_sha256", digest) != digest:
            errors.append("checkpoint bytes differ from the run's first op")
        return {"hours": steps, "attempted": 1,
                "errors": ["; ".join(errors)] if errors else []}


class ToyDdqn:
    """Criterion 6's learner on the toy MDP, scored against value iteration."""

    name = "toy-ddqn"
    rate_name = "env_steps_per_s"
    seed_stride = 1000  # op k trains toy seed 1000 * seed + k

    def setup(self, seed, work_dir):
        config = toymdp.ToyConfig()
        transitions, rewards = toymdp.build_tabular_mdp(config)
        q_star, _ = tabular.value_iteration(transitions, rewards, config.gamma)
        s0 = toymdp.state_index(0, toymdp.LEVEL_CYCLE[0], 1)
        # envs are built here: their reward tables are the only ledger work
        return {"seed": seed, "config": config, "transitions": transitions,
                "rewards": rewards, "s0": s0, "v_star": float(q_star[s0].max()),
                "envs": (toymdp.ToyPriceCycleEnv(config),
                         toymdp.ToyPriceCycleEnv(config))}

    def op(self, state, k, out_dir):
        train_env, eval_env = state["envs"]
        return dqn.train_ddqn(train_env, eval_env, verification.TOY_DDQN,
                              verification.TOY_BUDGET,
                              seed=self.seed_stride * state["seed"] + k)

    def check(self, state, result, out_dir):
        config = state["config"]
        policy = toymdp.greedy_policy_from_net(result.params, config)
        v_pi = tabular.policy_value(policy, state["transitions"],
                                    state["rewards"], config.gamma)[state["s0"]]
        ratio = float(v_pi) / state["v_star"]
        errors = [] if ratio >= 0.95 else [f"V^pi/V* = {ratio:.4f} < 0.95"]
        return {"hours": result.steps, "attempted": 1, "errors": errors,
                "oracle_ratio": ratio}


class BaselineSweep:
    """tau-reset and EWA grids, a drift study and a ddqn backtest on GBM."""

    name = "baseline-sweep"
    rate_name = "hours_per_s"
    hours = 3000
    taus = (1, 2, 3, 4, 6, 8, 10)
    ewa = ((10, 1.0, 24), (5, 10.0, 12))  # (widths, eta, t_re)
    path_models = ("candle", "open-close")
    drift_seeds = 8
    drift_hours = 500

    def setup(self, seed, work_dir):
        warmup = features.WARMUP_CANDLES
        candles = marketdata.synth_gbm(2000.0, 0.0, 0.01,
                                       warmup + self.hours + 1, seed=seed)
        n_actions = backtest.RunConfig(method="ddqn").n_actions
        params = nets.init_params(features.OBSERVATION_DIM, n_actions + 1,
                                  seed=seed)
        ckpt = os.path.join(work_dir, "init-checkpoint.json")
        nets.save_checkpoint(ckpt, params, metadata={"seed": seed})
        return {"seed": seed, "candles": candles, "checkpoint": ckpt}

    def configs(self, state):
        window = dict(offset=features.WARMUP_CANDLES, horizon=self.hours,
                      seed=state["seed"])
        out = []
        for model in self.path_models:
            out += [backtest.RunConfig(method="tau-reset", tau=tau,
                                       path_model=model, **window)
                    for tau in self.taus]
            out += [backtest.RunConfig(method="ewa", ewa_widths=n, ewa_eta=eta,
                                       ewa_t_re=t_re, path_model=model, **window)
                    for n, eta, t_re in self.ewa]
        out.append(backtest.RunConfig(method="ddqn", checkpoint=state["checkpoint"],
                                      **window))
        return out

    def op(self, state, k, out_dir):
        """Every backtest, its run dir, the drift study and the report.

        replay_s is the time spent replaying hours: inside run_backtest and
        the drift study, not writing or aggregating.
        """
        dirs, hours, replay_s = [], 0, 0.0
        for i, config in enumerate(self.configs(state)):
            t0 = time.perf_counter()
            result = backtest.run_backtest(state["candles"], config)
            replay_s += time.perf_counter() - t0
            hours += result.horizon
            dirs.append(os.path.join(out_dir, f"{i:02d}-{config.method}"))
            backtest.write_run_dir(result, dirs[-1])
        t0 = time.perf_counter()
        study = backtest.drift_neutrality_study(
            n_seeds=self.drift_seeds, horizon=self.drift_hours,
            seed0=self.drift_seeds * state["seed"])
        replay_s += time.perf_counter() - t0
        hours += len(study) * self.drift_seeds * self.drift_hours
        try:
            aggregated = report.Report.from_run_dirs(dirs)
        except report.ReportError as e:
            aggregated = e
        return {"dirs": dirs, "hours": hours, "replay_s": replay_s,
                "study": study, "report": aggregated}

    def check(self, state, out, out_dir):
        errors = []
        for run_dir in out["dirs"]:
            problems = self._check_run_dir(run_dir)
            if problems:
                errors.append("; ".join(problems))
        if not all(_finite(*row.values()) for row in out["study"].values()):
            errors.append(f"drift study has non-finite totals: {out['study']}")
        if isinstance(out["report"], report.ReportError):
            errors.append(f"report: {out['report']}")
        elif len(out["report"].rows) != len(out["dirs"]):
            errors.append(f"report holds {len(out['report'].rows)} rows "
                          f"for {len(out['dirs'])} runs")
        return {"hours": out["hours"], "replay_s": out["replay_s"],
                "attempted": len(out["dirs"]) + 2, "errors": errors}

    @staticmethod
    def _check_run_dir(run_dir):
        errors = []
        (row,) = report.read_report_csv(os.path.join(run_dir, "report.csv"))
        try:
            report.check_row_identity(row)
        except report.ReportError as e:
            errors.append(str(e))
        totals = [row[k] for k in ("relative_fee", "relative_gas",
                                   "relative_lvr", "relative_pnl")]
        if not _finite(*totals):
            errors.append(f"{run_dir}: non-finite totals {totals}")
        with open(os.path.join(run_dir, "actions.csv"), newline="") as fh:
            actions = sum(int(r["count"]) for r in csv.DictReader(fh))
        if actions != row["hours"]:
            errors.append(f"{run_dir}: action histogram sums to {actions}, "
                          f"horizon is {row['hours']}")
        return errors


WORKLOADS = {w.name: w for w in (DdqnTrain(), ToyDdqn(), BaselineSweep())}
