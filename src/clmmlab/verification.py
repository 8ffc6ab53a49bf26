"""Property and oracle suites behind `clmmlab verify`.

Each check is a standalone function returning a CheckResult; the
acceptance tests call the same functions, so the CLI and the test suite
cannot drift apart. Checks are numbered; see run_checks.
"""

import contextlib
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import nets, tabular, toymdp
from .accounting import lvr_over_path, ordered_sum
from .amm import LiquidityPosition, band_for_center, liquidity_for_budget
from .backtest import (DRIFT_MUS, OUT_DIR_FILES, drift_gap, drift_neutrality_study,
                       run_backtest_dir)
from .baselines import ewa_weights
from .dqn import DDQNConfig, train_ddqn
from .marketdata import bundled_candles_path
from .report import REPORT_CSV_HEADER, Report, verify_published_table, read_report_csv


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    time_limit: Optional[float] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        timing = f"{self.elapsed:.1f}s"
        if self.time_limit is not None:
            timing += f" / limit {self.time_limit:.0f}s"
        return f"criterion {self.criterion} {self.name}: {status} ({timing}) {self.detail}"


def _finish(criterion: int, name: str, t0: float, passed: bool, detail: str,
            limit: Optional[float] = None) -> CheckResult:
    elapsed = time.perf_counter() - t0
    if limit is not None and elapsed >= limit:
        passed = False
        detail += f"; exceeded {limit:.0f}s time limit"
    return CheckResult(criterion, name, passed, detail, elapsed, limit)


def _random_band_and_path(rng: np.random.Generator, n_moves: int = 8):
    """A random position band plus a price path that crosses its edges."""
    spacing = int(rng.choice([10, 60, 200]))
    center = spacing * int(rng.integers(-30_000 // spacing, 30_000 // spacing))
    width = int(rng.integers(1, 9))
    lo, hi = band_for_center(center, width, spacing)
    log_half = 0.5 * math.log(hi / lo)
    p = math.exp(rng.uniform(math.log(lo) - log_half,
                             math.log(hi) + log_half))
    path = [p]
    for _ in range(n_moves):
        p *= math.exp(rng.normal(0.0, 1.2 * log_half))
        path.append(p)
    liquidity = float(rng.uniform(0.1, 100.0))
    return lo, hi, liquidity, path


def check_accounting_identity(n_trials: int = 10_000, seed: int = 0
                              ) -> CheckResult:
    """Value change equals hedge PnL plus LVR; LVR increments stay <= 0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    worst_incr = -math.inf
    for _ in range(n_trials):
        lo, hi, liq, path = _random_band_and_path(rng)
        pos = LiquidityPosition(lo, hi, liq)
        # one kernel call per move keeps the per-move LVR increments
        moves = [lvr_over_path(pos, path[i:i + 2]) for i in range(len(path) - 1)]
        lvr = ordered_sum(m[0] for m in moves)
        dv = ordered_sum(m[2] for m in moves)
        hedge = ordered_sum(m[3] for m in moves)
        # hedge is the short leg -x dp, so dV = -hedge + lvr.
        rel = abs(dv + hedge - lvr) / max(1.0, abs(dv))
        worst_rel = max(worst_rel, rel)
        worst_incr = max(worst_incr, max(m[0] for m in moves))
    passed = worst_rel <= 1e-9 and worst_incr <= 1e-12
    detail = (f"{n_trials} trials, worst identity residual {worst_rel:.2e} "
              f"(tol 1e-9), max LVR increment {worst_incr:.2e} (tol 1e-12)")
    return _finish(1, "accounting-identity", t0, passed, detail, limit=10.0)


def _micro_fee(liquidity: float, lo: float, hi: float, path: Sequence[float],
               fee_tier: float, n_micro: int) -> float:
    """Brute-force fee accrual on sqrt-price micro-steps clipped to the band."""
    rate = fee_tier / (1.0 - fee_tier)
    s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
    per_move = max(1, n_micro // (len(path) - 1))
    total = 0.0
    for p1, p2 in zip(path[:-1], path[1:]):
        grid = np.linspace(math.sqrt(p1), math.sqrt(p2), per_move + 1)
        clipped = np.clip(grid, s_lo, s_hi)
        total += float(np.abs(np.diff(clipped)).sum())
    return rate * liquidity * total


def check_fee_oracle(n_paths: int = 1_000, n_micro: int = 10_000,
                     seed: int = 1) -> CheckResult:
    """Closed-form path fee matches micro-step accrual on crossing paths."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    fee_tier = 0.003
    worst = 0.0
    crossing = 0
    for _ in range(n_paths):
        lo, hi, liq, path = _random_band_and_path(rng)
        crossing += any(not lo <= p <= hi for p in path)
        closed = lvr_over_path(LiquidityPosition(lo, hi, liq), path, fee_tier)[1]
        micro = _micro_fee(liq, lo, hi, path, fee_tier, n_micro)
        worst = max(worst, abs(closed - micro) / max(1e-12, abs(micro)))
    passed = worst <= 1e-6 and crossing > n_paths // 2
    detail = (f"{n_paths} paths ({crossing} crossing a boundary), worst "
              f"relative error {worst:.2e} (tol 1e-6)")
    return _finish(2, "fee-oracle", t0, passed, detail, limit=30.0)


def check_value_continuity(n_positions: int = 10_000, seed: int = 2
                           ) -> CheckResult:
    """Position value is continuous at band edges; budgets round-trip."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_jump = 0.0
    worst_budget = 0.0
    eps = 1e-10
    for _ in range(n_positions):
        lo, hi, liq, _ = _random_band_and_path(rng, n_moves=1)
        pos = LiquidityPosition(lo, hi, liq)
        for edge in (lo, hi):
            below = pos.value(edge * (1.0 - eps))
            above = pos.value(edge * (1.0 + eps))
            ref = max(1.0, abs(pos.value(edge)))
            worst_jump = max(worst_jump, abs(above - below) / ref)
        budget = float(rng.uniform(10.0, 10_000.0))
        price = math.exp(rng.uniform(math.log(lo) - 0.3 * math.log(hi / lo),
                                     math.log(hi) + 0.3 * math.log(hi / lo)))
        liquidity = liquidity_for_budget(budget, price, lo, hi)
        back = LiquidityPosition(lo, hi, liquidity).value(price)
        worst_budget = max(worst_budget, abs(back - budget) / budget)
    passed = worst_jump <= 1e-9 and worst_budget <= 1e-9
    detail = (f"{n_positions} positions, worst edge jump {worst_jump:.2e}, "
              f"worst budget round-trip {worst_budget:.2e} (tol 1e-9)")
    return _finish(3, "value-continuity", t0, passed, detail)


def check_published_table() -> CheckResult:
    """PnL = fee - gas - LVR reproduces the published detail table."""
    t0 = time.perf_counter()
    chk = verify_published_table()
    example = next(r for r in chk.rows
                   if (r["pool"], r["period"], r["method"]) == ("usdc", 1, "ddqn"))
    example_ok = (example["exact"]
                  and example["relative_fee"] == 0.691
                  and abs(example["reconstructed_pnl"] - 0.373) < 1e-12)
    passed = (chk.n_rows == 32 and chk.all_within_ulp and chk.n_exact == 25
              and example_ok)
    detail = (f"{chk.n_rows} rows, {chk.n_exact} exact at 3 printed decimals, "
              f"max |residual| {chk.max_abs_error:.4f} (one printed ulp); "
              f"0.691-0.113-0.205=0.373 exact: {example_ok}")
    return _finish(4, "published-table-arithmetic", t0, passed, detail)


def check_network(n_inputs: int = 1_000, seed: int = 3) -> CheckResult:
    """Dueling mean identity, analytic gradients, checkpoint round-trip."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = nets.init_params(6, 4, hidden=(16, 16), seed=seed)
    states = rng.normal(size=(n_inputs, 6))
    q, v, _ = nets.forward(params, states)
    worst_mean = float(np.abs(q.mean(axis=1) - v).max())

    eps = 1e-5
    p = s = None
    for trial in range(100):
        p = nets.init_params(3, 3, hidden=(4, 4), seed=trial)
        rng2 = np.random.default_rng(500 + trial)
        s = rng2.normal(size=(5, 3))
        z1 = s @ p.w1 + p.b1
        z2 = np.maximum(z1, 0.0) @ p.w2 + p.b2
        if min(np.abs(z1).min(), np.abs(z2).min()) > 1e-3:
            break
    else:
        return _finish(5, "network", t0, False, "no kink-free config found")
    actions = rng2.integers(0, 3, size=5)
    targets = rng2.normal(size=5)
    _, grads = nets.loss_and_gradients(p, s, actions, targets)
    worst_grad = 0.0
    for name, arr in p.arrays():
        g = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = nets.loss_and_gradients(p, s, actions, targets)
            arr[idx] = orig - eps
            lm, _ = nets.loss_and_gradients(p, s, actions, targets)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst_grad = max(worst_grad, abs(fd - g[idx]) / denom)

    with tempfile.TemporaryDirectory(prefix="clmmlab-net-") as tmp:
        path = os.path.join(tmp, "ckpt.json")
        opt = nets.OptimizerState.for_params(params)
        nets.save_checkpoint(path, params, opt=opt, metadata={"seed": seed})
        loaded, opt2, meta = nets.load_checkpoint(path)
        bitexact = all(np.array_equal(a, getattr(loaded, n))
                       for n, a in params.arrays())
        bitexact &= meta == {"seed": seed}
        bitexact &= (opt.m.flat.tobytes() == opt2.m.flat.tobytes()
                     and opt.v.flat.tobytes() == opt2.v.flat.tobytes())

    passed = worst_mean <= 1e-6 and worst_grad <= 1e-4 and bitexact
    detail = (f"mean identity {worst_mean:.2e} over {n_inputs} inputs "
              f"(tol 1e-6), gradcheck {worst_grad:.2e} (tol 1e-4), "
              f"checkpoint bit-exact: {bitexact}")
    return _finish(5, "network", t0, passed, detail)


# Training setup for the toy-market convergence study: the production
# hyperparameters scaled down to the toy problem (higher learning rate,
# smaller batches and buffer) so ten seeds fit in minutes.
TOY_DDQN = DDQNConfig(learning_rate=3e-3, batch_size=64, warm_start=500,
                      eval_every_episodes=10, patience=10,
                      buffer=10_000)
TOY_BUDGET = 24_000


def check_toy_convergence(n_seeds: int = 10, seed0: int = 0) -> CheckResult:
    """DDQN reaches >= 95% of the value-iteration optimum on >= 8/10 seeds."""
    t0 = time.perf_counter()
    config = toymdp.ToyConfig()
    transitions, rewards = toymdp.build_tabular_mdp(config)
    q_star, _ = tabular.value_iteration(transitions, rewards, config.gamma)
    s0 = toymdp.state_index(0, toymdp.LEVEL_CYCLE[0], 1)
    v_star = float(q_star[s0].max())
    ratios = []
    for k in range(n_seeds):
        train_env = toymdp.ToyPriceCycleEnv(config)
        eval_env = toymdp.ToyPriceCycleEnv(config)
        result = train_ddqn(train_env, eval_env, TOY_DDQN, TOY_BUDGET,
                            seed=seed0 + k)
        policy = toymdp.greedy_policy_from_net(result.params, config)
        v_pi = tabular.policy_value(policy, transitions, rewards,
                                    config.gamma)[s0]
        ratios.append(float(v_pi) / v_star)
    wins = sum(r >= 0.95 for r in ratios)
    passed = wins >= 8
    detail = (f"{wins}/{n_seeds} seeds >= 95% of oracle return "
              f"(ratios {['%.3f' % r for r in ratios]}, V*={v_star:.4f}, "
              f"buffer {TOY_DDQN.buffer}, budget {TOY_BUDGET})")
    return _finish(6, "toy-convergence", t0, passed, detail, limit=600.0)


def check_drift_neutrality() -> CheckResult:
    """Hedged PnL ignores drift sign; unhedged PnL follows it."""
    t0 = time.perf_counter()
    study = drift_neutrality_study()
    h_diff, h_se = drift_gap(study, "hedged")
    u_diff, u_se = drift_gap(study, "unhedged")
    up_mean = study[max(DRIFT_MUS)]["unhedged_mean"]
    dn_mean = study[min(DRIFT_MUS)]["unhedged_mean"]
    hedged_ok = abs(h_diff) < 2.0 * h_se
    unhedged_ok = abs(u_diff) > 2.0 * u_se and up_mean > 0.0 and dn_mean < 0.0
    passed = hedged_ok and unhedged_ok
    detail = (f"hedged |diff| {abs(h_diff):.5f} = {abs(h_diff) / h_se:.2f} SE "
              f"(< 2), unhedged diff {u_diff:+.4f} = {abs(u_diff) / u_se:.1f} "
              f"SE (> 2) with means {up_mean:+.3f} / {dn_mean:+.3f}")
    return _finish(7, "drift-neutrality", t0, passed, detail, limit=300.0)


def check_ewa_weights(seed: int = 4) -> CheckResult:
    """Weight normalization, small-eta uniformity, known softmax point."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        rewards = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=n)
        w = ewa_weights(rewards, float(rng.uniform(0.01, 10.0)))
        worst_norm = max(worst_norm, abs(float(w.sum()) - 1.0))
    tiny = ewa_weights(np.array([5.0, -3.0, 0.4]), 1e-12)
    uniform_err = float(np.abs(tiny - 1.0 / 3.0).max())
    example = tuple(round(float(w), 3)
                    for w in ewa_weights(np.array([1.0, 0.0, 0.0]), 1.0))
    example_ok = example == (0.576, 0.212, 0.212)
    passed = worst_norm <= 1e-12 and uniform_err <= 1e-9 and example_ok
    detail = (f"norm residual {worst_norm:.1e} (tol 1e-12), eta->0 deviation "
              f"{uniform_err:.1e}, softmax(1,0,0) -> {example}: {example_ok}")
    return _finish(8, "ewa-weights", t0, passed, detail)


def _work_dir(work_dir: Optional[str], prefix: str):
    """work_dir as given, or a temporary directory removed on exit."""
    if work_dir is not None:
        return contextlib.nullcontext(work_dir)
    return tempfile.TemporaryDirectory(prefix=prefix)


def _bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_determinism(work_dir: Optional[str] = None) -> CheckResult:
    """Identical config + seed give bit-identical artifacts."""
    t0 = time.perf_counter()
    with _work_dir(work_dir, "clmmlab-det-") as tmp:
        settings = dict(method="tau-reset", tau=6, candles=bundled_candles_path(),
                        horizon=300, seed=7)
        dirs = [os.path.join(tmp, f"bt{i}") for i in (1, 2)]
        for d in dirs:
            run_backtest_dir(settings, d)
        backtest_same = all(
            _bytes(os.path.join(dirs[0], f)) == _bytes(os.path.join(dirs[1], f))
            for f in OUT_DIR_FILES["backtest"])

        from .cli import main as cli_main
        train_dirs = [os.path.join(tmp, f"tr{i}") for i in (1, 2)]
        # Budget past the learner's warm start so both runs take the
        # gradient/update path, not just rollout.
        argv = ["train", "--candles", bundled_candles_path(), "--seed", "3",
                "--episode-length", "50", "--budget", "1600",
                "--train-hours", "600", "--val-hours", "100"]
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink):
                codes = [cli_main(argv + ["--out-dir", d]) for d in train_dirs]
        train_same = codes == [0, 0] and all(
            _bytes(os.path.join(train_dirs[0], f))
            == _bytes(os.path.join(train_dirs[1], f))
            for f in OUT_DIR_FILES["train"])
    passed = backtest_same and train_same
    detail = (f"backtest artifacts bit-identical: {backtest_same}, training "
              f"artifacts bit-identical: {train_same}")
    return _finish(9, "determinism", t0, passed, detail)


def check_smoke(work_dir: Optional[str] = None) -> CheckResult:
    """CLI backtests, a default-length train, and a report on the fixture."""
    t0 = time.perf_counter()
    from .cli import main as cli_main
    fixture = bundled_candles_path()
    with _work_dir(work_dir, "clmmlab-smoke-") as tmp:
        tau_dir = os.path.join(tmp, "tau")
        ewa_dir = os.path.join(tmp, "ewa")
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink):
                codes = [
                    cli_main(["backtest", "--method", "tau-reset", "--tau", "6",
                              "--candles", fixture, "--l0", "250",
                              "--out-dir", tau_dir]),
                    cli_main(["backtest", "--method", "ewa", "--ewa-widths", "10",
                              "--ewa-eta", "1.0", "--ewa-t-re", "24",
                              "--candles", fixture, "--l0", "250",
                              "--out-dir", ewa_dir]),
                    cli_main(["train", "--candles", fixture,
                              "--episode-length", "100", "--seed", "0",
                              "--out-dir", os.path.join(tmp, "train")]),
                    cli_main(["report", "--runs", tau_dir, ewa_dir,
                              "--out-dir", os.path.join(tmp, "report")]),
                ]
        clean = codes == [0, 0, 0, 0]
        summary = os.path.join(tmp, "report", "summary.csv")
        rows = read_report_csv(summary)
        schema_ok = len(rows) == 2 and all(
            set(r) == set(REPORT_CSV_HEADER) for r in rows)
        # construction revalidates the PnL = fee - gas - LVR identity
        Report(rows)
        identity_ok = all(
            abs(r["relative_pnl"] - (r["relative_fee"] - r["relative_gas"]
                                     - r["relative_lvr"])) <= 1e-9
            for r in rows)
        artifacts_ok = all(os.path.exists(os.path.join(tmp, *parts)) for parts in (
            ("report", "cumulative_pnl.csv"), ("report", "actions.csv"),
            ("train", "checkpoint.json"), ("train", "training_log.csv")))
    passed = clean and schema_ok and identity_ok and artifacts_ok
    detail = (f"exit codes {codes}, schema valid: {schema_ok}, report "
              f"identity within 1e-9: {identity_ok}, artifacts present: "
              f"{artifacts_ok}")
    return _finish(10, "end-to-end-smoke", t0, passed, detail, limit=900.0)


ALL_CHECKS: Dict[int, Callable[..., CheckResult]] = {
    1: check_accounting_identity,
    2: check_fee_oracle,
    3: check_value_continuity,
    4: check_published_table,
    5: check_network,
    6: check_toy_convergence,
    7: check_drift_neutrality,
    8: check_ewa_weights,
    9: check_determinism,
    10: check_smoke,
}


def run_checks(criteria: Optional[Sequence[int]] = None,
               work_dir: Optional[str] = None,
               progress: Optional[Callable[[str], None]] = None
               ) -> List[CheckResult]:
    selected = sorted(ALL_CHECKS) if criteria is None else list(criteria)
    results = []
    for number in selected:
        if number not in ALL_CHECKS:
            raise ValueError(f"no such criterion: {number}")
        check = ALL_CHECKS[number]
        kwargs = {}
        if number in (9, 10) and work_dir is not None:
            kwargs["work_dir"] = os.path.join(work_dir, f"criterion{number}")
        try:
            result = check(**kwargs)
        except Exception as exc:  # a crash is a failed check, not a crash
            result = CheckResult(number, check.__name__, False,
                                 f"raised {type(exc).__name__}: {exc}", 0.0)
        results.append(result)
        if progress:
            progress(result.line())
    return results
