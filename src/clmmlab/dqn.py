"""Double DQN training on top of the dueling network.

The learner is deliberately plain: uniform replay, epsilon-greedy
exploration with a linear decay, one gradient step per environment step
once the warm-start threshold is reached, soft target updates, and greedy
evaluation on a held-out environment every few episodes with
best-so-far parameter retention and early stopping.

The discount and the epsilon schedule are this module's constants
(GAMMA, EPS_*); the gradient clip norm (nets.CLIP_NORM), the soft-update
rate (nets.SOFT_UPDATE_RATE) and the hidden sizes (nets.init_params'
default) are nets'. DDQNConfig holds only the settings a caller varies.
Each gradient step (ddqn_update) runs in place in one nets.Workspace that
train_ddqn allocates once, and each greedy action in one batch-1
activation set, allocated once per training run or greedy rollout.

The learner trains in DTYPE, float32: train_ddqn rounds its float64 init
draw (nets.init_params) once, and every kernel after that follows the
weights' dtype, so the update, the moments, the target net, the greedy acts
and the checkpoint are float32. A greedy rollout or ddqn_update on float64
params computes in float64.

Episode ends in both environments here are data truncations, not MDP
terminals, so every stored transition bootstraps: the replay buffer keeps
no terminal flag and the target has no done mask.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import nets
from .nets import NetworkParams, OptimizerState, TrainingDiverged

DTYPE = np.float32  # of the weights, moments and activations train_ddqn trains

TRAINING_LOG_HEADER = [
    "episode", "steps", "epsilon", "train_return", "val_return", "loss",
]


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling.

    Observations are kept as float32 to bound memory at the default
    million-transition capacity.
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, s, a, r, s2) -> None:
        i = self._next
        self.obs[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_obs[i] = s2
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """(s, a, r, s2) for batch_size distinct stored transitions."""
        x = np.empty((2 * batch_size, self.obs.shape[1]))
        a, r = self.sample_into(x, rng)
        return x[:batch_size], a, r, x[batch_size:]

    def sample_into(self, x: np.ndarray, rng: np.random.Generator):
        """Draw len(x) // 2 distinct stored transitions; write their s rows
        into the first half of `x` and their s2 rows into the second (a
        float32 `x` takes them uncast). Returns (a, r)."""
        batch_size = len(x) // 2
        if batch_size > self._size:
            raise ValueError(
                f"cannot sample {batch_size} from buffer of size {self._size}"
            )
        idx = rng.choice(self._size, size=batch_size, replace=False)
        x[:batch_size] = self.obs[idx]
        x[batch_size:] = self.next_obs[idx]
        return self.actions[idx], self.rewards[idx]


# The fixed learner schedule: discount GAMMA, and epsilon decaying linearly
# from EPS_START to EPS_END over the first EPS_FRACTION of the step budget.
GAMMA = 0.9
EPS_START = 1.0
EPS_END = 0.05
EPS_FRACTION = 0.5


def epsilon_at(step: int, budget: int) -> float:
    """Linear decay from EPS_START to EPS_END over EPS_FRACTION of budget."""
    horizon = max(1, int(EPS_FRACTION * budget))
    frac = min(1.0, step / horizon)
    return EPS_START + frac * (EPS_END - EPS_START)


@dataclass(frozen=True)
class DDQNConfig:
    """The learner settings callers vary; the fixed values are constants
    (see the module docstring)."""

    batch_size: int = 256
    buffer: int = 1_000_000  # replay capacity, in transitions
    learning_rate: float = nets.LEARNING_RATE
    warm_start: int = 1000
    eval_every_episodes: int = 20
    patience: int = 15

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.buffer < self.batch_size:
            raise ValueError(f"buffer must be >= batch_size={self.batch_size}, got {self.buffer}")
        # a buffer that never holds warm_start transitions never starts the learner
        if self.buffer < self.warm_start:
            raise ValueError(f"buffer must be >= warm_start={self.warm_start}, got {self.buffer}")


def ddqn_target(
    r: np.ndarray,
    s2: np.ndarray,
    local: NetworkParams,
    target: NetworkParams,
    gamma: float,
) -> np.ndarray:
    """Double-DQN targets for a batch: bootstrap with the target net at the
    local argmax (numpy's argmax breaks ties toward the lowest action)."""
    greedy = nets.forward(local, s2)[0].argmax(axis=1)
    return _bootstrap(r, greedy, nets.forward(target, s2)[0], gamma)


def _bootstrap(r, greedy, q_target, gamma):
    return r + gamma * q_target[np.arange(len(r)), greedy]


def ddqn_update(ws: nets.Workspace, buffer: ReplayBuffer, rng: np.random.Generator,
                local: NetworkParams, target: NetworkParams,
                opt: OptimizerState) -> float:
    """One learner step in place; returns its loss.

    The minibatch is the one `buffer.sample(ws.batch, rng)` draws, and the
    arithmetic is that of ddqn_target, nets.loss_and_gradients,
    nets.apply_update and nets.soft_update, op for op. The minibatch is
    drawn into ws.x as [s; s2]; the local net runs over s2 in ws.next_acts,
    the target net over s2 in ws.target_acts and the local net over s in
    ws.acts, and `local`, `target` and the moments of `opt` change in place.
    A non-finite loss raises TrainingDiverged before anything is written.
    """
    a, r = buffer.sample_into(ws.x[:, :-1], rng)
    greedy = nets._forward(local, ws.next_acts).argmax(axis=1)
    q_target = nets._forward(target, ws.target_acts)
    y = _bootstrap(r, greedy, q_target, GAMMA)
    nets._forward(local, ws.acts)
    loss = nets._backward(local, ws, a, y)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"loss became {loss}")
    nets._adam(local.flat, opt, ws.grads, ws.sq, ws.step)
    nets._blend(target.flat, local.flat, nets.SOFT_UPDATE_RATE, ws.sq)
    return loss


def greedy_rollout(env, params: NetworkParams, offset: int):
    """Run one episode acting greedily; returns (total reward, actions,
    records), a record being env.step's fourth value (LPEnv: HourRecord)."""
    obs = env.reset(offset)
    nets.check_input_dim(params, len(obs))
    acts = nets._activations(1, params)  # every greedy act's activations
    total = 0.0
    actions: List[int] = []
    records = []
    done = False
    while not done:
        acts[0][0, :-1] = obs
        a = int(nets._forward(params, acts).argmax())
        obs, r, done, record = env.step(a)
        total += r
        actions.append(a)
        records.append(record)
    return total, actions, records


@dataclass
class TrainingResult:
    params: NetworkParams
    log: List[Dict] = field(default_factory=list)
    steps: int = 0
    episodes: int = 0
    best_val_return: float = float("-inf")


def train_ddqn(
    train_env,
    eval_env,
    config: DDQNConfig,
    budget: int,
    seed: int = 0,
    eval_offset: Optional[int] = None,
) -> TrainingResult:
    """Train on random-offset episodes; keep the best validation snapshot.

    budget is the total environment-step allowance. Every eval_every_episodes
    episodes one greedy episode on eval_env from eval_offset (default its
    min_offset()) is scored; training stops early after `patience` scores
    without a new best. A non-finite loss raises TrainingDiverged.
    """
    rng = np.random.default_rng(seed)
    n_actions = train_env.config.n_actions
    probe = train_env.reset(train_env.min_offset())
    obs_dim = len(probe)
    local = nets.init_params(obs_dim, n_actions + 1, seed=seed).astype(DTYPE)
    target = local.copy()
    opt = OptimizerState.for_params(local, learning_rate=config.learning_rate)
    buffer = ReplayBuffer(config.buffer, obs_dim)
    ws = nets.Workspace(local, 2 * config.batch_size, config.batch_size)
    acts = nets._activations(1, local)  # every greedy act's activations
    if eval_offset is None:
        eval_offset = eval_env.min_offset()

    result = TrainingResult(params=local.copy())
    steps = 0
    evals_since_best = 0
    last_loss = float("nan")

    def evaluate(params: NetworkParams) -> float:
        return float(greedy_rollout(eval_env, params, eval_offset)[0])

    while steps < budget:
        offset = train_env.sample_offset(rng)
        obs = train_env.reset(offset)
        done = False
        ep_return = 0.0
        while not done and steps < budget:
            eps = epsilon_at(steps, budget)
            if rng.random() < eps:
                a = int(rng.integers(0, n_actions + 1))
            else:
                acts[0][0, :-1] = obs
                a = int(nets._forward(local, acts).argmax())
            next_obs, r, done, _ = train_env.step(a)
            buffer.add(obs, a, r, next_obs)
            obs = next_obs
            ep_return += r
            steps += 1
            if len(buffer) >= config.warm_start:
                last_loss = ddqn_update(ws, buffer, rng, local, target, opt)
        result.episodes += 1

        if result.episodes % config.eval_every_episodes == 0 or steps >= budget:
            val_return = evaluate(local)
            row = {
                "episode": result.episodes,
                "steps": steps,
                "epsilon": epsilon_at(steps, budget),
                "train_return": ep_return,
                "val_return": val_return,
                "loss": last_loss,
            }
            result.log.append(row)
            if val_return > result.best_val_return:
                result.best_val_return = val_return
                result.params = local.copy()
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best >= config.patience:
                    break

    result.steps = steps
    if result.best_val_return == float("-inf"):
        # the last episode always evaluates, so only a budget < 1 or
        # evaluations that all returned NaN or -inf get here: keep the last params
        result.params = local.copy()
        result.best_val_return = evaluate(local)
    return result

