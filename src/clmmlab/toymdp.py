"""Deterministic toy control task for verifying the Q-learner.

The price walks an 8-phase triangle over five tick-aligned levels
(0,1,2,3,4,3,2,1), one 60-tick step per hour. The agent holds one
position described by (center level, width in {1, 2}); action 0 holds,
action a >= 1 re-centers at the current level with width a, paying gas.
Each step the position accrues fee + LVR over the two-point move, always
with a fixed reinvestment budget, so the task is a finite MDP with
8 phases x 5 centers x 2 widths = 80 states and known optimal values via
value iteration.

ToyConfig's n_actions (N_WIDTHS) and gamma (dqn.GAMMA, the learner's own
discount) are class constants: the state encoding fixes the first, and the
optimum the learner is scored against must use the discount it trains with.

The fee tier is deliberately mismatched to the tick spacing (1% fee on
60-tick moves) so in-range moves net a clear positive reward; gas 0.3 is
tuned so the optimal policy must both hold and re-center: holding any
fixed position forever and re-centering every hour are both strictly
worse than the optimum by a wide margin.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from .accounting import lvr_over_path
from .amm import mint_band, tick_to_price
from .dqn import GAMMA

BASE_TICK = 46080
TICK_SPACING = 60
LEVEL_CYCLE = (0, 1, 2, 3, 4, 3, 2, 1)
N_PHASES = len(LEVEL_CYCLE)
N_LEVELS = 5
N_WIDTHS = 2
N_STATES = N_PHASES * N_LEVELS * N_WIDTHS
OBS_DIM = N_PHASES + N_LEVELS + N_WIDTHS


@dataclass(frozen=True)
class ToyConfig:
    episode_length: int = 64
    gas: float = 0.3
    budget: float = 250.0
    fee_tier: float = 0.01
    # fixed by the state encoding and by the learner the task checks
    n_actions: ClassVar[int] = N_WIDTHS
    gamma: ClassVar[float] = GAMMA


def level_price(level: int) -> float:
    return tick_to_price(BASE_TICK + TICK_SPACING * level)


def state_index(phase: int, center: int, width: int) -> int:
    return (phase * N_LEVELS + center) * N_WIDTHS + (width - 1)


def state_tuple(index: int) -> Tuple[int, int, int]:
    width = index % N_WIDTHS + 1
    rest = index // N_WIDTHS
    return rest // N_LEVELS, rest % N_LEVELS, width


def observation_for(phase: int, center: int, width: int) -> np.ndarray:
    obs = np.zeros(OBS_DIM)
    obs[phase] = 1.0
    obs[N_PHASES + center] = 1.0
    obs[N_PHASES + N_LEVELS + (width - 1)] = 1.0
    return obs


def _move_reward(center: int, width: int, lvl_from: int, lvl_to: int,
                 config: ToyConfig) -> float:
    # a level's price snaps back to its own tick, BASE_TICK + TICK_SPACING * level
    _, pos = mint_band(level_price(center), width, TICK_SPACING, config.budget)
    path = [level_price(lvl_from), level_price(lvl_to)]
    lvr, fee, _, _, _ = lvr_over_path(pos, path, fee_tier=config.fee_tier)
    return fee + lvr


def build_tabular_mdp(config: Optional[ToyConfig] = None):
    """Exact (transitions, rewards) tensors mirroring ToyPriceCycleEnv."""
    config = config or ToyConfig()
    n_a = config.n_actions + 1
    transitions = np.zeros((N_STATES, n_a, N_STATES))
    rewards = np.zeros((N_STATES, n_a))
    for phase in range(N_PHASES):
        lvl = LEVEL_CYCLE[phase]
        lvl_next = LEVEL_CYCLE[(phase + 1) % N_PHASES]
        for center in range(N_LEVELS):
            for width in range(1, N_WIDTHS + 1):
                s = state_index(phase, center, width)
                for a in range(n_a):
                    if a == 0:
                        c2, w2, gas = center, width, 0.0
                    else:
                        c2, w2, gas = lvl, a, config.gas
                    s2 = state_index((phase + 1) % N_PHASES, c2, w2)
                    transitions[s, a, s2] = 1.0
                    rewards[s, a] = _move_reward(c2, w2, lvl, lvl_next, config) - gas
    return transitions, rewards


class ToyPriceCycleEnv:
    """Environment wrapper over the tabular task, for the DQN training loop.

    Matches the trading env protocol (reset/step/sample_offset/min_offset)
    with one-hot observations; step's fourth value is None, and
    state_index() names the state reached. Rewards are precomputed from the
    tabular tensors so episodes are cheap.
    """

    def __init__(self, config: Optional[ToyConfig] = None):
        self.config = config or ToyConfig()
        self.transitions, self.rewards = build_tabular_mdp(self.config)
        self._next_state = self.transitions.argmax(axis=2)
        self._phase = 0
        self._center = 0
        self._width = 1
        self._steps = 0
        self.done = True

    def min_offset(self) -> int:
        return 0

    def sample_offset(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, N_PHASES))

    def reset(self, offset: int) -> np.ndarray:
        phase = offset % N_PHASES
        self._phase = phase
        self._center = LEVEL_CYCLE[phase]
        self._width = 1
        self._steps = 0
        self.done = False
        return observation_for(self._phase, self._center, self._width)

    def state_index(self) -> int:
        return state_index(self._phase, self._center, self._width)

    def step(self, action: int):
        if self.done:
            raise RuntimeError("episode is done; call reset() first")
        action = int(action)
        if action < 0 or action > self.config.n_actions:
            raise ValueError(f"action {action} outside 0..{self.config.n_actions}")
        s = self.state_index()
        r = float(self.rewards[s, action])
        s2 = int(self._next_state[s, action])
        self._phase, self._center, self._width = state_tuple(s2)
        self._steps += 1
        self.done = self._steps >= self.config.episode_length
        return observation_for(self._phase, self._center, self._width), r, self.done, None


def greedy_policy_from_net(params, config: Optional[ToyConfig] = None) -> np.ndarray:
    """Greedy tabular policy induced by a Q-network over all toy states."""
    from . import nets

    config = config or ToyConfig()
    obs = np.stack([observation_for(*state_tuple(s)) for s in range(N_STATES)])
    q, _, _ = nets.forward(params, obs)
    return q.argmax(axis=1)
