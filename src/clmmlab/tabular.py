"""Tabular value iteration for finite MDPs.

Used as the ground-truth oracle when checking the Q-learner on small
synthetic tasks: iterate

    Q(s, a) <- R(s, a) + gamma * sum_s' P(s, a, s') * max_a' Q(s', a')

to a fixed point and read off the greedy policy.
"""

from typing import Tuple

import numpy as np


def _validate_mdp(transitions: np.ndarray, rewards: np.ndarray, gamma: float) -> None:
    if transitions.ndim != 3:
        raise ValueError(f"transitions must be (S, A, S), got shape {transitions.shape}")
    n_s, n_a, n_s2 = transitions.shape
    if n_s2 != n_s:
        raise ValueError(f"transition tensor not square in states: {transitions.shape}")
    if rewards.shape != (n_s, n_a):
        raise ValueError(f"rewards shape {rewards.shape} != {(n_s, n_a)}")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if np.any(transitions < -1e-12):
        raise ValueError("negative transition probabilities")
    row_sums = transitions.sum(axis=2)
    bad = np.argwhere(np.abs(row_sums - 1.0) > 1e-9)
    if len(bad):
        s, a = bad[0]
        raise ValueError(
            f"transition row (s={s}, a={a}) sums to {row_sums[s, a]}, not 1"
        )


def value_iteration(
    transitions: np.ndarray,
    rewards: np.ndarray,
    gamma: float,
    tol: float = 1e-10,
    max_sweeps: int = 100_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal Q table and greedy policy (ties to the lowest action index)."""
    transitions = np.asarray(transitions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    _validate_mdp(transitions, rewards, gamma)
    n_s, n_a, _ = transitions.shape
    q = np.zeros((n_s, n_a))
    for _ in range(max_sweeps):
        v = q.max(axis=1)
        q_next = rewards + gamma * transitions @ v
        delta = np.max(np.abs(q_next - q))
        q = q_next
        if delta < tol:
            break
    else:
        raise RuntimeError(f"value iteration did not converge in {max_sweeps} sweeps")
    policy = q.argmax(axis=1)
    return q, policy


def policy_value(
    policy: np.ndarray,
    transitions: np.ndarray,
    rewards: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Exact V^pi by solving the linear Bellman system."""
    transitions = np.asarray(transitions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    _validate_mdp(transitions, rewards, gamma)
    n_s = transitions.shape[0]
    idx = np.arange(n_s)
    p_pi = transitions[idx, policy]
    r_pi = rewards[idx, policy]
    return np.linalg.solve(np.eye(n_s) - gamma * p_pi, r_pi)
