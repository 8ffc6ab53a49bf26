"""Dense dueling Q-network with hand-rolled backprop.

No autograd framework: the network is a fixed two-layer ReLU trunk with a
scalar value head and a per-action advantage head,

    q(s, a) = V(s) + A(s, a) - mean_a' A(s, a'),

so mean_a q(s, a) = V(s) identically. Gradients of the squared TD loss are
derived analytically and checked against central finite differences in the
test suite. Everything is float64 numpy; training is deterministic given
the init seed and data order. All weights live in one float64 vector,
`NetworkParams.flat`, that the named arrays view. Gradients, the Adam moments
(OptimizerState.m and .v) and the target net are NetworkParams in the same
layout; checkpoints (`dueling-mlp-v1`) store one named array per parameter
for the weights and for each moment, decoded by one helper.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

CHECKPOINT_FORMAT = "dueling-mlp-v1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 0.7  # global gradient-norm clip
LEARNING_RATE = 1e-4  # Adam step size of a learner that names none


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the expected shapes."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradients encountered."""


PARAM_NAMES = ("w1", "b1", "w2", "b2", "wv", "bv", "wa", "ba")


class NetworkParams:
    """Dueling MLP weights: biases 1-d, weights (in, out), all views into `flat`."""

    def __init__(self, w1, b1, w2, b2, wv, bv, wa, ba):
        arrays = [np.asarray(a, dtype=float) for a in (w1, b1, w2, b2, wv, bv, wa, ba)]
        stops = list(itertools.accumulate(a.size for a in arrays))
        layout = tuple(zip(PARAM_NAMES, [0] + stops[:-1], stops,  # name, start, stop, shape
                           [a.shape for a in arrays]))
        self._bind(np.concatenate([a.reshape(-1) for a in arrays]), layout)

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: Tuple) -> "NetworkParams":
        """Wrap `flat` (not copied) with the named views of `layout`."""
        self = cls.__new__(cls)
        self._bind(flat, layout)
        return self

    def _bind(self, flat, layout):
        self.flat, self.layout = flat, layout
        for name, start, stop, shape in layout:
            setattr(self, name, flat[start:stop].reshape(shape))

    def arrays(self) -> List[Tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.wa.shape[1]

    def copy(self) -> "NetworkParams":
        return NetworkParams.from_flat(self.flat.copy(), self.layout)

    def validate(self) -> None:
        h1 = self.w1.shape[1]
        h2 = self.w2.shape[1]
        expected = {
            "w1": (self.w1.shape[0], h1), "b1": (h1,),
            "w2": (h1, h2), "b2": (h2,),
            "wv": (h2, 1), "bv": (1,),
            "wa": (h2, self.wa.shape[1]), "ba": (self.wa.shape[1],),
        }
        for name, arr in self.arrays():
            if arr.shape != expected[name]:
                raise CheckpointError(
                    f"parameter {name} has shape {arr.shape}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"parameter {name} contains non-finite values")


def init_params(
    input_dim: int,
    n_outputs: int,
    hidden: Tuple[int, int] = (64, 64),
    seed: int = 0,
) -> NetworkParams:
    """Uniform fan-in init, zero biases, seeded for reproducibility."""
    rng = np.random.default_rng(seed)

    def layer(n_in, n_out):
        bound = 1.0 / math.sqrt(n_in)
        return rng.uniform(-bound, bound, size=(n_in, n_out))

    h1, h2 = hidden
    return NetworkParams(
        w1=layer(input_dim, h1), b1=np.zeros(h1),
        w2=layer(h1, h2), b2=np.zeros(h2),
        wv=layer(h2, 1), bv=np.zeros(1),
        wa=layer(h2, n_outputs), ba=np.zeros(n_outputs),
    )


def _forward_all(params: NetworkParams, x: np.ndarray):
    z1 = x @ params.w1 + params.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params.w2 + params.b2
    h2 = np.maximum(z2, 0.0)
    v = h2 @ params.wv + params.bv
    adv = h2 @ params.wa + params.ba
    # sum / n is what ndarray.mean computes, minus its Python wrapper
    q = v + adv - adv.sum(axis=1, keepdims=True) / adv.shape[1]
    return q, v, adv, (z1, h1, z2, h2)


def forward(params: NetworkParams, s: np.ndarray):
    """Q-values for a single state or a batch.

    Returns (q, v, adv); for a single 1-d input the outputs are squeezed.
    """
    s = np.asarray(s, dtype=float)
    single = s.ndim == 1
    x = s[None, :] if single else s
    if x.shape[1] != params.input_dim:
        raise CheckpointError(
            f"input dim {x.shape[1]} does not match network input {params.input_dim}"
        )
    q, v, adv, _ = _forward_all(params, x)
    if single:
        return q[0], float(v[0, 0]), adv[0]
    return q, v[:, 0], adv


def loss_and_gradients(
    params: NetworkParams,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> Tuple[float, NetworkParams]:
    """Mean squared TD error and its analytic gradients.

    loss = mean_i (q(s_i, a_i) - y_i)^2. The gradient container reuses
    NetworkParams field-for-field.
    """
    x = np.asarray(states, dtype=float)
    a = np.asarray(actions, dtype=int)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("states must be a non-empty (batch, dim) array")
    if len(a) != len(x) or len(y) != len(x):
        raise ValueError("states, actions, targets must have equal length")
    n = len(x)
    q, v, adv, (z1, h1, z2, h2) = _forward_all(params, x)
    q_sel = q[np.arange(n), a]
    err = q_sel - y
    loss = float(np.mean(err * err))

    # d loss / d q_sel, scattered back over the action axis
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * err / n
    dv = dq.sum(axis=1, keepdims=True)
    dadv = dq - dq.sum(axis=1, keepdims=True) / dq.shape[1]

    grads = NetworkParams.from_flat(np.empty(params.flat.size), params.layout)
    np.matmul(h2.T, dv, out=grads.wv)
    dv.sum(axis=0, out=grads.bv)
    np.matmul(h2.T, dadv, out=grads.wa)
    dadv.sum(axis=0, out=grads.ba)
    dh2 = dv @ params.wv.T + dadv @ params.wa.T
    dz2 = dh2 * (z2 > 0.0)
    np.matmul(h1.T, dz2, out=grads.w2)
    dz2.sum(axis=0, out=grads.b2)
    dh1 = dz2 @ params.w2.T
    dz1 = dh1 * (z1 > 0.0)
    np.matmul(x.T, dz1, out=grads.w1)
    dz1.sum(axis=0, out=grads.b1)
    return loss, grads


def global_norm(grads: NetworkParams) -> float:
    # per-parameter sums in layout order: one dot over `flat` rounds differently
    sq = grads.flat * grads.flat
    total = 0.0
    for _, start, stop, _ in grads.layout:
        total += float(sq[start:stop].sum())
    return math.sqrt(total)


def clip_by_global_norm(grads: NetworkParams, max_norm: float) -> NetworkParams:
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    return NetworkParams.from_flat(grads.flat * (max_norm / norm), grads.layout)


@dataclass
class OptimizerState:
    """Adam moments `m`, `v` in the params' layout, plus the fixed hyperparameters."""

    m: NetworkParams
    v: NetworkParams
    learning_rate: float
    step: int = 0
    clip_norm: float = CLIP_NORM

    @classmethod
    def for_params(cls, params: NetworkParams, learning_rate: float = LEARNING_RATE,
                   clip_norm: float = CLIP_NORM) -> "OptimizerState":
        return cls(m=NetworkParams.from_flat(np.zeros_like(params.flat), params.layout),
                   v=NetworkParams.from_flat(np.zeros_like(params.flat), params.layout),
                   learning_rate=learning_rate, clip_norm=clip_norm)


def apply_update(
    params: NetworkParams,
    opt: OptimizerState,
    grads: NetworkParams,
) -> NetworkParams:
    """Clip by global norm, then one Adam step. Mutates `opt`, returns new params."""
    if not np.isfinite(grads.flat).all():
        bad = next(n for n, g in grads.arrays() if not np.isfinite(g).all())
        raise TrainingDiverged(f"non-finite gradient in {bad}")
    g = clip_by_global_norm(grads, opt.clip_norm).flat
    opt.step += 1
    t = opt.step
    m, v = opt.m.flat, opt.v.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return NetworkParams.from_flat(
        params.flat - opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS),
        params.layout)


def soft_update(target: NetworkParams, local: NetworkParams,
                rate: float = 0.01) -> NetworkParams:
    """target' = rate * local + (1 - rate) * target, elementwise."""
    if local.layout != target.layout:
        loc, tgt = next((a, b) for a, b in zip(local.layout, target.layout) if a != b)
        raise CheckpointError(f"shape mismatch in {loc[0]}: {loc[3]} vs {tgt[3]}")
    return NetworkParams.from_flat(rate * local.flat + (1.0 - rate) * target.flat,
                                   target.layout)


def _encode_array(arr: np.ndarray) -> Dict:
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def _decode_array(name: str, blob) -> np.ndarray:
    if not isinstance(blob, dict) or "shape" not in blob or "data" not in blob:
        raise CheckpointError(f"field {name} is not an array record")
    shape = blob["shape"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise CheckpointError(
            f"field {name}: shape {shape!r} is not a list of non-negative ints")
    shape = tuple(shape)
    try:
        data = np.asarray(blob["data"], dtype=float)
    except (TypeError, ValueError):
        data = None
    if data is None or data.ndim != 1:
        raise CheckpointError(f"field {name}: data is not a flat list of floats")
    expected = int(np.prod(shape)) if shape else 1
    if data.size != expected:
        raise CheckpointError(
            f"field {name}: {data.size} values do not fill shape {shape}"
        )
    return data.reshape(shape)


def _section(blob, name: str, keys: Sequence[str]) -> Dict:
    if not isinstance(blob, dict):
        raise CheckpointError(f"missing {name} section")
    missing = [k for k in keys if k not in blob]
    if missing:
        raise CheckpointError(f"missing {name} fields: {missing}")
    return blob


def save_checkpoint(
    path: str,
    params: NetworkParams,
    opt: Optional[OptimizerState] = None,
    metadata: Optional[Dict] = None,
) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "metadata": metadata or {},
        "params": {n: _encode_array(a) for n, a in params.arrays()},
    }
    if opt is not None:
        doc["optimizer"] = {
            "step": opt.step,
            "learning_rate": opt.learning_rate,
            "clip_norm": opt.clip_norm,
            "m": {n: _encode_array(a) for n, a in opt.m.arrays()},
            "v": {n: _encode_array(a) for n, a in opt.v.arrays()},
        }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _decode_params(blob, section: str, prefix: str) -> NetworkParams:
    """The named arrays of one checkpoint section; field names get `prefix`."""
    raw = _section(blob, section, PARAM_NAMES)
    return NetworkParams(**{n: _decode_array(prefix + n, raw[n]) for n in PARAM_NAMES})


def load_checkpoint(path: str) -> Tuple[NetworkParams, Optional[OptimizerState], Dict]:
    """Read a checkpoint: (params, optimizer state or None, metadata)."""
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())


def parse_checkpoint(data: bytes) -> Tuple[NetworkParams, Optional[OptimizerState], Dict]:
    """A checkpoint file's bytes as (params, optimizer state or None, metadata)."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint must hold a JSON object, got {type(doc).__name__}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unknown checkpoint format {doc.get('format')!r}")
    params = _decode_params(doc.get("params"), "params", "")
    params.validate()
    opt = None
    if "optimizer" in doc:
        blob = _section(doc["optimizer"], "optimizer",
                        ("step", "learning_rate", "clip_norm", "m", "v"))
        moments = {}
        for key in ("m", "v"):
            moments[key] = _decode_params(blob[key], f"optimizer.{key}",
                                          f"optimizer.{key}.")
            bad = [n for n, a in params.arrays()
                   if getattr(moments[key], n).shape != a.shape]
            if bad:
                raise CheckpointError(
                    f"optimizer.{key} shapes do not match the params in {bad}")
        opt = OptimizerState(
            m=moments["m"], v=moments["v"],
            step=int(blob["step"]),
            learning_rate=float(blob["learning_rate"]),
            clip_norm=float(blob["clip_norm"]),
        )
    return params, opt, doc.get("metadata", {})
