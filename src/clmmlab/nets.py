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

The forward pass, the backward pass, the Adam step and the soft update are
one kernel each (`_forward`, `_backward`, `_adam`, `_blend`) that writes into
buffers it is handed. The passes run three affine layers: `NetworkParams.layers`
views the (in + 1, out) blocks [w1; b1], [w2; b2], [wv; bv], [wa; ba] of `flat`,
and inputs and hidden activations end in a column of ones. The head is linear
in h2, so the forward composes it per call into one map [wa; ba] - rowmean +
[wv; bv] and q is one matmul (the textbook order, in tests/oracles.py, rounds
differently in the last bits). The learner runs the kernels in one `Workspace`
sized once per training run and updates its weights, moments and target net
in place; `forward`, `loss_and_gradients`, `apply_update` and `soft_update`
run the same kernels on fresh buffers.
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
SOFT_UPDATE_RATE = 0.01  # share of the local net blended into the target per step


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the expected shapes."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradients encountered."""


PARAM_NAMES = ("w1", "b1", "w2", "b2", "wv", "bv", "wa", "ba")


class NetworkParams:
    """Dueling MLP weights: biases 1-d, weights (in, out), all views into `flat`,
    as is each affine block of `layers` (None unless every bias fits its weight)."""

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
        pairs = list(zip(layout[0::2], layout[1::2]))  # (weight, bias); validate() names a misfit
        fits = all(len(w[3]) == 2 and b[3] == w[3][1:] for w, b in pairs)
        self.layers = (tuple(flat[w[1]:b[2]].reshape(w[3][0] + 1, -1) for w, b in pairs)
                       if fits else None)

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
        for name, arr in (("w1", self.w1), ("w2", self.w2), ("wa", self.wa)):  # the rest follow
            if arr.ndim != 2:
                raise CheckpointError(f"parameter {name} has shape {arr.shape}, expected 2 axes")
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


def _activations(rows: int, layout: Tuple):
    """Buffers (x, h1, h2, q, head, head row means) for a forward over `rows`
    rows; x, h1 and h2 end in a column of ones, the inputs go in x[:, :-1]."""
    (n_in, h1), (h2, n_out) = layout[0][3], layout[6][3]  # w1, wa
    return (np.ones((rows, n_in + 1)), np.ones((rows, h1 + 1)), np.ones((rows, h2 + 1)),
            np.empty((rows, n_out)), np.empty((h2 + 1, n_out)), np.empty((h2 + 1, 1)))


def _forward(params: NetworkParams, acts) -> np.ndarray:
    """q over the rows of acts' x; every activation and the composed head
    are written into `acts` (see _activations). ReLU runs in place, on the
    ones column too: h > 0 is the same mask as z > 0."""
    x, h1, h2, q, head, mean = acts
    l1, l2, lv, la = params.layers
    np.matmul(x, l1, out=h1[:, :-1])
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, l2, out=h2[:, :-1])
    np.maximum(h2, 0.0, out=h2)
    # sum / n is what ndarray.mean computes, minus its Python wrapper
    np.add.reduce(la, axis=1, keepdims=True, out=mean)
    mean /= la.shape[1]
    np.subtract(la, mean, out=head)
    head += lv
    return np.matmul(h2, head, out=q)


def check_input_dim(params: NetworkParams, dim: int) -> None:
    if dim != params.input_dim:
        raise CheckpointError(f"input dim {dim} does not match network input {params.input_dim}")


def forward(params: NetworkParams, s: np.ndarray):
    """Q-values for a single state or a batch.

    Returns (q, v, adv); for a single 1-d input the outputs are squeezed.
    """
    s = np.asarray(s, dtype=float)
    x = np.atleast_2d(s)
    check_input_dim(params, x.shape[1])
    acts = _activations(len(x), params.layout)
    acts[0][:, :-1] = x
    q = _forward(params, acts)
    v, adv = acts[2] @ params.layers[2], acts[2] @ params.layers[3]
    if s.ndim == 1:
        return q[0], float(v[0, 0]), adv[0]
    return q, v[:, 0], adv


class Workspace:
    """Every buffer of a loss-and-gradients pass and an Adam step, allocated
    once: the activations `acts` of `rows` rows (inputs in x[:, :-1]), the
    backward's buffers for the first `batch` of them, the gradients and two
    scratch vectors of the flat size. The learner sizes one for 2 * batch
    rows, so the local net runs once over [s; s2]; `target_acts` runs the
    target net over the rows after `batch`, with a head of its own."""

    def __init__(self, layout: Tuple, rows: int, batch: int):
        (_, h1), (h2, n_out) = layout[0][3], layout[6][3]  # w1, wa
        self.batch = batch
        self.acts = self.x, _, _, _, head, mean = _activations(rows, layout)
        self.target_acts = (*(a[batch:] for a in self.acts[:4]), np.empty_like(head), mean)
        self.rows = np.arange(batch)
        self.dq = np.empty((batch, n_out))
        self.dh1, self.mask1 = np.empty((batch, h1)), np.empty((batch, h1), dtype=bool)
        self.dh2, self.mask2 = np.empty((batch, h2)), np.empty((batch, h2), dtype=bool)
        size = layout[-1][2]
        self.grads = NetworkParams.from_flat(np.empty(size), layout)
        self.sq, self.step = np.empty(size), np.empty(size)


def _backward(params: NetworkParams, ws: Workspace, actions: np.ndarray,
              targets: np.ndarray) -> float:
    """Mean squared TD error of the forward in the first ws.batch rows of
    ws.acts, its analytic gradients written into ws.grads."""
    n = ws.batch
    x, h1, h2, q = (a[:n] for a in ws.acts[:4])
    head, mean = ws.acts[4:]
    err = q[ws.rows, actions] - targets
    loss = float(np.add.reduce(err * err) / n)  # np.mean's arithmetic

    # d loss / d q_sel, scattered back over the action axis
    dq = ws.dq
    dq.fill(0.0)
    dq[ws.rows, actions] = 2.0 * err / n
    g1, g2, gv, ga = ws.grads.layers
    # G = h2' dq, the head map's gradient: gv = rowsum(G), ga = G - rowsum(G) / k
    np.matmul(h2.T, dq, out=ga)
    np.add.reduce(ga, axis=1, keepdims=True, out=gv)
    ga -= np.divide(gv, ga.shape[1], out=mean)
    dh2 = np.matmul(dq, head[:-1].T, out=ws.dh2)
    dh2 *= np.greater(h2[:, :-1], 0.0, out=ws.mask2)  # now dz2
    np.matmul(h1.T, dh2, out=g2)
    dh1 = np.matmul(dh2, params.layers[1][:-1].T, out=ws.dh1)
    dh1 *= np.greater(h1[:, :-1], 0.0, out=ws.mask1)  # now dz1
    np.matmul(x.T, dh1, out=g1)
    return loss


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
    ws = Workspace(params.layout, len(x), len(x))
    ws.x[:, :-1] = x
    _forward(params, ws.acts)
    return _backward(params, ws, a, y), ws.grads


def _global_norm(grads: NetworkParams, sq: np.ndarray) -> float:
    # per-parameter sums in layout order: one dot over `flat` rounds differently
    np.multiply(grads.flat, grads.flat, out=sq)
    total = 0.0
    for _, start, stop, _ in grads.layout:
        total += float(np.add.reduce(sq[start:stop]))
    return math.sqrt(total)


def _clip(grads: NetworkParams, norm: float, max_norm: float) -> bool:
    """Scale `grads`, of global norm `norm`, in place down to max_norm;
    False if it is already within it (or zero) and was left alone."""
    if norm <= max_norm or norm == 0.0:
        return False
    grads.flat *= max_norm / norm
    return True


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


def _adam(flat: np.ndarray, opt: OptimizerState, grads: NetworkParams,
          sq: np.ndarray, step: np.ndarray) -> None:
    """Clip `grads` by global norm, then one Adam step on `flat` and the
    moments of `opt`, all in place; `sq` and `step` are scratch of the flat
    size. A non-finite gradient raises TrainingDiverged before any write."""
    norm = _global_norm(grads, sq)
    # a finite norm means finite gradients; an infinite one may be overflow
    if not math.isfinite(norm) and not np.isfinite(grads.flat).all():
        bad = next(n for n, g in grads.arrays() if not np.isfinite(g).all())
        raise TrainingDiverged(f"non-finite gradient in {bad}")
    _clip(grads, norm, opt.clip_norm)
    g = grads.flat
    opt.step += 1
    t = opt.step
    m, v = opt.m.flat, opt.v.flat
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=sq)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, g, out=sq), 1.0 - ADAM_BETA2, out=sq)
    # flat -= learning_rate * m_hat / (sqrt(v_hat) + eps)
    denom = np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** t, out=sq), out=sq)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)
    step *= opt.learning_rate
    step /= denom
    flat -= step


def apply_update(
    params: NetworkParams,
    opt: OptimizerState,
    grads: NetworkParams,
) -> NetworkParams:
    """Clip by global norm, then one Adam step. Mutates `opt`, returns new params."""
    out = params.copy()
    _adam(out.flat, opt, grads.copy(), np.empty_like(out.flat), np.empty_like(out.flat))
    return out


def _blend(target: np.ndarray, local: np.ndarray, rate: float, tmp: np.ndarray) -> None:
    """target = rate * local + (1 - rate) * target in place; `tmp` is scratch."""
    target *= 1.0 - rate
    target += np.multiply(local, rate, out=tmp)


def soft_update(target: NetworkParams, local: NetworkParams,
                rate: float = SOFT_UPDATE_RATE) -> NetworkParams:
    """target' = rate * local + (1 - rate) * target, elementwise."""
    if local.layout != target.layout:
        loc, tgt = next((a, b) for a, b in zip(local.layout, target.layout) if a != b)
        raise CheckpointError(f"shape mismatch in {loc[0]}: {loc[3]} vs {tgt[3]}")
    out = target.copy()
    _blend(out.flat, local.flat, rate, np.empty_like(out.flat))
    return out


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
