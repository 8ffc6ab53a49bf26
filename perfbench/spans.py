"""Span tracer for the traced benchmark run (`--trace 1`).

The tracer replaces public clmmlab functions and methods with timing
wrappers at every module attribute that holds them, so a caller that did
`from .accounting import lvr_over_path` is traced as well as one that
looks up `nets.apply_update` at call time. Spans live in flat in-memory
arrays (name id, parent span, start, end, work count) and are written out
once at the end. Nothing is patched outside `tracing()`, and leaving it
puts every original back, so an untraced run never sees a wrapper.

`layer_metrics()` turns the spans into the per-layer metrics listed in
README.md: calls, work counts, busy seconds (outermost spans of a name,
so a nested call is not counted twice), self seconds (a span minus its
traced children) and p50/p99 durations.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

SETUP_SPAN = "bench.setup"
OP_SPAN = "bench.op"


def _rows(args, kwargs, out):
    s = np.asarray(args[1] if len(args) > 1 else kwargs["s"])
    return 1 if s.ndim == 1 else len(s)


def _batch(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["states"])


def _moves(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["path"]) - 1


def _length(args, kwargs, out):
    return len(out)


def _ewa_hours(args, kwargs, out):
    return len(out[0])


def _checkpoint_bytes(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _run_dir_bytes(args, kwargs, out):
    return sum(os.path.getsize(p) for p in out.values())


def _indicator_names():
    from clmmlab import indicators
    return [name for name, fn in vars(indicators).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == indicators.__name__
            and not name.startswith("ht_")]


def targets():
    """(dotted attribute, span name, work counter) for every traced call."""
    out = [
        ("clmmlab.marketdata.load_candles_csv", "marketdata.load", _length),
        ("clmmlab.marketdata.synth_gbm", "marketdata.synth", _length),
        ("clmmlab.features.compute_feature_matrix", "features.matrix", _length),
        ("clmmlab.features.assemble_observation", "features.observe", None),
        ("clmmlab.indicators.ht_dc_period", "indicators.ht", None),
        ("clmmlab.indicators.ht_dc_phase", "indicators.ht", None),
        ("clmmlab.amm.reserves", "amm.reserves", None),
        ("clmmlab.accounting.lvr_over_path", "accounting.ledger", _moves),
        ("clmmlab.env.LPEnv.step", "env.step", None),
        ("clmmlab.env.LPEnv.reset", "env.reset", None),
        ("clmmlab.baselines.run_ewa", "baselines.ewa", _ewa_hours),
        ("clmmlab.baselines.run_tau_reset", "baselines.tau_reset", None),
        ("clmmlab.nets.forward", "nets.forward", _rows),
        ("clmmlab.nets.loss_and_gradients", "nets.loss_grad", _batch),
        ("clmmlab.nets.apply_update", "nets.apply_update", None),
        ("clmmlab.nets.soft_update", "nets.soft_update", None),
        ("clmmlab.nets.save_checkpoint", "nets.checkpoint", _checkpoint_bytes),
        ("clmmlab.nets.load_checkpoint", "nets.checkpoint", _checkpoint_bytes),
        ("clmmlab.dqn.train_ddqn", "dqn.train", None),
        ("clmmlab.dqn.ddqn_target", "dqn.target", None),
        ("clmmlab.dqn.ReplayBuffer.sample", "dqn.sample", None),
        ("clmmlab.dqn.ReplayBuffer.add", "dqn.add", None),
        ("clmmlab.dqn.greedy_rollout", "dqn.eval", None),
        ("clmmlab.toymdp.ToyPriceCycleEnv.step", "toymdp.step", None),
        ("clmmlab.tabular.value_iteration", "tabular.value_iteration", None),
        ("clmmlab.backtest.run_backtest", "backtest.run", None),
        ("clmmlab.backtest.drift_neutrality_study", "backtest.drift_study", None),
        ("clmmlab.backtest.write_run_dir", "backtest.write_run_dir", _run_dir_bytes),
        ("clmmlab.report.Report.from_run_dirs", "report.aggregate", None),
    ]
    out += [(f"clmmlab.indicators.{name}", "indicators.other", None)
            for name in _indicator_names()]
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._patches = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(i)
        return i

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code; yields its index."""
        i = self._open(self._nid(name))
        self.start[i] = time.perf_counter()
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, work=None):
        nid = self._nid(name)
        open_span, end, stack, wk = self._open, self.end, self._stack, self.work
        start, clock = self.start, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(nid)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if work is not None:
                wk[i] = work(args, kwargs, out)
            return out

        return traced

    def install(self):
        for dotted, name, work in targets():
            module_name, _, attr = dotted.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is None:  # a method: module.Class.attr
                module_name, _, cls_name = module_name.rpartition(".")
                owner = getattr(sys.modules[module_name], cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name, work))
                else:
                    patched = self.wrap(raw, name, work)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, work)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "clmmlab" or mod_name.startswith("clmmlab.")) \
                        and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def tracing(self, name):
        """Wrappers installed, inside a root span called `name`."""
        self.install()
        try:
            with self.span(name) as i:
                yield i
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.work, dtype=np.int64).copy())

    def save(self, path):
        name_id, parent, start, end, work = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end, work=work)


def _has_ancestor(parent, mask):
    """Per span: does any proper ancestor satisfy `mask`?"""
    found = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        found[live] |= mask[anc[live]]
        anc[live] = parent[anc[live]]


def layer_metrics(tracer):
    """Per-layer metrics over every span, plus the layer shares of the op.

    The op is the root span named OP_SPAN.
    """
    name_id, parent, start, end, work = tracer.arrays()
    dur = end - start
    n = len(dur)
    has_parent = parent >= 0
    self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=n)
    ids = {name: i for i, name in enumerate(tracer.names)}
    empty = np.zeros(n, dtype=bool)

    def mask(*names):
        m = empty.copy()
        for name in names:
            if name in ids:
                m |= name_id == ids[name]
        return m

    def busy(m, within=None):
        top = m & ~_has_ancestor(parent, m)
        if within is not None:
            top &= within
        return float(dur[top].sum())

    def calls(name):
        return int(mask(name).sum())

    def total_work(name):
        return int(work[mask(name)].sum())

    def self_time(name):
        return float(self_s[mask(name)].sum())

    def busy_of(*names):
        return busy(mask(*names))

    def pct_us(name, q):
        d = dur[mask(name)]
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    op_span = int(np.flatnonzero(name_id == ids[OP_SPAN])[0])
    op_wall = float(dur[op_span])
    in_op = _has_ancestor(parent, np.arange(n) == op_span)

    def op_share(prefixes):
        names = [nm for nm in tracer.names if nm.startswith(prefixes)]
        return busy(mask(*names), within=in_op) / op_wall

    ledger_s = busy_of("accounting.ledger")
    ledger_moves = total_work("accounting.ledger")
    ewa_hours = total_work("baselines.ewa")
    ewa_walks = 0
    if "baselines.ewa" in ids:
        ewa_walks = int((mask("accounting.ledger")
                         & (parent >= 0)
                         & (name_id[np.maximum(parent, 0)] == ids["baselines.ewa"])).sum())

    m = {
        "marketdata.load_s": busy_of("marketdata.load"),
        "marketdata.synth_s": busy_of("marketdata.synth"),
        "features.matrix_s": busy_of("features.matrix"),
        "features.matrix_candles": total_work("features.matrix"),
        "features.observe_calls": calls("features.observe"),
        "features.observe_s": busy_of("features.observe"),
        "indicators.ht_s": busy_of("indicators.ht"),
        "indicators.other_s": busy_of("indicators.other"),
        "amm.reserves_calls": calls("amm.reserves"),
        "amm.reserves_s": busy_of("amm.reserves"),
        "accounting.ledger_calls": calls("accounting.ledger"),
        "accounting.ledger_moves": ledger_moves,
        "accounting.ledger_s": ledger_s,
        "accounting.us_per_move": ledger_s / ledger_moves * 1e6 if ledger_moves else 0.0,
        "env.step_calls": calls("env.step"),
        "env.step_self_s": self_time("env.step"),
        "env.reset_calls": calls("env.reset"),
        "baselines.ewa_s": busy_of("baselines.ewa"),
        "baselines.ewa_self_s": self_time("baselines.ewa"),
        "baselines.tau_reset_s": busy_of("baselines.tau_reset"),
        "baselines.ledger_walks_per_ewa_hour": ewa_walks / ewa_hours if ewa_hours else 0.0,
        "nets.forward_calls": calls("nets.forward"),
        "nets.forward_rows": total_work("nets.forward"),
        "nets.forward_s": busy_of("nets.forward"),
        "nets.loss_grad_s": busy_of("nets.loss_grad"),
        "nets.loss_grad_us.p50": pct_us("nets.loss_grad", 50),
        "nets.loss_grad_us.p99": pct_us("nets.loss_grad", 99),
        "nets.loss_grad_us.n": calls("nets.loss_grad"),
        "nets.apply_update_s": busy_of("nets.apply_update"),
        "nets.apply_update_us.p50": pct_us("nets.apply_update", 50),
        "nets.apply_update_us.p99": pct_us("nets.apply_update", 99),
        "nets.apply_update_us.n": calls("nets.apply_update"),
        "nets.soft_update_s": busy_of("nets.soft_update"),
        "nets.checkpoint_bytes": total_work("nets.checkpoint"),
        "nets.checkpoint_s": busy_of("nets.checkpoint"),
        "dqn.updates": calls("nets.apply_update"),
        "dqn.sample_s": busy_of("dqn.sample"),
        "dqn.add_s": busy_of("dqn.add"),
        "dqn.target_self_s": self_time("dqn.target"),
        "dqn.eval_rollouts": calls("dqn.eval"),
        "dqn.eval_s": busy_of("dqn.eval"),
        "dqn.loop_self_s": self_time("dqn.train"),
        "toymdp.step_calls": calls("toymdp.step"),
        "toymdp.step_s": busy_of("toymdp.step"),
        "tabular.value_iteration_s": busy_of("tabular.value_iteration"),
        "backtest.run_calls": calls("backtest.run"),
        "backtest.run_s": busy_of("backtest.run"),
        "backtest.drift_study_s": busy_of("backtest.drift_study"),
        "backtest.write_run_dir_s": busy_of("backtest.write_run_dir"),
        "backtest.bytes_written": total_work("backtest.write_run_dir"),
        "report.aggregate_s": busy_of("report.aggregate"),
        "nets.op_share": op_share(("nets.",)),
        "accounting.op_share": op_share(("accounting.", "amm.")),
        "features.op_share": op_share(("features.", "indicators.")),
        "env.op_share": op_share(("env.", "toymdp.")),
        "trace.spans": n,
    }
    return m
