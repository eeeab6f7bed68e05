"""Spans around the public functions of the six gmcreg layers.

The traced run wraps those functions in this process only; ``src/`` is never
edited.  A span records its name, start, end, parent span and the benchmark
op it belongs to, plus one count (elements, columns or iterations) and one
auxiliary value (computed flops, or a not-converged flag).  Spans live in
flat arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

import gmcreg
import gmcreg.cli
import gmcreg.experiments
import gmcreg.operators as O
import gmcreg.penalties
import gmcreg.scalar
import gmcreg.solvers

SPANS = (
    "bench.setup", "bench.op",
    "scalar.soft",
    "operators.forward", "operators.adjoint", "operators.multi", "operators.gram_norm",
    "operators.build",
    "penalties.inner",
    "solvers.solve", "solvers.debias",
    "experiments.sweep", "experiments.denoise", "experiments.noise",
    "cli.main",
)
_ID = {name: k for k, name in enumerate(SPANS)}
_MARK = "__perfbench_span__"

# module-level functions: span name -> functions (wrapped wherever a gmcreg
# module or the package namespace holds them)
FUNCTIONS = {
    "scalar.soft": (gmcreg.scalar.soft,),
    "operators.gram_norm": (O.estimate_gram_norm,),
    "penalties.inner": (gmcreg.penalties.eval_generalized_huber,
                        gmcreg.penalties.eval_generalized_huber_many),
    "solvers.solve": (gmcreg.solvers.gmc_solve, gmcreg.solvers.ista_solve),
    "solvers.debias": (gmcreg.solvers.debias_on_support,),
    "experiments.sweep": (gmcreg.experiments.run_sweep,),
    "experiments.denoise": (gmcreg.experiments.denoise_frame,),
    "experiments.noise": (gmcreg.experiments.add_awgn, gmcreg.experiments.gaussian_draws),
    "cli.main": (gmcreg.cli.main,),
}
# methods: (class, attribute, span name)
METHODS = [
    (O.LinearOperator, "forward", "operators.forward"),
    (O.LinearOperator, "adjoint", "operators.adjoint"),
] + [
    (cls, attr, "operators.multi")
    for cls in (O.LinearOperator, O.DenseOperator, O.ScaledOperator)
    for attr in ("forward_multi", "adjoint_multi")
] + [
    (cls, "__init__", "operators.build")
    for cls in (O.DenseOperator, O.DftFrameOperator, O.StftFrameOperator, O.ScaledOperator)
]


def _modules():
    """The package namespace re-exports most functions: patch it too."""
    return (gmcreg, gmcreg.scalar, O, gmcreg.penalties, gmcreg.solvers, gmcreg.experiments, gmcreg.cli)


def installed() -> list[str]:
    """Names of every wrapped function or method currently installed."""
    found = [f"{m.__name__}.{k}" for m in _modules() for k, v in vars(m).items()
             if getattr(v, _MARK, None)]
    found += [f"{c.__name__}.{a}" for c, a, _ in METHODS if getattr(c.__dict__.get(a), _MARK, None)]
    return found


def _flops(op) -> float:
    """Computed flops of one application of ``op`` (from its sizes)."""
    if isinstance(op, O.ScaledOperator):
        return _flops(op.base) + 2.0 * max(op.domain_dim, op.codomain_dim)
    if isinstance(op, O.StftFrameOperator):
        n = op.segment_len
        return op.n_frames * (5.0 * n * np.log2(n) + 4.0 * n)
    if isinstance(op, O.DenseOperator):
        return (8.0 if op.field == O.COMPLEX else 2.0) * op.domain_dim * op.codomain_dim
    return 0.0


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch gmcreg."""

    def __init__(self):
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self.current_op = -1
        self._patches = []
        self._gram_seen = set()
        self._keep = {}

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, one op)."""
        idx = self._open(_ID[name])
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, sid: int) -> int:
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.t1.append(0.0)
        self.count.append(0.0)
        self.aux.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, after=None):
        sid = _ID[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, out)
            return out

        setattr(wrapper, _MARK, name)
        return wrapper

    # per-span counts, filled after the wrapped call returns
    def _after_soft(self, idx, args, out):
        self.count[idx] = np.size(args[0])

    def _after_apply(self, idx, args, out):
        self.aux[idx] = _flops(args[0])

    def _after_multi(self, idx, args, out):
        op, cols = args[0], np.shape(args[1])[1]
        self.count[idx] = cols
        # a scaled operator's own work is the scaling; its base records the rest
        self.aux[idx] = 2.0 * np.size(out) if isinstance(op, O.ScaledOperator) else _flops(op) * cols

    def _after_inner(self, idx, args, out):
        self.count[idx] = 1 if np.ndim(args[1]) == 1 else np.shape(args[1])[1]

    def _after_solve(self, idx, args, out):
        self.count[idx] = out.iterations
        self.aux[idx] = 0.0 if out.converged else 1.0

    def _op_key(self, op):
        if isinstance(op, O.ScaledOperator):
            return ("scaled", self._op_key(op.base), op.scale)
        self._keep[id(op)] = op  # keeps id(op) from being reused
        return id(op)

    def _after_gram(self, idx, args, out):
        key = self._op_key(args[0])
        self.count[idx] = 1.0 if key in self._gram_seen else 0.0
        self._gram_seen.add(key)

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        after = {
            "scalar.soft": self._after_soft,
            "operators.forward": self._after_apply,
            "operators.adjoint": self._after_apply,
            "operators.multi": self._after_multi,
            "operators.gram_norm": self._after_gram,
            "penalties.inner": self._after_inner,
            "solvers.solve": self._after_solve,
        }
        for name, fns in FUNCTIONS.items():
            for fn in fns:
                wrapped = self._wrap(fn, name, after.get(name))
                for mod in _modules():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
        for cls, attr, name in METHODS:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, after.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "names": np.array(SPANS),
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "end": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
        }


# spans that own the operator applications beneath them
_CONTEXTS = ("solvers.solve", "operators.gram_norm", "penalties.inner", "solvers.debias")


def layer_metrics(sp: dict) -> dict:
    """Per-layer metrics from the span arrays ``Tracer.arrays()`` returns."""
    name, parent = sp["name"].astype(np.int64), sp["parent"].astype(np.int64)
    dur = sp["end"] - sp["start"]
    count, aux = sp["count"], sp["aux"]
    n = len(name)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    # nearest owning context of every span (parents precede children)
    own = np.isin(name, [_ID[c] for c in _CONTEXTS])
    ctx = np.where(own, name, -1)
    for _ in range(64):
        nxt = np.where(own | ~has_parent, ctx, ctx[np.maximum(parent, 0)])
        if np.array_equal(nxt, ctx):
            break
        ctx = nxt

    def sel(span):
        return name == _ID[span]

    def self_s(*spans):
        return float(sum(self_t[sel(s)].sum() for s in spans))

    def calls(span):
        return int(sel(span).sum())

    multi = sel("operators.multi")
    outer_multi = multi & (parent_name != _ID["operators.multi"])
    single = sel("operators.forward") | sel("operators.adjoint")

    def applies(context):
        in_ctx = ctx == _ID[context]
        return float(single[in_ctx].sum() + count[outer_multi & in_ctx].sum())

    solve = sel("solvers.solve")
    iterations = float(count[solve].sum())
    side = sel("operators.gram_norm") & (parent_name == _ID["solvers.solve"])
    loop_s = float(dur[solve].sum() - dur[side].sum())
    soft = sel("scalar.soft")
    gram = sel("operators.gram_norm")
    flops = float(aux[single | multi].sum())
    op_self = self_s("operators.forward", "operators.adjoint", "operators.multi")

    return {
        "scalar.soft.calls": calls("scalar.soft"),
        "scalar.soft.self_s": self_s("scalar.soft"),
        "scalar.soft.ns_per_elem": 1e9 * self_s("scalar.soft") / max(count[soft].sum(), 1.0),
        "operators.forward.calls": calls("operators.forward"),
        "operators.forward.self_s": self_s("operators.forward"),
        "operators.adjoint.calls": calls("operators.adjoint"),
        "operators.adjoint.self_s": self_s("operators.adjoint"),
        "operators.multi.calls": int(outer_multi.sum()),
        "operators.multi.cols": int(count[outer_multi].sum()),
        "operators.multi.self_s": self_s("operators.multi"),
        "operators.gram_norm.calls": calls("operators.gram_norm"),
        "operators.gram_norm.self_s": self_s("operators.gram_norm"),
        "operators.gram_norm.repeat_frac": float(count[gram].sum() / max(gram.sum(), 1)),
        "operators.build.self_s": self_s("operators.build"),
        "operators.flops_computed": flops,
        "operators.gflops": flops / op_self / 1e9 if op_self > 0 else 0.0,
        "penalties.inner.calls": calls("penalties.inner"),
        "penalties.inner.cols": int(count[sel("penalties.inner")].sum()),
        "penalties.inner.self_s": self_s("penalties.inner"),
        "penalties.inner.op_applies": int(applies("penalties.inner")),
        "solvers.solve.calls": calls("solvers.solve"),
        "solvers.solve.self_s": self_s("solvers.solve"),
        "solvers.iterations": int(iterations),
        "solvers.us_per_iter": 1e6 * loop_s / iterations if iterations else 0.0,
        "solvers.op_applies_per_iter": applies("solvers.solve") / iterations if iterations else 0.0,
        "solvers.not_converged": int(aux[solve].sum()),
        "solvers.debias.calls": calls("solvers.debias"),
        "solvers.debias.self_s": self_s("solvers.debias"),
        "experiments.sweep.self_s": self_s("experiments.sweep"),
        "experiments.denoise.calls": calls("experiments.denoise"),
        "experiments.denoise.self_s": self_s("experiments.denoise"),
        "experiments.noise.self_s": self_s("experiments.noise"),
        "cli.main.self_s": self_s("cli.main"),
    }
