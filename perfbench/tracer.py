"""Span tracer that times purifylab's layers from outside the library.

The tracer replaces public functions of purifylab (and three numpy.linalg
kernels) by timing wrappers, everywhere a name is bound, and restores them
afterwards.  Each call becomes a span: name, start, end, parent span, and two
work figures (``count`` and ``size``) whose meaning depends on the layer.
Spans stay in memory in flat arrays and are written out when the run ends.

Pool workers are forked with the wrappers already in place, but their spans
would die with them.  The traced pool therefore sends every task through
:func:`_pool_task`, which records the task's spans in the worker and appends
them to a per-pid file before returning; :func:`load_spans` merges the files.

Self time of a span is its duration minus the durations of its direct
children.  Spans of one process nest properly (single thread), so the
children never overlap each other.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

_clock = time.perf_counter


class SpanLog:
    """In-memory span store of one process."""

    def __init__(self, trace_id: str = "", out_dir: str | None = None) -> None:
        self.trace_id = trace_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.size = array("d")
        self.stack: list[int] = []
        self.keys: list[tuple] = []

    def open(self, name: str, count: float = 1.0, size: float = 0.0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.count.append(count)
        self.size.append(size)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        else:  # an exception unwound past inner spans
            while self.stack and self.stack.pop() != idx:
                pass

    def payload(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "names": list(self.names),
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "count": self.count.tobytes(),
            "size": self.size.tobytes(),
            "keys": list(self.keys),
        }

    def flush(self) -> None:
        """Append the recorded spans to this process's span file and clear them."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "ab") as fh:
            pickle.dump(self.payload(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.clear()


LOG: SpanLog | None = None
_STREAM_TYPE: type = type(None)  # purifylab.ensembles.RandomStream once installed


def _log() -> SpanLog:
    """The span log of the current process; a forked worker starts empty."""
    log = LOG
    if log.pid != os.getpid():
        log.pid = os.getpid()
        log.clear()
    return log


# ---------------------------------------------------------------------------
# Work figures per wrapped layer: (count, size) from the call's arguments
# ---------------------------------------------------------------------------


def _one(*args, **kwargs):
    return 1.0, 0.0


def _ginibre_work(rows, cols, rs, *a, **k):
    # size 1 marks a stream-keyed draw; its key is logged for draws_per_key
    if isinstance(rs, _STREAM_TYPE):
        _log().keys.append((rows, cols, rs.seed, rs.index))
        return 1.0, 1.0
    return 1.0, 0.0


def _haar_work(d, count, *a, **k):
    return float(count), 0.0


def _matrices(a) -> tuple[float, int]:
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 1.0, 0
    return float(math.prod(shape[:-2])), int(shape[-1])


def _eigh_work(a, *args, **kwargs):
    batch, side = _matrices(a)
    return batch, batch * float(side) ** 3


def _batch_work(a, *args, **kwargs):
    return _matrices(a)[0], 0.0


def _tomo_work(c, k, *a, **kw):
    return 1.0, float(k or 0)


def _estimator_work(strategy, spec, n, *a, **k):
    return float(n), 0.0


def _moments_work(spec, n, *a, **k):
    return float(n), 0.0


def _second_moment_work(spec, n, *a, **k):
    from purifylab import metrics

    chunk = getattr(metrics, "_CHUNK", 512)
    side = spec.d_i * spec.d_o * spec.d_e
    return float(n), float(math.ceil(n / chunk) * side**4 * 16)


# (module, attribute, span name, work function).  Each public callable is
# wrapped in every purifylab module that binds it, so ``from x import f``
# copies are timed too.
TARGETS = (
    ("purifylab.ensembles", "sample_ginibre", "ensembles.sample_ginibre", _ginibre_work),
    ("purifylab.ensembles", "haar_unitaries_batch", "ensembles.haar_unitaries_batch", _haar_work),
    ("purifylab.linalg", "psd_sqrt", "linalg.psd_sqrt", _one),
    ("purifylab.channels", "stinespring_from_choi", "channels.stinespring_from_choi", _one),
    ("purifylab.strategies", "tomography_estimate", "strategies.tomography_estimate", _tomo_work),
    ("purifylab.metrics", "estimate_average_error", "metrics.estimate_average_error", _estimator_work),
    ("purifylab.metrics", "estimate_moments", "metrics.estimate_moments", _moments_work),
    ("purifylab.metrics", "estimate_ordered_weights", "metrics.estimate_ordered_weights", _moments_work),
    ("purifylab.metrics", "second_moment_operator", "metrics.second_moment_operator", _second_moment_work),
    ("purifylab.metrics", "second_moment_closed_form", "metrics.second_moment_closed_form", _one),
    ("purifylab.cli", "main", "cli.main", _one),
)

# numpy.linalg kernels, timed only when called from purifylab code.
LINALG_TARGETS = (
    ("eigh", "linalg.eigh", _eigh_work),
    ("eigvalsh", "linalg.eigvalsh", _batch_work),
    ("svd", "linalg.svd", _batch_work),
)


def _wrap(fn, span: str, work, *, only_from_purifylab: bool = False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if only_from_purifylab and not sys._getframe(1).f_globals.get(
            "__name__", ""
        ).startswith("purifylab"):
            return fn(*args, **kwargs)
        log = _log()
        count, size = work(*args, **kwargs)
        idx = log.open(span, count, size)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(idx)

    return traced


def _pool_task(fn, *args):
    """Run one pool task in a worker and persist the spans it produced."""
    log = _log()
    try:
        return fn(*args)
    finally:
        log.flush()


class TracedPool(ProcessPoolExecutor):
    """Process pool that records its start-up, dispatch and worker spans.

    One ``metrics.pool`` span covers the pool's life; its ``count`` is the
    number of tasks and its ``size`` the bytes of the returned arrays.
    ``metrics.pool_start`` child spans cover construction and task
    submission, which is where the workers are forked, so the pool span's
    self time is the time spent waiting for results and shutting down.
    """

    def __init__(self, *args, **kwargs):
        log = _log()
        self._span = log.open("metrics.pool", 0.0, 0.0)
        idx = log.open("metrics.pool_start")
        try:
            super().__init__(*args, **kwargs)
        finally:
            log.close(idx)

    def submit(self, fn, /, *args, **kwargs):
        _log().count[self._span] += 1
        return super().submit(functools.partial(_pool_task, fn), *args, **kwargs)

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        log = _log()
        idx = log.open("metrics.pool_start")
        try:
            results = super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)
        finally:
            log.close(idx)
        return self._sized(results)

    def _sized(self, results):
        for res in results:
            _log().size[self._span] += float(getattr(res, "nbytes", 0))
            yield res

    def shutdown(self, wait=True, *, cancel_futures=False):
        try:
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
        finally:
            if self._span is not None:
                _log().close(self._span)
                self._span = None


class Installed:
    """Record of every name the tracer replaced, for exact restoration."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self.replaced.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self.replaced):
            setattr(owner, name, original)
        self.replaced.clear()


def install(trace_id: str = "", out_dir: str | None = None) -> Installed:
    """Start a span log and wrap every traced layer.  Returns the undo record."""
    global LOG, _STREAM_TYPE
    import numpy as np

    import purifylab  # noqa: F401  (loads every submodule)
    from purifylab import ensembles, metrics

    LOG = SpanLog(trace_id, out_dir)
    _STREAM_TYPE = ensembles.RandomStream
    done = Installed()
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "purifylab" or k.startswith("purifylab."))]
    for mod_name, attr, span, work in TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = _wrap(original, span, work)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    done.set(mod, name, wrapper)
    for attr, span, work in LINALG_TARGETS:
        done.set(np.linalg, attr,
                 _wrap(getattr(np.linalg, attr), span, work, only_from_purifylab=True))
    done.set(ensembles.RandomStream, "generator",
             _wrap(ensembles.RandomStream.generator, "ensembles.stream", _one))
    done.set(metrics, "ProcessPoolExecutor", TracedPool)
    return done


# ---------------------------------------------------------------------------
# Reading spans back and reducing them to per-layer totals
# ---------------------------------------------------------------------------


def load_spans(out_dir: str) -> list[dict]:
    """Every span batch written under ``out_dir``, across all processes."""
    batches = []
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".pkl")):
            continue
        with open(os.path.join(out_dir, entry), "rb") as fh:
            while True:
                try:
                    batches.append(pickle.load(fh))
                except EOFError:
                    break
    return batches


def _arr(kind: str, raw: bytes) -> array:
    out = array(kind)
    out.frombytes(raw)
    return out


def summarize(batches: list[dict]) -> tuple[dict[str, dict[str, float]], list[tuple]]:
    """Per span name: calls, summed count and size, total and self seconds.

    Returns the totals and the list of all Ginibre stream keys seen.
    """
    totals: dict[str, dict[str, float]] = {}
    keys: list[tuple] = []
    for b in batches:
        names = b["names"]
        name, parent = _arr("i", b["name"]), _arr("i", b["parent"])
        start, end = _arr("d", b["start"]), _arr("d", b["end"])
        count, size = _arr("d", b["count"]), _arr("d", b["size"])
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        for i, nid in enumerate(name):
            t = totals.setdefault(names[nid], dict(calls=0.0, count=0.0, size=0.0,
                                                   total_s=0.0, self_s=0.0))
            t["calls"] += 1
            t["count"] += count[i]
            t["size"] += size[i]
            t["total_s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
        keys.extend(tuple(k) for k in b["keys"])
    return totals, keys


def layer_metrics(totals: dict[str, dict[str, float]], keys: list[tuple]) -> dict[str, float]:
    """Per-layer metric values (without ``trace.overhead_s``) from span totals."""

    def t(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    keyed_draws = t("ensembles.sample_ginibre", "size")
    distinct = len(set(keys))
    tomo_total = t("strategies.tomography_estimate", "total_s")
    estimators = ("metrics.estimate_average_error", "metrics.estimate_moments")
    return {
        "ensembles.streams": t("ensembles.stream", "calls"),
        "ensembles.stream_self_s": t("ensembles.stream", "self_s"),
        "ensembles.ginibre_draws": t("ensembles.sample_ginibre", "calls"),
        "ensembles.ginibre_self_s": t("ensembles.sample_ginibre", "self_s"),
        "ensembles.draws_per_key": keyed_draws / distinct if distinct else 0.0,
        "ensembles.haar_unitaries": t("ensembles.haar_unitaries_batch", "count"),
        "ensembles.haar_batch_self_s": t("ensembles.haar_unitaries_batch", "self_s"),
        "linalg.eigh_matrices": t("linalg.eigh", "count"),
        "linalg.eigh_self_s": t("linalg.eigh", "self_s"),
        "linalg.eigh_ops": t("linalg.eigh", "size"),
        "linalg.eigvalsh_matrices": t("linalg.eigvalsh", "count"),
        "linalg.eigvalsh_self_s": t("linalg.eigvalsh", "self_s"),
        "linalg.svd_matrices": t("linalg.svd", "count"),
        "linalg.svd_self_s": t("linalg.svd", "self_s"),
        "linalg.psd_sqrt_calls": t("linalg.psd_sqrt", "calls"),
        "linalg.psd_sqrt_self_s": t("linalg.psd_sqrt", "self_s"),
        "channels.stinespring_calls": t("channels.stinespring_from_choi", "calls"),
        "channels.stinespring_self_s": t("channels.stinespring_from_choi", "self_s"),
        "strategies.tomo_calls": t("strategies.tomography_estimate", "calls"),
        "strategies.tomo_shots": t("strategies.tomography_estimate", "size"),
        "strategies.tomo_self_s": t("strategies.tomography_estimate", "self_s"),
        "strategies.shots_per_s": (t("strategies.tomography_estimate", "size") / tomo_total
                                   if tomo_total > 0 else 0.0),
        "metrics.samples_scored": sum(t(n, "count") for n in estimators)
        + t("metrics.second_moment_operator", "count"),
        "metrics.score_self_s": sum(t(n, "self_s") for n in estimators),
        "metrics.weights_s": t("metrics.estimate_ordered_weights", "total_s"),
        "metrics.second_moment_self_s": t("metrics.second_moment_operator", "self_s"),
        "metrics.closed_form_s": t("metrics.second_moment_closed_form", "total_s"),
        "metrics.partial_bytes": t("metrics.second_moment_operator", "size"),
        "metrics.pools_created": t("metrics.pool", "calls"),
        "metrics.pool_start_s": t("metrics.pool_start", "total_s"),
        "metrics.chunks_dispatched": t("metrics.pool", "count"),
        "metrics.pool_wait_s": t("metrics.pool", "self_s"),
        "metrics.result_bytes": t("metrics.pool", "size"),
        "cli.self_s": t("cli.main", "self_s"),
    }
