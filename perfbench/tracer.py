"""Per-layer tracing by wrapping fusionrank's public functions from outside.

Each public function of a layer module is replaced, at every name a
caller looks it up by (``fusionrank.closed_form.fib``,
``fusionrank.cli.rank_graph``, ``fusionrank.rank_graph`` ...), with a
wrapper that opens a span around the call.  Spans nest through a
per-thread stack: a span's self time is its duration minus the time its
child spans cover.  The hot leaf methods (Q5 arithmetic,
``FusionData.n3`` and ``FusionData.dual_of``) go through the same stack
but, like every span, are only summed in memory: calls, total and self
time per function name.  ``summary()`` returns the totals once, at exit.

In the cli layer only ``main`` is a boundary; parsing, dispatch and
rendering count as its own time.  With ``--jobs 2`` the grid cells run
in pool threads: their root spans are subtracted from ``cli.main`` as
one union of intervals, and their self times are wall-clock, so they
include waits for the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("qfield", "closed_form", "fusion", "ranks", "noleaf", "verlinde", "cli")
Q5_ARITH = ("__mul__", "__add__", "__sub__", "__pow__", "inverse")
FUSION_LEAVES = ("n3", "dual_of")

_perf = time.perf_counter
_local = threading.local()
_states: list["_ThreadState"] = []
_states_lock = threading.Lock()


class _ThreadState:
    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        self.stack: list[float] = []  # child time covered, per open span
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.raised: dict[str, int] = {}  # "name:ExceptionType" -> count
        self.roots: list[tuple[float, float]] = []
        self.n3_nonzero = 0


def _state() -> _ThreadState:
    st = getattr(_local, "state", None)
    if st is None:
        st = _local.state = _ThreadState()
        with _states_lock:
            _states.append(st)
    return st


def _wrap(fn, name: str):
    count_nonzero = name == "fusion.n3"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _state()
        stack = st.stack
        stack.append(0.0)
        t0 = _perf()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            key = f"{name}:{type(exc).__name__}"
            st.raised[key] = st.raised.get(key, 0) + 1
            raise
        finally:
            t1 = _perf()
            dur = t1 - t0
            child = stack.pop()
            rec = st.stats.get(name)
            if rec is None:
                rec = st.stats[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child
            if stack:
                stack[-1] += dur
            else:
                st.roots.append((t0, t1))
        if count_nonzero and result:
            st.n3_nonzero += 1
        return result

    return wrapper


def install() -> None:
    """Wrap the public functions of every layer at all the names they are bound to."""
    pkg = importlib.import_module("fusionrank")
    modules = [importlib.import_module(f"fusionrank.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and (layer != "cli" or name == "main")
            ):
                wrappers[obj] = _wrap(obj, f"{layer}.{name}")
    for mod in [pkg, *modules]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])

    q5 = sys.modules["fusionrank.qfield"].Q5
    arith = {vars(q5)[m] for m in Q5_ARITH}
    for attr, obj in list(vars(q5).items()):
        if inspect.isfunction(obj) and obj in arith:  # __radd__, __rmul__ are aliases
            setattr(q5, attr, _wrap(obj, "qfield.Q5_arith"))
    fusion_data = sys.modules["fusionrank.fusion"].FusionData
    for attr in FUSION_LEAVES:
        setattr(fusion_data, attr, _wrap(vars(fusion_data)[attr], f"fusion.{attr}"))


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summary() -> dict:
    """Totals over all threads: per-function calls and times, and root coverage."""
    functions: dict[str, list] = {}
    raised: dict[str, int] = {}
    n3_nonzero = 0
    root_s = 0.0
    pool_roots = []
    with _states_lock:
        states = list(_states)
    for st in states:
        for name, (calls, total, self_s) in st.stats.items():
            rec = functions.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, count in st.raised.items():
            raised[key] = raised.get(key, 0) + count
        n3_nonzero += st.n3_nonzero
        if st.main:
            root_s += sum(b - a for a, b in st.roots)
        else:
            pool_roots.extend(st.roots)
    if pool_roots and "cli.main" in functions:
        functions["cli.main"][2] -= _union_length(pool_roots)
    return {
        "functions": {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(functions.items())
        },
        "raised": raised,
        "n3_nonzero": n3_nonzero,
        "root_s": root_s,
    }
