"""Layer tracer: times calls into fplab's public functions from outside the package.

``Tracer.installed()`` replaces public functions where their callers look them
up (``fplab.quadrature.convolved_logdensity``, ``fplab.sampler.minimize``,
``fplab.cli.write_table``, ...), wraps the callables of the potentials that the
public factories return, and restores everything on exit.

* Every wrapped call is a span: name, start, end, parent span and thread.  The
  parent stack is per thread; the row pool of the quadrature layer is replaced
  by one whose tasks take the submitting span as their parent.
* A span's self time is its duration minus the time its children cover
  (the union of their intervals, so two pool threads are not counted twice).
  A module's self_s sums its spans over all threads: thread-seconds, which
  exceed the wall time where the row pool runs two threads.
* Calls made once per rejection proposal, the d-vector potential evaluations,
  are counted, not timed.
* Spans stay in memory (up to SPAN_CAP records; totals keep counting past it)
  and are written out once, by ``write_spans``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import fplab.cli
import fplab.gaussian
import fplab.optim
import fplab.potentials
import fplab.quadrature
import fplab.sampler
import fplab.svgplot

MODULES = ("potentials", "quadrature", "sampler", "gaussian", "optim", "cli", "svgplot")
SPAN_CAP = 50_000
_clock = time.perf_counter


class _Frame:
    __slots__ = ("id", "name", "layer", "parent", "cross", "start", "child", "remote")

    def __init__(self, fid, name, layer, parent, cross):
        self.id, self.name, self.layer = fid, name, layer
        self.parent, self.cross = parent, cross  # cross: parent lives in another thread
        self.child = 0.0  # time covered by same-thread children
        self.remote = None  # (start, end) of children in other threads


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.remote_parent = None
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.layer_self = dict.fromkeys(MODULES, 0.0)
        self.layer_incl = dict.fromkeys(MODULES, 0.0)  # outermost spans of each layer
        self.counts = {}
        self.tasks = []  # (pool id, thread id, seconds)


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pool_ids = itertools.count(1)
        self._states = []
        self._patches = []
        self.spans = []
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _count(self, key, n=1):
        c = self._state().counts
        c[key] = c.get(key, 0) + n

    def call(self, fn, name, layer, args, kwargs, after=None):
        st = self._state()
        cross = not st.stack
        parent = st.remote_parent if cross else st.stack[-1]
        frame = _Frame(next(self._ids), name, layer, parent, cross)
        st.stack.append(frame)
        frame.start = start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            st.stack.pop()
            self._close(st, frame, start, end)
        if after is not None:
            after(args, kwargs, result, end - start)
        return result

    def _close(self, st, frame, start, end):
        dur = end - start
        covered = frame.child
        if frame.remote:
            covered += _union(frame.remote)
        own = max(0.0, dur - covered)
        s = st.stats.get(frame.name)
        if s is None:
            s = st.stats[frame.name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += own
        st.layer_self[frame.layer] += own
        parent = frame.parent
        if parent is None or parent.layer != frame.layer:
            st.layer_incl[frame.layer] += dur
        if parent is not None:
            if frame.cross:
                with self._lock:
                    if parent.remote is None:
                        parent.remote = []
                    parent.remote.append((start, end))
            else:
                parent.child += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.id, frame.name, start, end,
                               parent.id if parent else 0, threading.get_ident()))
        else:
            self.dropped += 1

    def _task(self, pool_id, parent, fn, args, kwargs):
        st = self._state()
        st.remote_parent = parent
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            st.tasks.append((pool_id, threading.get_ident(), _clock() - start))
            st.remote_parent = None

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name, layer, after=None):
        def wrapped(*args, **kwargs):
            return self.call(fn, name, layer, args, kwargs, after)

        return wrapped

    def _counted(self, fn, key):
        def wrapped(x):
            self._count(key)
            return fn(x)

        return wrapped

    def _scalar_factory(self, factory):
        def elems(args, kwargs, result, dur):
            self._count("scalar_elems", np.size(args[0]))

        def make(*args, **kwargs):
            pot = factory(*args, **kwargs)
            return dataclasses.replace(pot, **{
                f: self.timed(getattr(pot, f), f"potentials.scalar_{f}", "potentials", elems)
                for f in ("value", "deriv1", "deriv2")
            })

        return self.timed(make, f"potentials.{factory.__name__}", "potentials")

    def _smooth_factory(self, factory):
        def make(*args, **kwargs):
            pot = factory(*args, **kwargs)
            return dataclasses.replace(pot, value=self._counted(pot.value, "smooth_values"),
                                       gradient=self._counted(pot.gradient, "smooth_grads"))

        return self.timed(make, f"potentials.{factory.__name__}", "potentials")

    def _minimize(self, fn):
        timed = self.timed(fn, "potentials.minimize", "potentials")

        def minimize(p, x0, tol):
            counts = self._state().counts
            before = counts.get("smooth_grads", 0)
            x = timed(p, x0, tol)
            # one gradient at the start, one per iteration
            self._count("minimize_iters", counts.get("smooth_grads", 0) - before - 1)
            return x

        return minimize

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._trace_id = next(tracer._pool_ids)

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1] if st.stack else None
                return super().submit(tracer._task, self._trace_id, parent, fn, args, kwargs)

        return TracedPool

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _after_hooks(self):
        def gh(args, kwargs, result, dur):
            t = args[1] if len(args) > 1 else kwargs["t"]
            x = args[2] if len(args) > 2 else kwargs["x"]
            rule = args[3] if len(args) > 3 else kwargs["rule"]
            self._count("grid_points", np.size(x))
            if t > 0.0:
                self._count("gh_node_evals", np.size(x) * rule.order)
                self._count("gh_s", dur)

        def gap(args, kwargs, result, dur):
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            self._count("grid_points", grid.points.size)

        def chain(args, kwargs, result, dur):
            self._count("steps", len(result.trial_counts))
            self._count("proposals", int(result.trial_counts.sum()))

        def flow(args, kwargs, result, dur):
            self._count("flow_steps", len(result[0]) - 1)

        def file_bytes(key, pos):
            def after(args, kwargs, result, dur):
                self._count(key, os.path.getsize(args[pos]))
            return after

        return {
            "convolved_logdensity": gh, "gap_check": gap, "run_chain": chain,
            "gradient_flow": flow, "write_table": file_bytes("write_table_bytes", 0),
            "plot_csv": file_bytes("svg_bytes", 1),
        }

    @contextlib.contextmanager
    def installed(self):
        fp = fplab  # short name for the table below
        hooks = self._after_hooks()
        functions = {  # module -> (layer, public names its callers look up there)
            fp.quadrature: ("quadrature", (
                "convolved_logdensity", "perturbed_bound_check", "counterexample_trace",
                "counterexample_initial_slope", "gap_check", "gauss_hermite",
                "default_time_grid")),
            fp.sampler: ("sampler", (
                "run_chain", "forward_step", "rgo_sample", "chain_rng", "expected_trials_bound")),
            fp.optim: ("optim", ("prox_grad_run", "prox_grad_step", "gradient_flow")),
            fp.gaussian: ("gaussian", (
                "fisher_information", "kl_divergence", "evolve", "fi_curve",
                "proximal_chain", "proximal_step")),
            fp.potentials: ("potentials", ("spike_spec",)),
            fp.cli: ("cli", ("write_table",)),
            fp.svgplot: ("svgplot", ("read_csv_columns", "render_line_chart")),
        }
        try:
            for mod, (layer, names) in functions.items():
                for name in names:
                    fn = getattr(mod, name)
                    self._patch(mod, name, self.timed(fn, f"{layer}.{name}", layer,
                                                      hooks.get(name)))
            self._patch(fp.cli, "plot_csv",
                        self.timed(fp.cli.plot_csv, "svgplot.plot_csv", "svgplot",
                                   hooks["plot_csv"]))
            for owner, attr, layer in ((fp.cli.RunDir, "finish", "cli"),
                                       (fp.quadrature.ChannelTrace, "write_csv", "quadrature")):
                self._patch(owner, attr, self.timed(getattr(owner, attr),
                                                    f"{layer}.{owner.__name__}.{attr}", layer))
            for env in (fp.gaussian.HeatSLC, fp.gaussian.HeatSLCPoincare, fp.gaussian.HeatPerturbed,
                        fp.gaussian.OuSLC, fp.gaussian.OuSLCPoincare, fp.gaussian.ProxRate):
                self._patch(env, "factor", self.timed(env.factor, f"gaussian.{env.__name__}.factor",
                                                      "gaussian"))
            for mod in (fp.quadrature, fp.potentials):
                for name in ("counterexample_potential", "spike_potential"):
                    self._patch(mod, name, self._scalar_factory(getattr(mod, name)))
            for name in ("quadratic_potential", "quartic_1d"):
                self._patch(fp.potentials, name, self._smooth_factory(getattr(fp.potentials, name)))
            for mod in (fp.sampler, fp.optim):
                self._patch(mod, "minimize", self._minimize(mod.minimize))
            self._patch(fp.quadrature, "ThreadPoolExecutor", self._pool_class())
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _merged(self):
        stats, counts = {}, {}
        layer_self, layer_incl = dict.fromkeys(MODULES, 0.0), dict.fromkeys(MODULES, 0.0)
        tasks = []
        for st in self._states:
            for name, (n, total, own) in st.stats.items():
                s = stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += n
                s[1] += total
                s[2] += own
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
            for layer in MODULES:
                layer_self[layer] += st.layer_self[layer]
                layer_incl[layer] += st.layer_incl[layer]
            tasks += st.tasks
        return stats, counts, layer_self, layer_incl, tasks

    def metrics(self, certs: int, gaussian_rows: int, diag: dict) -> dict:
        """Per-layer figures per certificate, over ``certs`` traced certificates.

        Figures of a layer that did not run on the workload read 0.
        """
        stats, counts, layer_self, layer_incl, tasks = self._merged()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def mean_us(name):
            return _ratio(total(name) * 1e6, calls(name))

        def per_cert(v):
            return v / certs

        scalar_s = sum(total(f"potentials.scalar_{f}") for f in ("value", "deriv1", "deriv2"))
        rows = [dur for _, _, dur in tasks]
        busy = {}
        for pool, thread, dur in tasks:
            busy.setdefault(pool, {}).setdefault(thread, 0.0)
            busy[pool][thread] += dur
        imbalance = [max(b.values()) / statistics.fmean(b.values()) for b in busy.values()]
        steps, proposals = counts.get("steps", 0), counts.get("proposals", 0)
        gh_nodes = counts.get("gh_node_evals", 0)
        m = {
            "potentials.scalar_ns_per_elem": (_ratio(scalar_s * 1e9, counts.get("scalar_elems", 0)), "ns"),
            "potentials.scalar_elems": (per_cert(counts.get("scalar_elems", 0)), "count"),
            "potentials.minimize_calls": (per_cert(calls("potentials.minimize")), "count"),
            "potentials.minimize_iters_per_call": (
                _ratio(counts.get("minimize_iters", 0), calls("potentials.minimize")), "count"),
            "potentials.minimize_us": (mean_us("potentials.minimize"), "us"),
            "potentials.smooth_evals": (
                per_cert(counts.get("smooth_values", 0) + counts.get("smooth_grads", 0)), "count"),
            "quadrature.gh_node_evals": (per_cert(gh_nodes), "count"),
            "quadrature.gh_ms_per_mnode": (_ratio(counts.get("gh_s", 0.0) * 1e3, gh_nodes / 1e6), "ms"),
            "quadrature.grid_points": (per_cert(counts.get("grid_points", 0)), "count"),
            "quadrature.row_s.p50": (statistics.median(rows) if rows else 0.0, "s"),
            "quadrature.row_s.max": (max(rows, default=0.0), "s"),
            "quadrature.thread_busy_imbalance": (
                statistics.median(imbalance) if imbalance else 0.0, "ratio"),
            "quadrature.gap_check_ms": (per_cert(total("quadrature.gap_check")) * 1e3, "ms"),
            "quadrature.fi_ref_max_rel_err": (diag["quadrature.fi_ref_max_rel_err"], "ratio"),
            "sampler.chain_steps_per_s": (_ratio(steps, total("sampler.run_chain")), "steps/s"),
            "sampler.step_us": (_ratio(total("sampler.run_chain") * 1e6, steps), "us"),
            "sampler.rgo_us": (mean_us("sampler.rgo_sample"), "us"),
            "sampler.forward_us": (mean_us("sampler.forward_step"), "us"),
            # rgo_sample's self time: the rejection loop, i.e. everything but minimize
            "sampler.proposal_us": (
                _ratio(stats.get("sampler.rgo_sample", (0, 0.0, 0.0))[2] * 1e6, proposals), "us"),
            "sampler.proposals_per_step": (_ratio(proposals, steps), "count"),
            "sampler.accept_ratio": (_ratio(steps, proposals), "ratio"),
            "gaussian.calls": (per_cert(sum(s[0] for k, s in stats.items()
                                            if k.startswith("gaussian."))), "count"),
            "gaussian.us_per_row": (_ratio(layer_incl["gaussian"] * 1e6, gaussian_rows), "us"),
            "gaussian.fi_max_rel_err": (diag["gaussian.fi_max_rel_err"], "ratio"),
            "gaussian.kl_max_rel_err": (diag["gaussian.kl_max_rel_err"], "ratio"),
            "optim.prox_grad_step_us": (mean_us("optim.prox_grad_step"), "us"),
            "optim.flow_steps_per_s": (
                _ratio(counts.get("flow_steps", 0), total("optim.gradient_flow")), "steps/s"),
            "cli.write_table_ms": (per_cert(total("cli.write_table")) * 1e3, "ms"),
            "cli.write_table_bytes": (per_cert(counts.get("write_table_bytes", 0)), "B"),
            "cli.driver_ms": (per_cert(stats.get("cli.main", (0, 0.0, 0.0))[2]) * 1e3, "ms"),
            "cli.finish_ms": (per_cert(total("cli.RunDir.finish")) * 1e3, "ms"),
            "svgplot.plot_ms": (per_cert(total("svgplot.plot_csv")) * 1e3, "ms"),
            "svgplot.bytes": (per_cert(counts.get("svg_bytes", 0)), "B"),
        }
        for layer in MODULES:
            m[f"{layer}.self_s"] = (per_cert(layer_self[layer]), "s")
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for fid, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": fid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")
