"""Layer probes: time the calls into each module's public functions.

Every layer is measured from outside the program.  :class:`LayerProbes`
replaces a public function (or method) with a wrapper that counts the
calls, times them, and keeps a per-thread stack of open probes so each
layer's *self* time excludes the probed layers it calls.  Nothing inside
``src/`` changes; removing the wrappers restores the originals.

The engine is a dispatch layer: the policies and cloud grids run their
cells through it.  Its time therefore stays in the self time of the
layer that called it, and only the *own* time (self time minus engine
time) leaves it out, which is what ``campaign.self_s`` reports.

Totals live in a shared-memory array allocated before any worker pool
is forked, so the simulator calls that run inside the engine's pool
workers (campaigns at ``workers=2``) land in the same table as the
calls made in the parent.  This relies on the ``fork`` start method,
the default for ``concurrent.futures`` on Linux up to Python 3.13.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import threading
from time import perf_counter

#: Probed layers, in report order.
LAYERS = ("sim", "campaign", "engine", "webservice", "policies", "bayes",
          "render")

#: Layers whose time stays with their caller's self time.
DISPATCH = ("engine",)

# Per layer: calls, inclusive s, self s, own s (self minus engine), count.
_FIELDS = 5


def probe_targets():
    """``(layer, owner, attribute, count)`` for every probed callable.

    *owner* is a module or class; *count* maps a result to the work it
    represents (resource transitions for the simulator) or is None.
    """
    from repro import bayes, resilience, workloads
    from repro.availability.webservice import WebServiceModel
    from repro.engine.executor import EvaluationEngine
    from repro.reporting import tables
    from repro.resilience import campaign
    from repro.sim import endtoend

    return [
        ("sim", endtoend, "simulate_user_availability_over_time",
         lambda result: result.resource_transitions),
        ("campaign", campaign, "run_campaign", None),
        ("engine", EvaluationEngine, "map", None),
        ("engine", EvaluationEngine, "run_graph", None),
        ("webservice", WebServiceModel, "loss_breakdown", None),
        ("policies", resilience, "compare_client_policies", None),
        ("bayes", bayes, "compare_cloud_scenarios", None),
        ("render", workloads, "fig_sweep_text", None),
        ("render", workloads, "campaign_text", None),
        ("render", workloads, "policy_comparison_text", None),
        ("render", workloads, "cloud_comparison_text", None),
        ("render", tables, "format_table", None),
    ]


class LayerProbes:
    """Call counts and busy time per layer, across forked workers."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._totals = ctx.Array("d", len(LAYERS) * _FIELDS)
        self._local = threading.local()
        self._restore = []

    # -- recording -----------------------------------------------------
    def _stack(self):
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            # A forked worker inherits the parent's open probes; its own
            # calls are roots, not children of work it never ran.
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def _add(self, index, values):
        base = index * _FIELDS
        with self._totals.get_lock():
            for offset, value in enumerate(values):
                self._totals[base + offset] += value

    def wrap(self, layer, fn, count=None):
        """A timed stand-in for *fn*, recorded under *layer*."""
        index = LAYERS.index(layer)
        dispatch = layer in DISPATCH

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            stack = self._stack()
            # [probed time below, of which in dispatch layers]
            frame = [0.0, 0.0]
            stack.append(frame)
            started = perf_counter()
            work = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    work = count(result)
                return result
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                below, in_dispatch = frame
                if stack:
                    parent = stack[-1]
                    if dispatch:
                        # Only the layers called through the engine leave
                        # the caller's self time; the engine's own share
                        # stays, marked as dispatch.
                        parent[0] += below
                        parent[1] += elapsed - below
                    else:
                        parent[0] += elapsed
                self._add(index, (1, elapsed, elapsed - below,
                                  elapsed - below - in_dispatch, work))

        return probed

    # -- installation --------------------------------------------------
    def install(self):
        """Swap every probe target for its wrapper, at every binding.

        A function imported by name into other modules (``from .x import
        f``) is rebound there too, so callers see the wrapper.
        """
        for layer, owner, attribute, count in probe_targets():
            original = getattr(owner, attribute)
            wrapper = self.wrap(layer, original, count)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    module for name, module in list(sys.modules.items())
                    if (name == "repro" or name.startswith("repro."))
                    and module is not owner
                    and getattr(module, attribute, None) is original
                ]
            for holder in holders:
                self._restore.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)

    def uninstall(self):
        for holder, attribute, original in reversed(self._restore):
            setattr(holder, attribute, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- results -------------------------------------------------------
    def totals(self):
        """``{layer: {calls, inclusive_s, self_s, own_s, count}}``."""
        with self._totals.get_lock():
            raw = list(self._totals)
        names = ("calls", "inclusive_s", "self_s", "own_s", "count")
        totals = {}
        for i, layer in enumerate(LAYERS):
            row = dict(zip(names, raw[i * _FIELDS:(i + 1) * _FIELDS]))
            row["calls"] = int(row["calls"])
            row["count"] = int(row["count"])
            totals[layer] = row
        return totals
