"""Executes the docstring examples of every public module.

Docstring examples are part of the public documentation; this test keeps
them honest.  Modules are imported and run through :mod:`doctest`
explicitly (rather than pytest's ``--doctest-modules``) so the selection
is deliberate and failures name the module.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro.availability.coverage",
    "repro.availability.repairable",
    "repro.availability.twostate",
    "repro.availability.webservice",
    "repro.core.interaction",
    "repro.core.levels",
    "repro.core.model",
    "repro.faulttree.cutsets",
    "repro.faulttree.evaluate",
    "repro.faulttree.nodes",
    "repro.markov.builder",
    "repro.markov.ctmc",
    "repro.markov.dtmc",
    "repro.markov.passage",
    "repro.markov.rewards",
    "repro.measurement.estimators",
    "repro.measurement.probes",
    "repro.measurement.uncertainty",
    "repro.obs.context",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.profiles.classes",
    "repro.profiles.graph",
    "repro.profiles.scenarios",
    "repro.engine.cache",
    "repro.engine.executor",
    "repro.queueing.erlang",
    "repro.queueing.mg1",
    "repro.queueing.mm1",
    "repro.queueing.mm1k",
    "repro.queueing.mmc",
    "repro.queueing.mmck",
    "repro.queueing.mminf",
    "repro.queueing.responsetime",
    "repro.rbd.blocks",
    "repro.rbd.evaluate",
    "repro.resilience.campaign",
    "repro.resilience.degradation",
    "repro.resilience.faults",
    "repro.resilience.report",
    "repro.resilience.retry",
    "repro.reporting.downtime",
    "repro.reporting.series",
    "repro.reporting.tables",
    "repro.runtime.budget",
    "repro.runtime.heartbeat",
    "repro.runtime.journal",
    "repro.sensitivity.sweep",
    "repro.sim.des",
    "repro.sim.endtoend",
    "repro.sim.failures",
    "repro.sim.queues",
    "repro.sim.sessions",
    "repro.spec",
    "repro.spn.analysis",
    "repro.spn.net",
    "repro.ta.economics",
    "repro.ta.model",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )


def test_module_list_is_fresh():
    """Every listed module must still exist (guards against renames)."""
    for module_name in MODULES:
        importlib.import_module(module_name)
