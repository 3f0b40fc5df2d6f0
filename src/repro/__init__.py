"""repro — user-perceived availability evaluation of web-based applications.

A from-scratch reproduction of *"A User-Perceived Availability Evaluation
of a Web Based Travel Agency"* (Kaâniche, Kanoun & Martinello, DSN 2003):
a hierarchical dependability-modeling framework spanning four levels —
user, function, service and resource — with a composite
performance-availability measure that accounts for both classical
failures and requests lost to full server buffers.

Quickstart
----------
>>> from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel
>>> ta = TravelAgencyModel()                    # the paper's redundant TA
>>> round(ta.web_service_availability(), 9)     # paper: 0.999995587
0.999995587
>>> result = ta.user_availability(CLASS_B)
>>> 0.95 < result.availability < 0.99
True

Package map
-----------
``repro.markov``
    DTMC/CTMC machinery: the one steady-state solver chain (GTH, linear
    solve, power iteration), transient analysis, reward models.
``repro.queueing``
    M/M/1[/K], M/M/c[/K], Erlang B/C, birth-death queues.
``repro.rbd`` / ``repro.faulttree`` / ``repro.spn``
    Structure modeling techniques (Section 2 of the paper).
``repro.availability``
    Resource-level failure/repair models, including the coverage farms
    of Figs. 9-10 and the composite web-service model of eqs. 2/5/9.
``repro.profiles``
    Operational profiles: session graphs, scenario distributions,
    calibration from observed scenario frequencies.
``repro.core``
    The hierarchical four-level framework (the paper's contribution).
``repro.ta``
    The Travel Agency case study: architectures, user classes,
    closed-form equations, economics.
``repro.bayes``
    Cloud-era models: Bayesian networks of binary availability nodes
    with exact variable-elimination inference, k-out-of-n replica sets
    under common-cause zonal failures, the autoscaling M/M/c/K farm,
    and service-function chains (``repro cloud``).
``repro.sensitivity``
    Parameter sweeps and tornado analyses.
``repro.sim``
    Discrete-event simulation used to cross-validate analytic results,
    including Monte-Carlo sampling of the Bayesian-network models.
``repro.runtime``
    Fault-tolerant execution substrate: budgets/deadlines, cooperative
    cancellation, crash-consistent run journals and heartbeats.
``repro.obs``
    Observability: metrics registry with OpenMetrics exposition and
    order-invariant merging, span tracing in Chrome trace-event format
    with cross-process propagation, and performance attribution with a
    deterministic flamegraph profiler — near-zero overhead when
    disabled.
``repro.reporting``
    Downtime conversions and table formatting for the benches.
"""

from . import (
    availability,
    core,
    errors,
    markov,
    profiles,
    queueing,
    rbd,
    runtime,
)

__version__ = "1.0.0"

__all__ = [
    "availability",
    "core",
    "errors",
    "markov",
    "profiles",
    "queueing",
    "rbd",
    "runtime",
    "__version__",
]
