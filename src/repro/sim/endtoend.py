"""End-to-end failure/repair simulation of a hierarchical model.

The analytic user-level measure (paper eq. 10) is a *steady-state
expectation*: it says nothing about how failures cluster in time.  This
simulator closes that gap: every resource alternates between up and down
as an independent two-state Markov process, and the user-perceived
availability is integrated over the simulated timeline — during a LAN
outage *every* session fails together, which the time average then
reflects correctly.

To keep the estimator's variance low, sessions are not sampled
individually: conditional on the current resource states (all boolean),
the exact probability that a random session succeeds is computed from
the hierarchical model (a Rao-Blackwellized estimator), and that
probability is integrated against elapsed time.  Over long horizons the
average converges to the analytic user availability, validating both the
equation and the independence assumptions behind it.

Fault injection
---------------
A run can additionally be driven by a timeline of :class:`FaultEvent`
interventions — the mechanism the :mod:`repro.resilience` campaign
engine uses to *violate* the model's independence assumptions on
purpose.  An event can force a set of resources down regardless of their
natural failure/repair process (correlated outages: LAN plus hosts
failing together), release them again, and set per-service degradation
factors in ``[0, 1]`` that multiply the conditional session-success
probability while active (capacity degradation: a farm in a degraded
coverage mode still serves, but drops a fraction of requests).  The
natural two-state processes keep running *underneath* a forced window,
so releasing a resource restores whatever latent state it reached.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .._validation import check_non_negative, check_positive, check_rate
from ..availability import TwoStateAvailability
from ..core import HierarchicalModel
from ..errors import SimulationError, ValidationError
from ..profiles import UserClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..runtime.budget import CancellationToken

__all__ = [
    "CompiledSimulation",
    "EndToEndResult",
    "FaultEvent",
    "compile_simulation",
    "simulate_user_availability_over_time",
]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled intervention of a fault-injection timeline.

    Attributes
    ----------
    time:
        Absolute simulation time at which the intervention applies.
    force_down:
        Resources forced down from this instant (stacking: a resource
        forced down twice needs two releases).
    release:
        Resources released from a previous ``force_down``.
    service_factors:
        Absolute degradation factors set per service name: ``1.0``
        restores full capacity, ``0.7`` drops 30% of the sessions that
        would otherwise succeed, ``0.0`` is a hard outage of the service.
    """

    time: float
    force_down: FrozenSet[str] = frozenset()
    release: FrozenSet[str] = frozenset()
    service_factors: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        check_non_negative(self.time, "time")
        object.__setattr__(self, "force_down", frozenset(self.force_down))
        object.__setattr__(self, "release", frozenset(self.release))
        factors = dict(self.service_factors)
        for service, factor in factors.items():
            if not 0.0 <= float(factor) <= 1.0:
                raise ValidationError(
                    f"service factor for {service!r} must be in [0, 1], "
                    f"got {factor!r}"
                )
        object.__setattr__(self, "service_factors", factors)
        if not (self.force_down or self.release or factors):
            raise ValidationError(
                "FaultEvent does nothing: set force_down, release, or "
                "service_factors"
            )


@dataclass(frozen=True)
class EndToEndResult:
    """Outcome of an end-to-end failure/repair simulation.

    Attributes
    ----------
    horizon:
        Simulated time span (availability-model time unit).
    average_user_availability:
        Time average of the conditional per-session success probability —
        converges to the analytic eq.-(10) value (absent injected faults).
    fraction_fully_available:
        Fraction of time *every* service was up.
    fraction_total_outage:
        Fraction of time the success probability was zero (a common
        single point of failure was down).
    resource_transitions:
        Number of natural failure/repair events simulated.
    fault_events_applied:
        Number of injected :class:`FaultEvent` interventions applied.
    """

    horizon: float
    average_user_availability: float
    fraction_fully_available: float
    fraction_total_outage: float
    resource_transitions: int
    fault_events_applied: int = 0


def _resource_rates(model: HierarchicalModel, default_repair_rate: float):
    """Failure/repair rates per resource.

    Resources backed by :class:`TwoStateAvailability` use their own
    rates; every other model (fixed numbers, composite web farms) is
    mapped to the two-state process with the same steady-state
    availability and the default repair rate — the approximation is
    documented on the public function.
    """
    rates: Dict[str, TwoStateAvailability] = {}
    for name in model.resources:
        availability = model.resource_availability(name)
        source = model.resource(name).model
        if isinstance(source, TwoStateAvailability):
            rates[name] = source
        elif availability >= 1.0:
            rates[name] = None  # never fails
        else:
            rates[name] = TwoStateAvailability.from_availability(
                availability, repair_rate=default_repair_rate
            )
    return rates


def _validated_timeline(
    faults: Optional[Sequence[FaultEvent]],
    compiled: "CompiledSimulation",
) -> Tuple[FaultEvent, ...]:
    """Fault events sorted by time, with resource/service names checked."""
    if not faults:
        return ()
    resources = set(compiled.index)
    services = set(compiled.services)
    for event in faults:
        unknown = (set(event.force_down) | set(event.release)) - resources
        if unknown:
            raise ValidationError(
                f"fault event at t={event.time} names unknown resources: "
                f"{sorted(unknown)}"
            )
        bad_services = set(event.service_factors) - services
        if bad_services:
            raise ValidationError(
                f"fault event at t={event.time} names unknown services: "
                f"{sorted(bad_services)}"
            )
    return tuple(sorted(faults, key=lambda e: e.time))


@dataclass(frozen=True, eq=False)
class CompiledSimulation:
    """One (model, user class) pair, compiled for the simulation loop.

    It holds everything the loop reads and never changes.  Resources
    and services are indices in model order.  Each resource has its
    two-state process and its (up, down) sojourn means.  The services a
    session touches are a weighted list of required-service bitmasks.
    Each service has its structure, its components' bits, and the
    services each resource feeds.  Build it with
    :func:`compile_simulation`, then pass it to
    :func:`simulate_user_availability_over_time` in place of the model,
    any number of times.  It is a snapshot: a model changed after the
    compile needs a new one.  It pickles, so a campaign compiles once
    and ships the result to its pool workers.
    """

    user_class: UserClass
    default_repair_rate: float
    index: Mapping[str, int]
    services: Tuple[str, ...]
    processes: Tuple[Optional[TwoStateAvailability], ...]
    mean_time: Tuple[Optional[Tuple[float, float]], ...]
    weighted_sets: Tuple[Tuple[float, FrozenSet[str], int], ...]
    structures: Tuple[object, ...]
    components: Tuple[Tuple[Tuple[str, int], ...], ...]
    component_masks: Tuple[int, ...]
    dependents: Tuple[Tuple[int, ...], ...]


def compile_simulation(
    model: HierarchicalModel,
    user_class: UserClass,
    default_repair_rate: float = 1.0,
) -> CompiledSimulation:
    """Compile *model* for *user_class*.

    The parameters are as in
    :func:`simulate_user_availability_over_time`, which takes the result
    in place of *model*.
    """
    default_repair_rate = check_rate(default_repair_rate,
                                     "default_repair_rate")
    rates = _resource_rates(model, default_repair_rate)
    index = {name: i for i, name in enumerate(rates)}
    processes = tuple(rates.values())

    # Per scenario, the distribution of the union of services a session
    # touches (independent of availabilities).  With boolean service
    # states the session succeeds iff its union set is a subset of the
    # currently-up services: a required-service mask test.
    service_bit = {service: 1 << k for k, service in enumerate(model.services)}
    weighted_sets = []
    for scenario in user_class.scenarios:
        usage = model.scenario_service_usage(scenario.functions)
        for service_set, probability in usage.items():
            required = sum(service_bit[service] for service in service_set)
            weighted_sets.append(
                (scenario.probability * probability, service_set, required)
            )

    # Each service's structure function is evaluated on its own
    # components' effective bits, and only the services depending on a
    # flipped resource are re-evaluated.
    structures = tuple(model.service_structure(s) for s in model.services)
    components = tuple(
        tuple((name, 1 << index[name])
              for name in set(structure.component_names()))
        for structure in structures
    )
    dependents = [[] for _ in processes]
    for k, comps in enumerate(components):
        for name, _ in comps:
            dependents[index[name]].append(k)
    return CompiledSimulation(
        user_class=user_class,
        default_repair_rate=default_repair_rate,
        index=index,
        services=tuple(model.services),
        processes=processes,
        mean_time=tuple(
            None if process is None
            else (1.0 / process.failure_rate, 1.0 / process.repair_rate)
            for process in processes
        ),
        weighted_sets=tuple(weighted_sets),
        structures=structures,
        components=components,
        component_masks=tuple(
            sum(bit for _, bit in comps) for comps in components
        ),
        dependents=tuple(tuple(ks) for ks in dependents),
    )


def simulate_user_availability_over_time(
    model: Union[HierarchicalModel, CompiledSimulation],
    user_class: UserClass,
    horizon: float,
    rng: np.random.Generator,
    default_repair_rate: float = 1.0,
    max_transitions: int = 20_000_000,
    faults: Optional[Sequence[FaultEvent]] = None,
    cancellation: Optional["CancellationToken"] = None,
    observer: Optional[object] = None,
) -> EndToEndResult:
    """Simulate resource failures/repairs and integrate user availability.

    Parameters
    ----------
    model:
        The hierarchical model; resources not built from
        :class:`TwoStateAvailability` (fixed numbers, web farms) are
        approximated by a two-state process with the same steady-state
        availability and *default_repair_rate*.  Or a
        :class:`CompiledSimulation` of it, from
        :func:`compile_simulation` with this *user_class* and
        *default_repair_rate*: the call then skips the compile, which
        repeated runs of one model (campaign replications) share.
    user_class:
        The scenario mix to evaluate.
    horizon:
        Simulated time span, in the availability-model time unit.
    rng:
        Random generator (caller owns seeding).  On return, and when the
        call raises, it is in the state one scalar ``rng.exponential``
        per simulated transition would leave.  During the call, though,
        it is consumed in blocks of sojourn draws, so nothing else (an
        *observer* in particular) may draw from it while the call runs.
    default_repair_rate:
        Repair rate assigned to resources that only carry an
        availability number.
    max_transitions:
        Safety cap on natural failure/repair events; exceeding it raises
        :class:`SimulationError` naming the count and sim-time reached.
    faults:
        Optional fault-injection timeline (see :class:`FaultEvent`);
        events past the horizon are ignored.
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken` polled once
        per simulated transition; lets a wall-clock deadline or an
        event budget interrupt the run cleanly (the partial integral is
        discarded — campaign-level journaling preserves only whole
        replications, which is what resume needs).
    observer:
        Optional streaming consumer of the simulated timeline, e.g. a
        :class:`repro.obs.slo.SLOMonitor` or
        :class:`~repro.obs.slo.PoissonSessionSampler`.  Duck-typed: it
        must provide ``interval(start, end, availability)``, called for
        every piecewise-constant segment of the conditional user
        availability, and ``fault(time, event)``, called for every
        applied :class:`FaultEvent`.  ``None`` (the default) costs one
        ``is not None`` check per segment, preserving the additive-
        observability guarantee: results are bit-identical either way.
        An observer that samples (such as the session sampler) needs a
        generator of its own, never *rng*.

    Returns
    -------
    EndToEndResult

    Examples
    --------
    >>> from repro.core import HierarchicalModel
    >>> from repro.profiles import UserClass
    >>> from repro.availability import TwoStateAvailability
    >>> model = HierarchicalModel()
    >>> _ = model.add_resource(
    ...     "host", TwoStateAvailability(failure_rate=0.2, repair_rate=1.0))
    >>> _ = model.add_service("web", "host")
    >>> _ = model.add_function("home", services=["web"])
    >>> users = UserClass.from_probabilities("all", {frozenset({"home"}): 1.0})
    >>> result = simulate_user_availability_over_time(
    ...     model, users, horizon=20000.0,
    ...     rng=__import__("numpy").random.default_rng(5))
    >>> abs(result.average_user_availability - 1.0 / 1.2) < 0.01
    True

    A scripted total outage of the only host for half the horizon caps
    the availability accordingly:

    >>> out = simulate_user_availability_over_time(
    ...     model, users, horizon=10000.0,
    ...     rng=__import__("numpy").random.default_rng(5),
    ...     faults=[FaultEvent(time=0.0, force_down=frozenset({"host"})),
    ...             FaultEvent(time=5000.0, release=frozenset({"host"}))])
    >>> out.average_user_availability < 0.5
    True
    """
    if not isinstance(model, CompiledSimulation):
        compiled = compile_simulation(model, user_class, default_repair_rate)
    elif (model.user_class != user_class
          or model.default_repair_rate != default_repair_rate):
        raise ValidationError(
            f"the compiled simulation is for {model.user_class.name!r} at "
            f"default_repair_rate={model.default_repair_rate}, not "
            f"{user_class.name!r} at {default_repair_rate}"
        )
    else:
        compiled = model
    return _run_compiled(
        compiled, horizon, rng, max_transitions, faults, cancellation,
        observer,
    )


def _run_compiled(
    compiled: CompiledSimulation,
    horizon: float,
    rng: np.random.Generator,
    max_transitions: int,
    faults: Optional[Sequence[FaultEvent]],
    cancellation: Optional["CancellationToken"],
    observer: Optional[object],
) -> EndToEndResult:
    """The simulation loop over a :class:`CompiledSimulation`.

    The parameters are those of
    :func:`simulate_user_availability_over_time`.  Every call starts
    from empty memo tables, so its result never depends on earlier
    calls.
    """
    horizon = check_positive(horizon, "horizon")
    timeline = _validated_timeline(faults, compiled)

    # Resource and service states are int bitmasks, and every derived
    # quantity is memoized on the bits it depends on (see
    # docs/PERFORMANCE.md).
    index = compiled.index
    processes = compiled.processes
    mean_time = compiled.mean_time
    weighted_sets = compiled.weighted_sets
    structures = compiled.structures
    components = compiled.components
    component_masks = compiled.component_masks
    dependents = compiled.dependents
    all_up = (1 << len(processes)) - 1

    # Initial states drawn from each resource's steady state, so the time
    # average starts unbiased rather than warming up from all-up.  The
    # calendar is a heap of (next transition time, resource index): equal
    # times pop the lowest index.  Never-failing resources have no entry.
    up = [True] * len(processes)
    calendar = []
    for i, process in enumerate(processes):
        if process is None:
            continue
        up[i] = bool(rng.random() < process.availability)
        calendar.append((rng.exponential(mean_time[i][not up[i]]), i))
    heapq.heapify(calendar)

    # Injection overlay: forced-down counts per resource and per-service
    # degradation factors.  The *effective* resource state (natural state
    # minus forced windows) is what services are evaluated against.
    forced = [0] * len(processes)
    factors: Dict[str, float] = {}
    effective = sum(1 << i for i, state in enumerate(up) if state)

    # (weight x degradation factor, required mask); x * 1.0 == x exactly.
    terms = [(weight, required) for weight, _, required in weighted_sets]

    # Structure states are memoized per service on its components' bits;
    # the conditional availability per service-up mask until a factor
    # changes.
    from ..rbd import structure_function

    state_memo = [{} for _ in structures]
    availability_memo: Dict[int, float] = {}

    clock = 0.0
    weighted_availability = 0.0
    fully_up_time = 0.0
    outage_time = 0.0
    transitions = 0
    applied = 0
    next_fault = 0
    services_up = 0
    stale = range(len(structures))  # every service, once up front
    never = float("inf")
    fault_time = timeline[0].time if timeline else never

    # Sojourns are drawn in blocks: mean * standard_exponential() is the
    # same float, from the same bits, as the scalar rng.exponential(mean).
    # Each block starts from a saved generator state; on the way out the
    # unused tail is given back by restoring that state and redrawing
    # only what was used, so the caller's generator ends exactly where
    # one scalar draw per transition would have left it.
    block = []
    used = 0  # values of the current block taken so far
    block_size = 16
    saved = None
    try:
        while True:
            for k in stale:
                key = effective & component_masks[k]
                state = state_memo[k].get(key)
                if state is None:
                    state = state_memo[k][key] = structure_function(
                        structures[k],
                        {name: bool(key & bit)
                         for name, bit in components[k]},
                    )
                if state:
                    services_up |= 1 << k
                else:
                    services_up &= ~(1 << k)
            current = availability_memo.get(services_up)
            if current is None:
                current = availability_memo[services_up] = sum(
                    weight
                    for weight, required in terms
                    if required & services_up == required
                )
            if not clock < horizon:
                break
            if cancellation is not None:
                cancellation.count_event()
            resource_time, i = calendar[0] if calendar else (never, -1)
            # min() without the calls, picking as min() does on a tie; a
            # fault still wins a tie with a resource event (below).
            event_time = (
                fault_time if fault_time < resource_time else resource_time
            )
            step_end = horizon if horizon < event_time else event_time
            dt = step_end - clock
            weighted_availability += current * dt
            if effective == all_up:
                fully_up_time += dt
            if current == 0.0:
                outage_time += dt
            if observer is not None and dt > 0.0:
                observer.interval(clock, step_end, current)
            clock = step_end
            if event_time > horizon:
                break
            if fault_time <= resource_time:
                event = timeline[next_fault]
                touched = {index[r] for r in event.force_down | event.release}
                for name in event.force_down:
                    forced[index[name]] += 1
                for name in event.release:
                    if forced[index[name]] <= 0:
                        raise SimulationError(
                            f"fault event at t={event.time} releases "
                            f"{name!r}, which is not forced down"
                        )
                    forced[index[name]] -= 1
                for r in touched:
                    if up[r] and not forced[r]:
                        effective |= 1 << r
                    else:
                        effective &= ~(1 << r)
                stale = {k for r in touched for k in dependents[r]}
                if event.service_factors:
                    factors.update(event.service_factors)
                    for k, (weight, members, required) in enumerate(
                        weighted_sets
                    ):
                        product = 1.0
                        for service in sorted(members):
                            product *= factors.get(service, 1.0)
                        terms[k] = (weight * product, required)
                    availability_memo.clear()
                if observer is not None:
                    observer.fault(event.time, event)
                next_fault += 1
                applied += 1
                fault_time = (
                    timeline[next_fault].time
                    if next_fault < len(timeline)
                    else never
                )
            else:
                # Flip the resource's natural state and schedule its next
                # transition; the effective state honours forced windows.
                up[i] = not up[i]
                if not forced[i]:
                    effective ^= 1 << i
                stale = dependents[i]
                if used == len(block):
                    saved = rng.bit_generator.state
                    block = rng.standard_exponential(block_size).tolist()
                    used = 0
                    block_size = min(2 * block_size, 1024)
                sojourn = mean_time[i][not up[i]] * block[used]
                heapq.heapreplace(calendar, (clock + sojourn, i))
                used += 1
                transitions += 1
                if transitions > max_transitions:
                    raise SimulationError(
                        f"exceeded max_transitions={max_transitions} after "
                        f"{transitions} resource transitions at sim-time "
                        f"{clock:.6g} of horizon {horizon:.6g}; rates may be "
                        "far larger than the horizon warrants"
                    )
    finally:
        if used < len(block):
            rng.bit_generator.state = saved
            rng.standard_exponential(used)

    return EndToEndResult(
        horizon=horizon,
        average_user_availability=weighted_availability / horizon,
        fraction_fully_available=fully_up_time / horizon,
        fraction_total_outage=outage_time / horizon,
        resource_transitions=transitions,
        fault_events_applied=applied,
    )
