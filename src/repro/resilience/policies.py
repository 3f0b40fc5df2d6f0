"""Client-side resilience policies as first-class availability models.

The paper's users either submit once or (in :mod:`repro.resilience.retry`)
naively retry.  Modern clients run *resilience policies* instead: circuit
breakers that stop hammering a failing service, request timeouts that
declare late responses failed, and hedged requests that race a duplicate
against a slow original.  This module models the production trio as
first-class availability models, so "which client policy maximizes
user-perceived availability under farm faults?" becomes a computable
question — a scenario axis the paper never had.

Three model families
--------------------
**Circuit breaker** (:class:`CircuitBreakerPolicy`) — the classic
closed/open/half-open state machine embedded in a *user-level CTMC*
built with :class:`repro.markov.CTMCBuilder`.  A population of
independent, identical users issues requests at rate ``lambda``; each
attempt succeeds with the per-attempt availability ``A`` (an eq.-(10)
style steady-state probability).  ``failure_threshold`` consecutive
failures trip the breaker open; an exponential reset timer (mean
``reset_timeout``) moves it to half-open, where probes at rate
``probe_rate`` either close it again or re-open it.  The user-perceived
availability is the steady-state fraction of *demanded* requests that
are served — requests short-circuited while the breaker is open count as
failures, which is exactly the availability cost a breaker pays for
protecting the service.  The closed form is cross-validated against the
discrete-event client model in :func:`repro.sim.clients.simulate_circuit_breaker_clients`.

**Timeout** (:class:`TimeoutPolicy`) — a request is *user-perceived
successful* only when it is accepted by the farm's M/M/c/K buffer, the
service-level attempt succeeds, and the response arrives within
``timeout``.  Evaluated exactly over the sojourn-time distribution of
:func:`repro.queueing.responsetime.response_time_survival`.

**Hedge** (:class:`HedgePolicy`) — a timeout policy that additionally
issues at most one spare request: immediately when the original is
rejected by the buffer, or after ``hedge_delay`` when no response has
arrived yet.  The session succeeds when either copy completes in time —
the min of two i.i.d. conditional response times.  Hedging feeds load
back into the farm (a fraction of sessions submits twice), which this
model resolves as a fixed point on the effective arrival rate before
evaluating the success probability.

All three reduce a policy to one number per *farm fault state* — the
building block :func:`compare_client_policies` sweeps over a grid of
{retry, circuit-breaker, timeout, hedge} policies times
:class:`FarmFaultScenario` states through
:meth:`repro.engine.EvaluationEngine.map`, producing a ranked
:class:`PolicyComparisonReport` (CLI: ``repro policies``).
"""

from __future__ import annotations

import functools
import math
import pickle
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from .._validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
    check_rate,
)
from ..errors import SolverError, ValidationError
from ..markov.builder import CTMCBuilder
from ..queueing.mmck import MMCKQueue
from ..queueing.responsetime import ResponseTime
from .retry import RetryPolicy, session_outcome

__all__ = [
    "CircuitBreakerPolicy",
    "CircuitBreakerResult",
    "circuit_breaker_chain",
    "circuit_breaker_availability",
    "TimeoutPolicy",
    "HedgePolicy",
    "RequestPolicyResult",
    "request_policy_availability",
    "ClientPolicy",
    "policy_label",
    "FarmFaultScenario",
    "PolicyCell",
    "PolicyRank",
    "PolicyComparisonReport",
    "evaluate_policy_cell",
    "compare_client_policies",
]


# ----------------------------------------------------------------------
# Circuit breaker: closed/open/half-open embedded in a user-level CTMC.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """A client-side circuit breaker guarding one service.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker from closed to open.
    reset_timeout:
        Mean dwell time in the open state before a recovery probe is
        allowed (the model draws it exponentially, which keeps the user
        population Markov; a deterministic timeout has the same mean
        occupancy).  In the same time unit as *request_rate*.
    request_rate:
        Rate at which one user demands the service while the breaker is
        closed (and keeps demanding while it is open — those requests
        are short-circuited and count as failures).
    probe_rate:
        Rate of recovery probes in the half-open state; the remaining
        demand ``request_rate - probe_rate`` is short-circuited.
        Defaults to *request_rate* (every request probes).

    Examples
    --------
    >>> policy = CircuitBreakerPolicy(failure_threshold=3,
    ...                               reset_timeout=30.0)
    >>> policy.probe_rate == policy.request_rate
    True
    """

    failure_threshold: int = 3
    reset_timeout: float = 30.0
    request_rate: float = 1.0
    probe_rate: Optional[float] = None

    def __post_init__(self):
        check_positive_int(self.failure_threshold, "failure_threshold")
        check_rate(self.reset_timeout, "reset_timeout")
        check_rate(self.request_rate, "request_rate")
        if self.probe_rate is None:
            object.__setattr__(self, "probe_rate", self.request_rate)
        else:
            check_rate(self.probe_rate, "probe_rate")
            if self.probe_rate > self.request_rate:
                raise ValidationError(
                    f"probe_rate ({self.probe_rate}) must not exceed "
                    f"request_rate ({self.request_rate}); probes are a "
                    "subset of the user's demand"
                )


@dataclass(frozen=True)
class CircuitBreakerResult:
    """Steady-state user-perceived availability under a circuit breaker.

    Attributes
    ----------
    attempt_availability:
        The per-attempt availability ``A`` the breaker observes.
    availability:
        Fraction of *demanded* requests served: attempts that reach the
        service and succeed.  Short-circuited requests count against it.
    closed_probability / open_probability / half_open_probability:
        Steady-state occupancy of the breaker states (closed aggregates
        every failure-streak substate).
    short_circuit_probability:
        Fraction of demanded requests rejected by the breaker without
        reaching the service (open state, plus the non-probed share of
        half-open demand).
    """

    attempt_availability: float
    availability: float
    closed_probability: float
    open_probability: float
    half_open_probability: float
    short_circuit_probability: float

    @property
    def protection_cost(self) -> float:
        """Availability given up for protection, ``A - availability``.

        Positive whenever the breaker short-circuits demand that would
        have succeeded; the price paid for shedding load off a failing
        service.
        """
        return self.attempt_availability - self.availability


def circuit_breaker_chain(
    availability: float, policy: CircuitBreakerPolicy
):
    """The user-level CTMC of one circuit-breaker client.

    States are ``("closed", j)`` for failure streak ``j = 0 ..
    failure_threshold - 1``, ``"open"`` and ``"half-open"``.  Requires
    ``0 < availability < 1`` — at the boundaries some states become
    unreachable and the chain is reducible (handled in closed form by
    :func:`circuit_breaker_availability`).

    Examples
    --------
    >>> chain = circuit_breaker_chain(
    ...     0.9, CircuitBreakerPolicy(failure_threshold=2))
    >>> chain.states
    (('closed', 0), ('closed', 1), 'open', 'half-open')
    """
    a = check_probability(availability, "availability")
    if not 0.0 < a < 1.0:
        raise ValidationError(
            "availability must be strictly inside (0, 1) for the chain "
            f"to be irreducible, got {a!r}; use "
            "circuit_breaker_availability() which handles the boundaries"
        )
    lam = policy.request_rate
    probe = policy.probe_rate
    threshold = policy.failure_threshold
    reset_rate = 1.0 / policy.reset_timeout
    builder = CTMCBuilder()
    for j in range(threshold):
        builder.add_state(("closed", j))
    builder.add_state("open")
    builder.add_state("half-open")
    for j in range(threshold):
        # A failed attempt extends the streak; the last one trips open.
        failed_to = ("closed", j + 1) if j + 1 < threshold else "open"
        builder.add_transition(("closed", j), failed_to, lam * (1.0 - a))
        if j > 0:  # a success resets the streak (j = 0 stays put)
            builder.add_transition(("closed", j), ("closed", 0), lam * a)
    builder.add_transition("open", "half-open", reset_rate)
    builder.add_transition("half-open", ("closed", 0), probe * a)
    builder.add_transition("half-open", "open", probe * (1.0 - a))
    return builder.build()


def circuit_breaker_availability(
    availability: float, policy: CircuitBreakerPolicy
) -> CircuitBreakerResult:
    """Closed-form user-perceived availability under a circuit breaker.

    The steady state of :func:`circuit_breaker_chain` weighs the demand:
    with ``pi_C`` total closed occupancy and ``pi_H`` half-open
    occupancy, the served fraction of demand is ``A * (pi_C +
    (probe_rate / request_rate) * pi_H)``.

    Examples
    --------
    A healthy service keeps the breaker closed and costs nothing:

    >>> result = circuit_breaker_availability(
    ...     0.999, CircuitBreakerPolicy(failure_threshold=3,
    ...                                 reset_timeout=30.0))
    >>> result.availability > 0.998
    True

    A failing service trips it, and short-circuits dominate:

    >>> bad = circuit_breaker_availability(
    ...     0.2, CircuitBreakerPolicy(failure_threshold=3,
    ...                               reset_timeout=30.0))
    >>> bad.short_circuit_probability > 0.5
    True
    """
    a = check_probability(availability, "availability")
    probe_share = policy.probe_rate / policy.request_rate
    if a >= 1.0:
        # Never a failure: the breaker never trips.
        return CircuitBreakerResult(
            attempt_availability=1.0,
            availability=1.0,
            closed_probability=1.0,
            open_probability=0.0,
            half_open_probability=0.0,
            short_circuit_probability=0.0,
        )
    if a <= 0.0:
        # Every attempt fails: after the initial trip the breaker cycles
        # open -> half-open -> open forever; closed states are transient.
        reset_rate = 1.0 / policy.reset_timeout
        pi_half = reset_rate / (reset_rate + policy.probe_rate)
        pi_open = 1.0 - pi_half
        return CircuitBreakerResult(
            attempt_availability=0.0,
            availability=0.0,
            closed_probability=0.0,
            open_probability=pi_open,
            half_open_probability=pi_half,
            short_circuit_probability=(
                pi_open + (1.0 - probe_share) * pi_half
            ),
        )
    chain = circuit_breaker_chain(a, policy)
    pi = chain.steady_state()
    pi_open = pi["open"]
    pi_half = pi["half-open"]
    pi_closed = 1.0 - pi_open - pi_half
    served = a * (pi_closed + probe_share * pi_half)
    return CircuitBreakerResult(
        attempt_availability=a,
        availability=served,
        closed_probability=pi_closed,
        open_probability=pi_open,
        half_open_probability=pi_half,
        short_circuit_probability=pi_open + (1.0 - probe_share) * pi_half,
    )


# ----------------------------------------------------------------------
# Timeout and hedge: request policies over M/M/c/K response times.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimeoutPolicy:
    """Declare a request failed unless it responds within *timeout*.

    The paper's conclusion proposes exactly this composite measure: a
    request also fails when "the response time exceeds an acceptable
    threshold".  *timeout* is in the performance-model time unit
    (seconds in the paper's parameterization).
    """

    timeout: float

    def __post_init__(self):
        check_positive(self.timeout, "timeout")


@dataclass(frozen=True)
class HedgePolicy:
    """A timeout policy with one hedged (duplicated) request.

    The client issues at most one spare copy: immediately when the
    original is rejected by the farm's buffer, or after *hedge_delay*
    when no response has arrived yet.  The session succeeds when either
    copy responds within *timeout* of the session start.  Requires
    ``0 < hedge_delay < timeout``.
    """

    timeout: float
    hedge_delay: float

    def __post_init__(self):
        check_positive(self.timeout, "timeout")
        check_positive(self.hedge_delay, "hedge_delay")
        if self.hedge_delay >= self.timeout:
            raise ValidationError(
                f"hedge_delay ({self.hedge_delay}) must be strictly below "
                f"timeout ({self.timeout}); a later hedge can never help"
            )


@dataclass(frozen=True)
class RequestPolicyResult:
    """Analytic evaluation of a timeout or hedge request policy.

    Attributes
    ----------
    availability:
        P(session succeeds): accepted, service-level success, and a
        response within the timeout (either copy, for a hedge).
    blocking_probability:
        Buffer-overflow probability of the (load-adjusted) farm queue.
    timely_probability:
        P(response within the timeout | accepted) for a single request.
    hedge_probability:
        Fraction of sessions that issue the spare request (0 for a plain
        timeout policy).
    effective_arrival_rate:
        Farm arrival rate including hedge duplicates — the fixed point
        of the load-feedback equation (equals the offered rate for a
        plain timeout policy).
    iterations:
        Fixed-point iterations used (0 for a plain timeout policy).
    """

    availability: float
    blocking_probability: float
    timely_probability: float
    hedge_probability: float
    effective_arrival_rate: float
    iterations: int

    def effective_queue(self, queue: MMCKQueue) -> MMCKQueue:
        """*queue* re-loaded with the hedge-inflated arrival rate."""
        return MMCKQueue(
            arrival_rate=self.effective_arrival_rate,
            service_rate=queue.service_rate,
            servers=queue.servers,
            capacity=queue.capacity,
        )


def _timely(law: ResponseTime, t: float) -> float:
    """``P(T <= t)`` for an accepted request (0 at or below t = 0)."""
    if t <= 0.0:
        return 0.0
    return 1.0 - law.survival(t)


def request_policy_availability(
    queue: MMCKQueue,
    policy: Union[TimeoutPolicy, HedgePolicy],
    attempt_availability: float = 1.0,
    tol: float = 1e-12,
    max_iterations: int = 200,
) -> RequestPolicyResult:
    """Effective availability of a timeout or hedge policy, in closed form.

    Parameters
    ----------
    queue:
        The farm performance model at the *offered* (un-hedged) load.
    policy:
        A :class:`TimeoutPolicy` or :class:`HedgePolicy`.
    attempt_availability:
        Probability the service handles the session correctly given a
        timely response — the availability-model multiplier of the farm
        state under evaluation.  It is applied once per session (a
        degraded service fails the duplicate too), so hedging buys back
        latency and blocking, not service-level failures.
    tol / max_iterations:
        Convergence control of the hedge load-feedback fixed point
        (relative change of the effective arrival rate).

    Notes
    -----
    For a timeout ``tau``::

        A = m (1 - pK) F(tau)

    with ``F`` the accepted-request response-time CDF and ``m`` the
    attempt availability.  A hedge with delay ``d`` issues its spare
    with probability ``w = pK + (1 - pK) S(d)`` — immediately on a
    buffer rejection, or at ``d`` when the original is still in flight —
    so the farm sees arrivals at ``lambda (1 + w)``, which changes
    ``pK`` and ``S`` and hence ``w``: the effective rate is resolved as
    a fixed point first.  At that rate, conditioning on the original's
    fate gives::

        A = m [ pK (1-pK) F(tau)
              + (1-pK) (1 - S(tau) (pK + (1-pK) S(tau - d))) ]

    — the min of two i.i.d. conditional response times, the second
    shifted by the hedge delay.

    Examples
    --------
    >>> q = MMCKQueue(arrival_rate=100.0, service_rate=100.0, servers=4,
    ...               capacity=10)
    >>> plain = request_policy_availability(q, TimeoutPolicy(0.05))
    >>> hedged = request_policy_availability(q, HedgePolicy(0.05, 0.01))
    >>> hedged.availability > plain.availability
    True
    >>> hedged.effective_arrival_rate > q.arrival_rate
    True
    """
    m = check_probability(attempt_availability, "attempt_availability")
    check_positive(tol, "tol")
    check_positive_int(max_iterations, "max_iterations")
    if isinstance(policy, TimeoutPolicy):
        blocking = queue.blocking_probability()
        timely = _timely(ResponseTime(queue), policy.timeout)
        return RequestPolicyResult(
            availability=m * (1.0 - blocking) * timely,
            blocking_probability=blocking,
            timely_probability=timely,
            hedge_probability=0.0,
            effective_arrival_rate=queue.arrival_rate,
            iterations=0,
        )
    if not isinstance(policy, HedgePolicy):
        raise ValidationError(
            f"policy must be a TimeoutPolicy or HedgePolicy, got {policy!r}"
        )
    tau = policy.timeout
    delay = policy.hedge_delay
    offered = queue.arrival_rate

    def loaded(rate: float) -> MMCKQueue:
        return MMCKQueue(
            arrival_rate=rate,
            service_rate=queue.service_rate,
            servers=queue.servers,
            capacity=queue.capacity,
        )

    # Fixed point on the effective arrival rate: each session offers one
    # request plus a spare with probability w(rate).  The map rate ->
    # offered * (1 + w(rate)) is increasing and bounded by 2 * offered,
    # so iterating from the un-hedged rate converges monotonically.
    rate = offered
    hedge_p = 0.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        q = loaded(rate)
        blocking = q.blocking_probability()
        hedge_p = blocking + (1.0 - blocking) * (
            1.0 - _timely(ResponseTime(q), delay)
        )
        next_rate = offered * (1.0 + hedge_p)
        if abs(next_rate - rate) <= tol * offered:
            rate = next_rate
            break
        rate = next_rate
    else:
        raise SolverError(
            "hedge load-feedback fixed point did not converge within "
            f"{max_iterations} iterations (rate {rate!r})"
        )
    q = loaded(rate)
    blocking = q.blocking_probability()
    law = ResponseTime(q)
    f_tau = _timely(law, tau)
    s_tau = 1.0 - f_tau
    s_delay = 1.0 - _timely(law, delay)
    f_gap = _timely(law, tau - delay)
    accepted = 1.0 - blocking
    # Condition on the original: rejected (spare immediately), done
    # before the hedge fires, or racing the spare.
    success = accepted * (
        blocking * f_tau
        + 1.0
        - s_tau * (blocking + accepted * (1.0 - f_gap))
    )
    return RequestPolicyResult(
        availability=m * success,
        blocking_probability=blocking,
        timely_probability=f_tau,
        hedge_probability=blocking + accepted * s_delay,
        effective_arrival_rate=rate,
        iterations=iterations,
    )


# ----------------------------------------------------------------------
# The policy-comparison campaign: policies x farm fault states.
# ----------------------------------------------------------------------

ClientPolicy = Union[RetryPolicy, CircuitBreakerPolicy, TimeoutPolicy, HedgePolicy]


def policy_label(policy: ClientPolicy) -> str:
    """A short, stable display label for any supported client policy."""
    if isinstance(policy, RetryPolicy):
        return (
            f"retry(k={policy.max_retries}, p={policy.persistence:g})"
        )
    if isinstance(policy, CircuitBreakerPolicy):
        return (
            f"breaker(f={policy.failure_threshold}, "
            f"reset={policy.reset_timeout:g})"
        )
    if isinstance(policy, HedgePolicy):
        return f"hedge(t={policy.timeout:g}, d={policy.hedge_delay:g})"
    if isinstance(policy, TimeoutPolicy):
        return f"timeout(t={policy.timeout:g})"
    raise ValidationError(
        f"unsupported client policy type: {type(policy).__name__!r}"
    )


@dataclass(frozen=True)
class FarmFaultScenario:
    """One fault state of the web farm for policy comparison.

    Attributes
    ----------
    name:
        Scenario name (e.g. ``"degraded"``).
    servers_up:
        Operational servers in this state (0 = total outage).
    arrival_factor:
        Multiplier on the nominal arrival rate (a traffic surge, or a
        failover concentrating load).
    service_availability:
        Probability the service handles an accepted, timely request
        correctly in this state — the availability-model multiplier
        (e.g. a degraded coverage mode dropping sessions).
    weight:
        Relative weight of the scenario in the ranked comparison
        (normalized over the scenario set; typically the state
        probability from an availability model).
    """

    name: str
    servers_up: int
    arrival_factor: float = 1.0
    service_availability: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ValidationError("scenario name must be non-empty")
        check_non_negative(self.servers_up, "servers_up")
        if int(self.servers_up) != self.servers_up:
            raise ValidationError(
                f"servers_up must be an integer, got {self.servers_up!r}"
            )
        check_positive(self.arrival_factor, "arrival_factor")
        check_probability(self.service_availability, "service_availability")
        check_positive(self.weight, "weight")


@dataclass(frozen=True)
class PolicyCell:
    """One (policy, scenario) cell of a policy comparison."""

    policy: str
    scenario: str
    availability: float
    attempt_availability: float
    detail: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class PolicyRank:
    """Aggregate ranking entry for one policy."""

    policy: str
    mean_availability: float
    worst_availability: float
    worst_scenario: str


@dataclass(frozen=True)
class PolicyComparisonReport:
    """Ranked outcome of a policy-comparison campaign.

    ``ranking`` is sorted by weighted mean availability (descending,
    label-alphabetical ties), ``cells`` holds every (policy, scenario)
    evaluation in grid order.
    """

    cells: Tuple[PolicyCell, ...]
    ranking: Tuple[PolicyRank, ...]
    scenarios: Tuple[FarmFaultScenario, ...]

    @property
    def best(self) -> PolicyRank:
        """The top-ranked policy."""
        return self.ranking[0]

    def cell(self, policy: str, scenario: str) -> PolicyCell:
        """Look up one cell by policy label and scenario name."""
        for item in self.cells:
            if item.policy == policy and item.scenario == scenario:
                return item
        raise ValidationError(
            f"no cell for policy {policy!r} and scenario {scenario!r}"
        )


def evaluate_policy_cell(
    policy: ClientPolicy,
    scenario: FarmFaultScenario,
    arrival_rate: float,
    service_rate: float,
    capacity: int,
) -> PolicyCell:
    """Evaluate one client policy in one farm fault state.

    The farm in state *scenario* is an M/M/c/K with ``c =
    scenario.servers_up`` servers at ``arrival_rate *
    scenario.arrival_factor`` offered load (capacity is never shrunk
    below the server count).  Retry and circuit-breaker policies see the
    per-attempt availability ``(1 - pK) * service_availability``;
    timeout and hedge policies are evaluated over the full response-time
    distribution of that queue.
    """
    check_rate(arrival_rate, "arrival_rate")
    check_rate(service_rate, "service_rate")
    check_positive_int(capacity, "capacity")
    label = policy_label(policy)
    if scenario.servers_up <= 0:
        # Total outage: nothing any client policy can do.
        return PolicyCell(
            policy=label,
            scenario=scenario.name,
            availability=0.0,
            attempt_availability=0.0,
        )
    queue = MMCKQueue(
        arrival_rate=arrival_rate * scenario.arrival_factor,
        service_rate=service_rate,
        servers=int(scenario.servers_up),
        capacity=max(capacity, int(scenario.servers_up)),
    )
    blocking = queue.blocking_probability()
    attempt = (1.0 - blocking) * scenario.service_availability
    if isinstance(policy, RetryPolicy):
        outcome = session_outcome(attempt, policy)
        return PolicyCell(
            policy=label,
            scenario=scenario.name,
            availability=outcome.served,
            attempt_availability=attempt,
            detail=(
                ("abandoned", outcome.abandoned),
                ("exhausted", outcome.exhausted),
                ("expected_attempts", outcome.expected_attempts),
            ),
        )
    if isinstance(policy, CircuitBreakerPolicy):
        result = circuit_breaker_availability(attempt, policy)
        return PolicyCell(
            policy=label,
            scenario=scenario.name,
            availability=result.availability,
            attempt_availability=attempt,
            detail=(
                ("open", result.open_probability),
                ("half_open", result.half_open_probability),
                ("short_circuited", result.short_circuit_probability),
            ),
        )
    result = request_policy_availability(
        queue, policy, attempt_availability=scenario.service_availability
    )
    return PolicyCell(
        policy=label,
        scenario=scenario.name,
        availability=result.availability,
        attempt_availability=attempt,
        detail=(
            ("blocking", result.blocking_probability),
            ("timely", result.timely_probability),
            ("hedged", result.hedge_probability),
            ("effective_rate", result.effective_arrival_rate),
        ),
    )


def _evaluate_grid_cell(
    cell: Tuple[ClientPolicy, FarmFaultScenario],
    arrival_rate: float,
    service_rate: float,
    capacity: int,
) -> PolicyCell:
    """:func:`evaluate_policy_cell` over one ``(policy, scenario)`` item."""
    policy, scenario = cell
    return evaluate_policy_cell(
        policy, scenario, arrival_rate, service_rate, capacity
    )


def _rank(
    cells: Sequence[PolicyCell],
    scenarios: Sequence[FarmFaultScenario],
) -> Tuple[PolicyRank, ...]:
    weights = {s.name: s.weight for s in scenarios}
    total_weight = sum(weights.values())
    by_policy: Dict[str, list] = {}
    for cell in cells:
        by_policy.setdefault(cell.policy, []).append(cell)
    ranking = []
    for label, items in by_policy.items():
        mean = sum(
            weights[c.scenario] * c.availability for c in items
        ) / total_weight
        worst = min(items, key=lambda c: (c.availability, c.scenario))
        ranking.append(PolicyRank(
            policy=label,
            mean_availability=mean,
            worst_availability=worst.availability,
            worst_scenario=worst.scenario,
        ))
    ranking.sort(key=lambda r: (-r.mean_availability, r.policy))
    return tuple(ranking)


def compare_client_policies(
    policies: Sequence[ClientPolicy],
    scenarios: Sequence[FarmFaultScenario],
    arrival_rate: float,
    service_rate: float,
    capacity: int,
    engine=None,
) -> PolicyComparisonReport:
    """Run the policy x fault-scenario comparison grid.

    Every (policy, scenario) cell becomes one keyed item of an
    :meth:`repro.engine.EvaluationEngine.map` batch, so the grid flows
    through the same cache/parallel/observability machinery as the
    Fig. 11/12 sweeps: a process-pool engine evaluates cells in parallel
    with bit-identical results, a warm :class:`~repro.engine.MemoCache`
    skips unchanged cells, and engine metrics/traces cover the run.

    Parameters
    ----------
    policies:
        Any mix of :class:`~repro.resilience.RetryPolicy`,
        :class:`CircuitBreakerPolicy`, :class:`TimeoutPolicy` and
        :class:`HedgePolicy` (at least one; duplicate labels rejected).
    scenarios:
        The farm fault states to evaluate under (at least one; duplicate
        names rejected).
    arrival_rate / service_rate / capacity:
        The nominal farm: offered request rate, per-server service rate
        and total buffer capacity (scenarios scale the rate and set the
        operational server count).
    engine:
        Optional :class:`repro.engine.EvaluationEngine`; defaults to a
        serial engine with an in-memory cache.

    Examples
    --------
    >>> from repro.resilience import RetryPolicy
    >>> report = compare_client_policies(
    ...     [RetryPolicy(max_retries=2), TimeoutPolicy(0.05)],
    ...     [FarmFaultScenario("nominal", servers_up=4)],
    ...     arrival_rate=100.0, service_rate=100.0, capacity=10)
    >>> report.best.policy
    'retry(k=2, p=1)'
    """
    if not policies:
        raise ValidationError("compare_client_policies needs >= 1 policy")
    if not scenarios:
        raise ValidationError("compare_client_policies needs >= 1 scenario")
    labels = [policy_label(p) for p in policies]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate policy labels: {labels}")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate scenario names: {names}")
    check_rate(arrival_rate, "arrival_rate")
    check_rate(service_rate, "service_rate")
    check_positive_int(capacity, "capacity")

    from ..engine import EvaluationEngine, canonical_key

    if engine is None:
        engine = EvaluationEngine()
    farm = dict(
        arrival_rate=float(arrival_rate),
        service_rate=float(service_rate),
        capacity=int(capacity),
    )
    grid = [(policy, scenario) for policy in policies
            for scenario in scenarios]
    # A cell's key covers the nominal farm plus a pickle digest of the
    # policy and scenario dataclasses, so a warm cache skips every
    # unchanged cell when only part of the grid moves.
    keys = [
        canonical_key(
            "client-policy-cell", **farm,
            content=pickle.dumps(cell, protocol=4),
        )
        for cell in grid
    ]
    cells = engine.map(
        functools.partial(_evaluate_grid_cell, **farm), grid, keys=keys,
        phase="policy-comparison",
    ).outputs
    return PolicyComparisonReport(
        cells=cells,
        ranking=_rank(cells, scenarios),
        scenarios=tuple(scenarios),
    )
