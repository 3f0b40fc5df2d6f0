"""Composite performance-availability model of the web service.

This is the heart of the paper's "user-perceived" measure: the web
service is considered *available* to a request only when (a) the farm is
in an operational state, and (b) the request is not rejected because the
shared input buffer is full.  Following the composite approach of Meyer
(paper refs. [18, 19]), a pure availability model (the coverage CTMCs of
Figs. 9/10) supplies state probabilities, and a pure performance model
(the M/M/i/K queue of eq. 3) supplies the per-state request-loss
probability; combining them yields eqs. (2), (5) and (9)::

    A(Web service) = 1 - [ sum_i Pi_i pK(i)  +  sum_i Pi_{y_i}  +  Pi_0 ]

The quasi-steady-state decomposition is valid because failure/repair
rates (per hour) are many orders of magnitude below request rates (per
second) — the regime checked by :meth:`WebServiceModel.timescale_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .._validation import (
    check_positive_int,
    check_probability,
    check_rate,
)
from ..errors import ValidationError
from ..queueing.mmck import mmck_blocking_probability
from .coverage import ImperfectCoverageFarm, PerfectCoverageFarm

__all__ = ["WebServiceModel", "WebServiceLossBreakdown"]


@dataclass(frozen=True)
class WebServiceLossBreakdown:
    """Decomposition of web-service unavailability by cause.

    Attributes
    ----------
    buffer_full:
        Probability a request is lost to a full buffer while the farm is
        (partially) operational — the *performance failure* share.
    all_servers_down:
        Probability mass of the all-down state ``Pi_0``.
    manual_reconfiguration:
        Probability mass of the uncovered-failure states ``y_i`` (zero
        under perfect coverage).
    """

    buffer_full: float
    all_servers_down: float
    manual_reconfiguration: float

    @property
    def total_unavailability(self) -> float:
        """Total probability a request is not served."""
        return self.buffer_full + self.all_servers_down + self.manual_reconfiguration

    @property
    def availability(self) -> float:
        """Complement of the total unavailability.

        At extreme loads the three losses can sum a rounding step past 1;
        the complement is then 0, never a negative probability.
        """
        return max(0.0, 1.0 - self.total_unavailability)


class WebServiceModel:
    """Web-service availability combining failures and buffer overflows.

    Parameters
    ----------
    servers:
        Number of web servers ``NW`` (1 = the paper's basic architecture).
    arrival_rate:
        Request arrival rate ``alpha`` (e.g. requests per second).
    service_rate:
        Per-server request service rate ``nu`` (same unit as *alpha*).
    buffer_capacity:
        Shared input-buffer capacity ``K`` (total requests in system).
    failure_rate:
        Per-server failure rate ``lambda`` (e.g. per hour).
    repair_rate:
        Shared repair rate ``mu`` (same unit as *failure_rate*).
    coverage:
        Failure-coverage probability ``c``; ``None`` or ``1.0`` selects
        the perfect-coverage model of Fig. 9.
    reconfiguration_rate:
        Manual reconfiguration rate ``beta``; required when coverage is
        imperfect.

    Notes
    -----
    The availability-model rates (*failure_rate*, *repair_rate*,
    *reconfiguration_rate*) must share one time unit and the
    performance-model rates (*arrival_rate*, *service_rate*) another;
    the two groups never mix because the composite combination only uses
    dimensionless probabilities from each side.

    Examples
    --------
    The configuration quoted in the paper's Table 7 footnote:

    >>> model = WebServiceModel(servers=4, arrival_rate=100.0,
    ...                         service_rate=100.0, buffer_capacity=10,
    ...                         failure_rate=1e-4, repair_rate=1.0,
    ...                         coverage=0.98, reconfiguration_rate=12.0)
    >>> round(model.availability(), 9)
    0.999995587
    """

    def __init__(
        self,
        servers: int,
        arrival_rate: float,
        service_rate: float,
        buffer_capacity: int,
        failure_rate: float,
        repair_rate: float,
        coverage: Optional[float] = None,
        reconfiguration_rate: Optional[float] = None,
    ):
        self.servers = check_positive_int(servers, "servers")
        self.arrival_rate = check_rate(arrival_rate, "arrival_rate")
        self.service_rate = check_rate(service_rate, "service_rate")
        self.buffer_capacity = check_positive_int(buffer_capacity, "buffer_capacity")
        if self.buffer_capacity < self.servers:
            raise ValidationError(
                f"buffer_capacity ({buffer_capacity}) must be >= servers "
                f"({servers}): the M/M/i/K model counts requests in service"
            )
        self.failure_rate = check_rate(failure_rate, "failure_rate")
        self.repair_rate = check_rate(repair_rate, "repair_rate")
        if coverage is None:
            coverage = 1.0
        self.coverage = check_probability(coverage, "coverage")
        if self.coverage < 1.0:
            if reconfiguration_rate is None:
                raise ValidationError(
                    "reconfiguration_rate is required when coverage < 1"
                )
            self.reconfiguration_rate: Optional[float] = check_rate(
                reconfiguration_rate, "reconfiguration_rate"
            )
        else:
            self.reconfiguration_rate = (
                None
                if reconfiguration_rate is None
                else check_rate(reconfiguration_rate, "reconfiguration_rate")
            )

    # ------------------------------------------------------------------
    @property
    def offered_load(self) -> float:
        """System load ``alpha / nu`` in units of one server's capacity."""
        return self.arrival_rate / self.service_rate

    @property
    def has_perfect_coverage(self) -> bool:
        """True when the Fig. 9 (perfect coverage) model applies."""
        return self.coverage >= 1.0

    def timescale_ratio(self) -> float:
        """Ratio of failure/repair to arrival/service timescales.

        The composite decomposition assumes this is << 1 (the farm
        reaches queueing equilibrium between failure events).  The value
        is computed as ``max(lambda, mu, beta) / min(alpha, nu)`` and is
        meaningful only when all rates are expressed in the *same* unit;
        callers using mixed units (per-hour failures, per-second
        requests) should convert before interpreting it.
        """
        slow = max(
            self.failure_rate,
            self.repair_rate,
            self.reconfiguration_rate or 0.0,
        )
        fast = min(self.arrival_rate, self.service_rate)
        return slow / fast

    # ------------------------------------------------------------------
    def farm(self):
        """The availability model: a perfect- or imperfect-coverage farm."""
        if self.has_perfect_coverage:
            return PerfectCoverageFarm(
                servers=self.servers,
                failure_rate=self.failure_rate,
                repair_rate=self.repair_rate,
            )
        return ImperfectCoverageFarm(
            servers=self.servers,
            failure_rate=self.failure_rate,
            repair_rate=self.repair_rate,
            coverage=self.coverage,
            reconfiguration_rate=self.reconfiguration_rate,
        )

    def blocking_probability(self, operational_servers: int) -> float:
        """``pK(i)``: request-loss probability with *i* servers up (eq. 3)."""
        operational_servers = check_positive_int(
            operational_servers, "operational_servers"
        )
        return mmck_blocking_probability(
            self.offered_load, operational_servers, self.buffer_capacity
        )

    def loss_breakdown(self) -> WebServiceLossBreakdown:
        """Unavailability decomposed by cause (buffer, all-down, reconfig)."""
        farm = self.farm()
        if self.has_perfect_coverage:
            operational = farm.state_probabilities()
            down: Dict[int, float] = {}
        else:
            operational, down = farm.state_probabilities()
        buffer_loss = sum(
            operational[i] * self.blocking_probability(i)
            for i in range(1, self.servers + 1)
        )
        return WebServiceLossBreakdown(
            buffer_full=buffer_loss,
            all_servers_down=operational[0],
            manual_reconfiguration=sum(down.values()),
        )

    def availability(self) -> float:
        """Web-service availability (paper eqs. 2, 5 or 9, as applicable)."""
        return self.loss_breakdown().availability

    def unavailability(self) -> float:
        """Complement of :meth:`availability`."""
        return self.loss_breakdown().total_unavailability

    def transient_availability(self, time: float, initial_servers: Optional[int] = None) -> float:
        """Point-in-time web-service availability (eq. 5/9 at time *t*).

        The quasi-steady-state decomposition still applies instant by
        instant: the farm's *transient* state distribution at *time*
        weights the per-state served fraction ``1 - pK(i)``.  Useful for
        availability ramps — e.g. how quickly the measure recovers after
        bringing a farm up with only one server operational.

        Parameters
        ----------
        time:
            Elapsed time in the availability-model unit (hours in the
            paper's parameterization).
        initial_servers:
            Number of operational servers at time zero; defaults to the
            full farm.
        """
        from .._validation import check_non_negative

        time = check_non_negative(time, "time")
        if initial_servers is None:
            initial_servers = self.servers
        from .._validation import check_non_negative_int

        initial_servers = check_non_negative_int(
            initial_servers, "initial_servers"
        )
        if initial_servers > self.servers:
            raise ValidationError(
                f"initial_servers ({initial_servers}) cannot exceed the farm "
                f"size ({self.servers})"
            )
        reward = self.reward_model()
        return reward.expected_reward_at({initial_servers: 1.0}, time)

    # ------------------------------------------------------------------
    # Response-time extension (the paper's stated future work)
    # ------------------------------------------------------------------
    def late_probability(self, operational_servers: int, deadline: float) -> float:
        """``P(accepted request finishes after *deadline* | i servers up)``.

        The deadline is expressed in the performance-model time unit
        (seconds in the paper's parameterization).
        """
        from ..queueing.mmck import MMCKQueue
        from ..queueing.responsetime import response_time_survival

        operational_servers = check_positive_int(
            operational_servers, "operational_servers"
        )
        queue = MMCKQueue(
            arrival_rate=self.arrival_rate,
            service_rate=self.service_rate,
            servers=operational_servers,
            capacity=self.buffer_capacity,
        )
        return response_time_survival(queue, deadline)

    def deadline_availability(self, deadline: float) -> float:
        """Availability counting late responses as failures.

        The paper's conclusion proposes extending the measure so a
        request also fails when *"the response time exceeds an
        acceptable threshold"*.  Formally, the per-state reward becomes
        ``(1 - pK(i)) * P(T <= deadline | accepted, i servers)`` and the
        measure is its steady-state expectation::

            A_d = sum_i Pi_i (1 - pK(i)) (1 - P(T > d | i))

        ``deadline_availability(inf)`` equals :meth:`availability`.
        """
        from .._validation import check_positive

        deadline = check_positive(deadline, "deadline") if deadline != float(
            "inf"
        ) else deadline
        farm = self.farm()
        if self.has_perfect_coverage:
            operational = farm.state_probabilities()
        else:
            operational, _down = farm.state_probabilities()
        total = 0.0
        for i in range(1, self.servers + 1):
            served = 1.0 - self.blocking_probability(i)
            if served <= 0.0:
                continue
            if deadline == float("inf"):
                timely = 1.0
            else:
                timely = 1.0 - self.late_probability(i, deadline)
            total += operational[i] * served * timely
        return total

    def reward_model(self):
        """The equivalent Markov reward model.

        States of the farm CTMC earn reward ``1 - pK(i)`` when ``i``
        servers are operational and 0 in down states; the steady-state
        expected reward equals :meth:`availability`.  Exposed so that the
        generic reward machinery (interval availability, transient
        analysis) can be applied to the web service.
        """
        from ..markov import MarkovRewardModel

        chain = self.farm().to_ctmc()

        def reward(state) -> float:
            if isinstance(state, int) and state >= 1:
                return 1.0 - self.blocking_probability(state)
            return 0.0

        return MarkovRewardModel(chain, reward)

    def __repr__(self) -> str:
        coverage = "perfect" if self.has_perfect_coverage else f"c={self.coverage}"
        return (
            f"WebServiceModel(servers={self.servers}, load={self.offered_load:.3g}, "
            f"K={self.buffer_capacity}, {coverage})"
        )
