"""The M/M/1/K queue — the paper's basic-architecture performance model.

Equation (1) of the paper gives the probability that an arriving request
finds the web server's input buffer full::

    pK = rho^K (1 - rho) / (1 - rho^(K+1)),     rho = alpha / nu

where ``K`` is the total system capacity (requests in service plus
waiting), ``alpha`` the request arrival rate and ``nu`` the service rate.
At ``rho = 1`` the formula degenerates to ``1 / (K + 1)`` by continuity.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int, check_rate
from .birthdeath import birth_death_distribution
from .metrics import QueueMetrics

__all__ = ["MM1KQueue", "mm1k_blocking_probability"]


def mm1k_blocking_probability(rho: float, capacity: int) -> float:
    """Blocking probability of an M/M/1/K queue (paper eq. 1).

    Parameters
    ----------
    rho:
        Offered load ``alpha / nu`` (> 0; may exceed 1 — the queue is
        finite, so it remains stable).
    capacity:
        Total capacity ``K >= 1``.
    """
    rho = check_rate(rho, "rho")
    capacity = check_positive_int(capacity, "capacity")
    if abs(rho - 1.0) < 1e-12:
        return 1.0 / (capacity + 1)
    try:
        return float(
            rho**capacity * (1.0 - rho) / (1.0 - rho ** (capacity + 1))
        )
    except OverflowError:
        # rho > 1 with rho**K past the float range: divided through by
        # rho**(K+1), only powers of 1/rho < 1 remain.
        inverse = 1.0 / rho
        return float((1.0 - inverse) / (1.0 - inverse ** (capacity + 1)))


class MM1KQueue:
    """Single-server, finite-capacity Markovian queue.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate ``alpha``.
    service_rate:
        Exponential service rate ``nu``.
    capacity:
        Maximum number of requests in the system, ``K >= 1``.

    Examples
    --------
    The paper's web server: 100 requests/s arriving at a 100 requests/s
    server with a 10-slot buffer loses one request in eleven:

    >>> q = MM1KQueue(arrival_rate=100.0, service_rate=100.0, capacity=10)
    >>> round(q.blocking_probability(), 6)
    0.090909
    """

    def __init__(self, arrival_rate: float, service_rate: float, capacity: int):
        self.arrival_rate = check_rate(arrival_rate, "arrival_rate")
        self.service_rate = check_rate(service_rate, "service_rate")
        self.capacity = check_positive_int(capacity, "capacity")

    @property
    def offered_load(self) -> float:
        """``rho = alpha / nu`` (may exceed one)."""
        return self.arrival_rate / self.service_rate

    def blocking_probability(self) -> float:
        """Probability an arriving request is lost (paper eq. 1)."""
        return mm1k_blocking_probability(self.offered_load, self.capacity)

    def state_distribution(self) -> np.ndarray:
        """Steady-state distribution over 0..K requests in system."""
        births = [self.arrival_rate] * self.capacity
        deaths = [self.service_rate] * self.capacity
        return birth_death_distribution(births, deaths)

    def metrics(self) -> QueueMetrics:
        """Full steady-state metric set (via the state distribution)."""
        dist = self.state_distribution()
        n = np.arange(self.capacity + 1)
        blocking = float(dist[-1])
        effective = self.arrival_rate * (1.0 - blocking)
        l_system = float(n @ dist)
        busy = 1.0 - float(dist[0])
        l_queue = l_system - busy
        w_system = l_system / effective if effective > 0 else float("inf")
        w_queue = l_queue / effective if effective > 0 else float("inf")
        return QueueMetrics(
            arrival_rate=self.arrival_rate,
            service_rate=self.service_rate,
            servers=1,
            capacity=self.capacity,
            blocking_probability=blocking,
            utilization=min(1.0, effective / self.service_rate),
            mean_number_in_system=l_system,
            mean_number_in_queue=l_queue,
            mean_response_time=w_system,
            mean_waiting_time=w_queue,
            throughput=effective,
            state_distribution=tuple(dist.tolist()),
        )
