"""The M/M/c/K queue — the paper's redundant-architecture performance model.

Equation (3) of the paper gives the blocking probability of a farm of
``i`` load-balanced web servers with shared total capacity ``K``::

    pK(i) = [a^K / (i^(K-i) i!)] /
            [ sum_{j<i} a^j/j!  +  sum_{i<=j<=K} a^j / (i^(j-i) i!) ]

with offered load ``a = alpha / nu``.  For ``i = 1`` this reduces to the
M/M/1/K expression of eq. (1).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .._validation import check_positive_int, check_rate
from ..errors import ValidationError
from .birthdeath import _product_form
from .metrics import QueueMetrics
from .mm1k import mm1k_blocking_probability

__all__ = ["MMCKQueue", "mmck_blocking_probability"]


def mmck_blocking_probability(offered_load: float, servers: int, capacity: int) -> float:
    """Blocking probability of an M/M/c/K queue (paper eq. 3).

    Parameters
    ----------
    offered_load:
        ``a = alpha / nu`` where ``nu`` is the per-server service rate.
    servers:
        Number of parallel servers ``c >= 1``.
    capacity:
        Total system capacity ``K >= c``.

    Notes
    -----
    Computed with a left-to-right recurrence over the birth-death weights
    ``w_j``, renormalized by the running weight whenever it grows large —
    only the ratio ``w_K / sum_j w_j`` is ever needed, so rescaling both
    keeps the computation exact while preventing the ``a^j / j!`` terms
    from overflowing ``float`` for large farms (c = 500 is exercised by
    the regression suite).  The rescale limit shrinks with ``a`` so that
    one more step of the recurrence, which multiplies the weight by at
    most ``a``, cannot overflow to ``inf`` either.
    """
    a = check_rate(offered_load, "offered_load")
    servers = check_positive_int(servers, "servers")
    capacity = check_positive_int(capacity, "capacity")
    if capacity < servers:
        raise ValidationError(
            f"capacity ({capacity}) must be >= servers ({servers})"
        )
    if servers == 1:
        return mm1k_blocking_probability(a, capacity)
    # w_j = a^j / j!            for j < c   (all c servers not yet busy)
    # w_j = a^j / (c^(j-c) c!)  for j >= c  (queueing behind c busy servers)
    limit = min(1e250, sys.float_info.max / (2.0 * max(a, 1.0)))
    weight = 1.0
    total = 1.0
    for j in range(1, capacity + 1):
        divisor = j if j <= servers else servers
        weight *= a / divisor
        total += weight
        if weight > limit or total > limit:
            total /= weight
            weight = 1.0
    return float(weight / total)


class MMCKQueue:
    """Multi-server, finite-capacity Markovian queue.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate ``alpha``.
    service_rate:
        Per-server exponential service rate ``nu``.
    servers:
        Number of parallel servers ``c``.
    capacity:
        Total system capacity ``K >= c`` (in service + waiting).

    The four parameters are validated once, here, and are read-only
    afterwards: the state distribution is solved from them without a
    per-element check, so a later reassignment cannot slip an unchecked
    value into the solve (build a new queue instead).

    Examples
    --------
    >>> q = MMCKQueue(arrival_rate=100.0, service_rate=100.0, servers=4,
    ...               capacity=10)
    >>> q.blocking_probability() < 1e-4
    True
    """

    def __init__(
        self,
        arrival_rate: float,
        service_rate: float,
        servers: int,
        capacity: int,
    ):
        self._arrival_rate = check_rate(arrival_rate, "arrival_rate")
        self._service_rate = check_rate(service_rate, "service_rate")
        self._servers = check_positive_int(servers, "servers")
        self._capacity = check_positive_int(capacity, "capacity")
        if self._capacity < self._servers:
            raise ValidationError(
                f"capacity ({capacity}) must be >= servers ({servers})"
            )

    @property
    def arrival_rate(self) -> float:
        """Poisson arrival rate ``alpha``."""
        return self._arrival_rate

    @property
    def service_rate(self) -> float:
        """Per-server exponential service rate ``nu``."""
        return self._service_rate

    @property
    def servers(self) -> int:
        """Number of parallel servers ``c``."""
        return self._servers

    @property
    def capacity(self) -> int:
        """Total system capacity ``K``."""
        return self._capacity

    @property
    def offered_load(self) -> float:
        """``a = alpha / nu`` in units of one server's capacity."""
        return self.arrival_rate / self.service_rate

    def blocking_probability(self) -> float:
        """Probability an arriving request is lost (paper eq. 3)."""
        return mmck_blocking_probability(
            self.offered_load, self.servers, self.capacity
        )

    def state_distribution(self) -> np.ndarray:
        """Steady-state distribution over 0..K requests in system."""
        mu, c, k = self._service_rate, self._servers, self._capacity
        births = [self._arrival_rate] * k
        # State n + 1 drains at mu * min(n + 1, c).
        deaths = [mu * busy for busy in range(1, c + 1)] + [mu * c] * (k - c)
        return _product_form(births, deaths)

    def metrics(self) -> QueueMetrics:
        """Full steady-state metric set (via the state distribution)."""
        dist = self.state_distribution()
        n = np.arange(self.capacity + 1)
        blocking = float(dist[-1])
        effective = self.arrival_rate * (1.0 - blocking)
        l_system = float(n @ dist)
        busy_servers = float(np.minimum(n, self.servers) @ dist)
        l_queue = l_system - busy_servers
        w_system = l_system / effective if effective > 0 else float("inf")
        w_queue = l_queue / effective if effective > 0 else float("inf")
        return QueueMetrics(
            arrival_rate=self.arrival_rate,
            service_rate=self.service_rate,
            servers=self.servers,
            capacity=self.capacity,
            blocking_probability=blocking,
            utilization=min(
                1.0, effective / (self.servers * self.service_rate)
            ),
            mean_number_in_system=l_system,
            mean_number_in_queue=l_queue,
            mean_response_time=w_system,
            mean_waiting_time=w_queue,
            throughput=effective,
            state_distribution=tuple(dist.tolist()),
        )
