"""Response-time distributions for the M/M/c/K queue.

The paper's conclusion names the natural extension of its composite
measure: also count a request as failed when *"the response time exceeds
an acceptable threshold"*.  That requires the sojourn-time distribution
of an accepted request in an M/M/c/K FCFS queue, derived here in closed
form:

An accepted request arriving when ``n`` requests are present
(``n = 0 .. K-1``, PASTA gives the arrival-state distribution
``pi_n / (1 - pK)``) experiences:

* ``n < c``: no waiting; the response time is one exponential service,
  ``T ~ Exp(mu)``.
* ``n >= c``: it must wait for ``m = n - c + 1`` departures, each
  ``Exp(c mu)``, then be served: ``T ~ Erlang(m, c mu) + Exp(mu)``
  (a hypoexponential).  For ``c = 1`` the sum collapses to
  ``Erlang(n + 1, mu)``.

Survival functions use the regularized incomplete gamma function, so the
results are exact to machine precision — no simulation or truncation.

:class:`ResponseTime` compiles one loaded queue: it solves the state
distribution once, keeps the accepted-arrival weights
``pi_n / (1 - pK)`` with ``c`` and ``mu``, and precomputes the
``t``-independent factors of each queued state's term (the stage counts
and the hypoexponential's ``ratio**m``).  Each survival evaluation is
then one array call of :func:`scipy.special.gammaincc` for the Erlang
and hypoexponential tails of every queued state, followed by the
weighted sum in arrival-state order.  The float expressions and the
summation order are those of the scalar :func:`erlang_survival` /
:func:`hypoexponential_survival` terms, so the results are the same to
the bit (``tests/queueing/test_library_identity.py`` pins the scalar
and array incomplete-gamma calls against each other).  The powers stay
Python ``float ** int``: NumPy's ``power`` does not round the same way.
:func:`response_time_survival`, :func:`waiting_time_survival`,
:func:`mean_conditional_response_time` and
:func:`response_time_quantile` are thin wrappers over it.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_non_negative, check_positive_int, check_rate
from ..errors import SolverError, ValidationError
from .mmck import MMCKQueue

__all__ = [
    "ResponseTime",
    "erlang_survival",
    "erlang_cdf",
    "hypoexponential_survival",
    "response_time_survival",
    "waiting_time_survival",
    "mean_conditional_response_time",
    "response_time_quantile",
]


def erlang_survival(stages: int, rate: float, t: float) -> float:
    """``P(Erlang(stages, rate) > t)``.

    Examples
    --------
    >>> round(erlang_survival(1, 2.0, 0.5), 6)   # = exp(-1)
    0.367879
    """
    stages = check_positive_int(stages, "stages")
    rate = check_rate(rate, "rate")
    t = check_non_negative(t, "t")
    if t == 0.0:
        return 1.0
    from scipy.special import gammaincc

    return float(gammaincc(stages, rate * t))


def erlang_cdf(stages: int, rate: float, t: float) -> float:
    """``P(Erlang(stages, rate) <= t)``."""
    return 1.0 - erlang_survival(stages, rate, t)


def hypoexponential_survival(
    stages: int, stage_rate: float, final_rate: float, t: float
) -> float:
    """``P(Erlang(stages, stage_rate) + Exp(final_rate) > t)``.

    The waiting-plus-service time of a queued request: *stages*
    departures at ``stage_rate = c mu`` followed by its own service at
    ``final_rate = mu``.  Requires ``stage_rate != final_rate`` (the
    equal-rate case is a plain Erlang and should use
    :func:`erlang_survival` with ``stages + 1`` stages).
    """
    stages = check_positive_int(stages, "stages")
    stage_rate = check_rate(stage_rate, "stage_rate")
    final_rate = check_rate(final_rate, "final_rate")
    t = check_non_negative(t, "t")
    if t == 0.0:
        return 1.0
    if stage_rate == final_rate:
        return erlang_survival(stages + 1, stage_rate, t)
    # P(X + S > t) = P(X > t) + int_0^t f_X(u) exp(-final (t-u)) du; the
    # integral reduces to a scaled Erlang CDF with rate (stage - final).
    ratio = stage_rate / (stage_rate - final_rate)
    tail = erlang_survival(stages, stage_rate, t)
    if stage_rate > final_rate:
        inner = erlang_cdf(stages, stage_rate - final_rate, t)
        late_service = math.exp(-final_rate * t) * ratio**stages * inner
    else:
        # final_rate > stage_rate: keep everything positive by swapping
        # the roles (the hypoexponential is symmetric in its stages).
        # Erlang(m, a) + Exp(b) has survival computable by conditioning
        # on the exponential instead.
        return _hypoexp_survival_by_stages(stages, stage_rate, final_rate, t)
    return min(1.0, tail + late_service)


def _hypoexp_survival_by_stages(
    stages: int, stage_rate: float, final_rate: float, t: float
) -> float:
    """Survival via the phase-type forward equations (stable fallback).

    Used when ``final_rate > stage_rate`` where the closed form above
    involves cancelling terms.  The phase process is a pure-birth chain
    through ``stages`` stages at *stage_rate* plus one stage at
    *final_rate*; the survival function is the probability of not yet
    having left the last stage, computed by uniformization on a
    bidiagonal generator — exact to the series tolerance.
    """
    import numpy as np

    from ..markov.transient import uniformization

    n = stages + 1
    q = np.zeros((n + 1, n + 1))
    for i in range(stages):
        q[i, i + 1] = stage_rate
        q[i, i] = -stage_rate
    q[stages, stages + 1] = final_rate
    q[stages, stages] = -final_rate
    p0 = np.zeros(n + 1)
    p0[0] = 1.0
    dist = uniformization(q, p0, t, tol=1e-14)
    return float(1.0 - dist[-1])


class ResponseTime:
    """The accepted-request sojourn-time law of one M/M/c/K queue.

    Built once per loaded queue, then evaluated at as many ``t`` as a
    caller needs; see the module docstring for what is compiled.
    Raises :class:`ValidationError` when the queue accepts no requests
    (``pK = 1``).

    Examples
    --------
    >>> law = ResponseTime(MMCKQueue(arrival_rate=50.0, service_rate=100.0,
    ...                              servers=2, capacity=6))
    >>> law.survival(0.0)
    1.0
    >>> law.waiting(0.01) < law.survival(0.01)
    True
    """

    def __init__(self, queue: MMCKQueue):
        dist = queue.state_distribution()
        accepted = 1.0 - float(dist[-1])
        if accepted <= 0.0:
            raise ValidationError("the queue accepts no requests (pK = 1)")
        c, mu = queue.servers, queue.service_rate
        queued = queue.capacity - c
        self.servers = c
        self.service_rate = mu
        #: Arrival-state weights ``pi_n / (1 - pK)``, ``n = 0 .. K-1``.
        self.weights = [p / accepted for p in dist[:-1].tolist()]
        #: Waiting stages ``m = n - c + 1`` of the queued states ``n >= c``,
        #: each an ``Exp(c mu)`` departure.
        self._stages = np.arange(1, queued + 1)
        self._stage_rate = c * mu
        if queued:
            check_rate(self._stage_rate, "stage_rate")
        if c == 1:
            # The wait and the service merge into Erlang(n + 1, mu).
            self._merged_stages = self._stages + 1
        else:
            # Erlang(m, c mu) + Exp(mu): the closed form of
            # hypoexponential_survival with stage_rate > final_rate.
            self._gap = self._stage_rate - mu
            ratio = self._stage_rate / self._gap
            self._powers = [ratio**m for m in range(1, queued + 1)]

    def survival(self, t: float) -> float:
        """``P(T > t)``, waiting plus service: :func:`response_time_survival`."""
        t = check_non_negative(t, "t")
        if t == 0.0:
            return self._mix([1.0] * len(self.weights))
        from scipy.special import gammaincc

        mu = self.service_rate
        served = math.exp(-mu * t)  # no wait: one Exp(mu) service
        if self.servers == 1:
            queued = gammaincc(self._merged_stages, mu * t).tolist()
        else:
            tails, rests = gammaincc(
                self._stages, [[self._stage_rate * t], [self._gap * t]]
            ).tolist()
            queued = [
                min(1.0, tail + served * power * (1.0 - rest))
                for tail, power, rest in zip(tails, self._powers, rests)
            ]
        return self._mix([served] * self.servers + queued)

    def waiting(self, t: float) -> float:
        """``P(W > t)``: :func:`waiting_time_survival`."""
        t = check_non_negative(t, "t")
        idle = [0.0] * self.servers  # W = 0 exactly (atom at zero)
        if t == 0.0:
            return self._mix(idle + [1.0] * len(self._stages))
        from scipy.special import gammaincc

        tails = gammaincc(self._stages, self._stage_rate * t)
        return self._mix(idle + tails.tolist())

    def mean(self) -> float:
        """``E[T]``: :func:`mean_conditional_response_time`."""
        c, mu = self.servers, self.service_rate
        total = 0.0
        for n, weight in enumerate(self.weights):
            wait_stages = max(0, n - c + 1)
            total += weight * (wait_stages / (c * mu) + 1.0 / mu)
        return total

    def quantile(self, probability: float) -> float:
        """The *probability*-quantile of ``T``: :func:`response_time_quantile`."""
        if not isinstance(probability, (int, float)) or isinstance(
            probability, bool
        ):
            raise ValidationError(
                f"probability must be a number in (0, 1), got {probability!r}"
            )
        probability = float(probability)
        if math.isnan(probability) or not 0.0 < probability < 1.0:
            raise ValidationError(
                "probability must be strictly inside the open interval "
                f"(0, 1), got {probability!r}"
            )
        target = 1.0 - probability

        def objective(t: float) -> float:
            return self.survival(t) - target

        # Bracket: the mean times a growing factor bounds any quantile.
        upper = self.mean()
        for _ in range(200):
            if objective(upper) < 0:
                break
            upper *= 2.0
        else:
            raise SolverError("failed to bracket the response-time quantile")
        from scipy.optimize import brentq

        return float(brentq(objective, 0.0, upper, xtol=1e-12))

    def _mix(self, survivals) -> float:
        """The arrival-state mixture, summed in state order."""
        total = 0.0
        for weight, survival in zip(self.weights, survivals):
            total += weight * survival
        return min(1.0, total)


def waiting_time_survival(queue: MMCKQueue, t: float) -> float:
    """``P(W > t)`` for an *accepted* request (FCFS).

    ``W`` is the queueing delay before service starts; requests finding a
    free server have ``W = 0``.

    Examples
    --------
    >>> q = MMCKQueue(arrival_rate=50.0, service_rate=100.0, servers=1,
    ...               capacity=10)
    >>> waiting_time_survival(q, 0.0) < 0.5   # most arrivals find it idle
    True
    """
    return ResponseTime(queue).waiting(t)


def response_time_survival(queue: MMCKQueue, t: float) -> float:
    """``P(T > t)`` for an accepted request: waiting plus service (FCFS).

    Examples
    --------
    An M/M/1/K at half load: the response time is longer-tailed than a
    bare service time.

    >>> q = MMCKQueue(arrival_rate=50.0, service_rate=100.0, servers=1,
    ...               capacity=10)
    >>> import math
    >>> response_time_survival(q, 0.02) > math.exp(-100.0 * 0.02)
    True
    """
    return ResponseTime(queue).survival(t)


def mean_conditional_response_time(queue: MMCKQueue) -> float:
    """``E[T]`` of an accepted request; equals Little's-law ``W``.

    Provided as an independent cross-check of the distributional code:
    the mean of the arrival-state mixture must equal
    ``L / lambda_eff``.
    """
    return ResponseTime(queue).mean()


def response_time_quantile(queue: MMCKQueue, probability: float) -> float:
    """The *probability*-quantile of an accepted request's response time.

    E.g. ``response_time_quantile(q, 0.99)`` is the 99th-percentile
    latency — the quantity SLOs are written against.  *probability* must
    lie strictly inside (0, 1): the response time of an accepted request
    has unbounded support, so the 0- and 1-quantiles are degenerate.
    """
    return ResponseTime(queue).quantile(probability)
