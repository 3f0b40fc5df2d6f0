"""Queueing-theory substrate: birth-death queues and their metrics.

The paper models each web server's request handling as an M/M/1/K queue
(eq. 1) and the load-balanced server farm as an M/M/i/K queue (eq. 3);
the blocking probability ``pK`` — the chance an arriving request is
dropped because the input buffer is full — is the "performance failure"
ingredient of the composite availability measure.

This subpackage implements those models plus the standard neighbouring
ones (M/M/1, M/M/c, Erlang B/C), all validated against each other and
against a general finite birth-death solver.
"""

from .metrics import QueueMetrics
from .birthdeath import birth_death_distribution
from .mm1 import MM1Queue
from .mm1k import MM1KQueue, mm1k_blocking_probability
from .mmc import MMCQueue
from .mmck import MMCKQueue, mmck_blocking_probability
from .erlang import erlang_b, erlang_c
from .mg1 import MG1Queue
from .mminf import MMInfQueue
from .responsetime import (
    erlang_survival,
    mean_conditional_response_time,
    response_time_quantile,
    response_time_survival,
    waiting_time_survival,
)

__all__ = [
    "MG1Queue",
    "MMInfQueue",
    "erlang_survival",
    "mean_conditional_response_time",
    "response_time_quantile",
    "response_time_survival",
    "waiting_time_survival",
    "QueueMetrics",
    "birth_death_distribution",
    "MM1Queue",
    "MM1KQueue",
    "mm1k_blocking_probability",
    "MMCQueue",
    "MMCKQueue",
    "mmck_blocking_probability",
    "erlang_b",
    "erlang_c",
]
