"""Service-function chains: user-perceived availability on the cloud.

The paper composes user-perceived availability through a four-level
hierarchy (user -> function -> service -> resource).  On the cloud
deployment the resource layer is the Bayesian network of
:mod:`repro.bayes.cloud`, and the function -> service mapping becomes a
*service-function chain*: the ordered set of services a function's
request traverses (ingress, web tier, data tier, external suppliers).
A function is available when every service on its chain is up — a joint
inference query, NOT a product of marginals, because chains share
common-cause zone nodes.

:class:`CloudTravelAgency` recasts the paper's Table 6 functions onto a
multi-zone deployment: the web tier is the autoscaling M/M/c/K farm,
the database a quorum replica set spread round-robin over the zones,
and the flight/hotel/car reservation systems external 1-out-of-n sets.
User-level results reuse the core
:class:`~repro.core.model.UserLevelResult` dataclasses, so Table 8
style reporting works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .._validation import (
    check_positive,
    check_positive_int,
    check_probability,
)
from ..core.model import UserLevelResult
from ..errors import ValidationError
from ..ta.userclasses import BOOK, BROWSE, HOME, PAY, SEARCH
from .cloud import CloudModelBuilder
from .network import BayesianNetwork

__all__ = [
    "CLOUD_CHAINS",
    "CloudDeployment",
    "CloudTravelAgency",
    "ServiceFunctionChain",
    "chain_availability",
    "chain_user_availability",
]


@dataclass(frozen=True)
class ServiceFunctionChain:
    """The services one user-visible function traverses."""

    name: str
    services: Tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise ValidationError("chain name must be non-empty")
        if not self.services:
            raise ValidationError(
                f"chain {self.name!r} must traverse at least one service"
            )
        if len(set(self.services)) != len(self.services):
            raise ValidationError(
                f"chain {self.name!r} lists a duplicate service: "
                f"{list(self.services)}"
            )


def chain_availability(
    network: BayesianNetwork, chain: ServiceFunctionChain
) -> float:
    """Probability that every service on *chain* is simultaneously up."""
    return network.probability_all_up(chain.services)


def chain_user_availability(
    network: BayesianNetwork,
    chains: Mapping[str, ServiceFunctionChain],
    user_class,
) -> UserLevelResult:
    """Eq.-(10) user-perceived availability over service chains.

    For each scenario of *user_class*, the visited functions' chains
    are merged into one service set and evaluated as a single joint
    query — shared zones and services are counted once, with their
    common-cause correlation intact — then weighted by the scenario's
    activation probability.
    """

    def availability(scenario) -> float:
        services = set()
        for function in sorted(scenario.functions):
            if function not in chains:
                raise ValidationError(
                    f"no service chain for function {function!r}; chains "
                    f"cover {sorted(chains)}"
                )
            services.update(chains[function].services)
        return network.probability_all_up(tuple(sorted(services)))

    return UserLevelResult.class_sum(user_class, availability)


@dataclass(frozen=True)
class CloudDeployment:
    """Parameters of the cloud Travel Agency deployment.

    Defaults give a three-zone deployment with a 2-of-3 database
    quorum, sized so the nominal farm matches the paper's NW = 4..6
    regime (rates per hour for failures/repairs, per second for
    traffic, as in the paper).
    """

    zones: int = 3
    zone_availability: float = 0.9995
    web_servers_per_zone: int = 2
    arrival_rate: float = 100.0
    service_rate: float = 100.0
    buffer_capacity: int = 10
    web_failure_rate: float = 1e-4
    web_repair_rate: float = 1.0
    db_replicas: int = 3
    db_quorum: int = 2
    db_replica_availability: float = 0.9999
    reservation_systems: int = 2
    reservation_availability: float = 0.99925
    payment_availability: float = 0.9998
    internet_availability: float = 0.99962

    def __post_init__(self):
        check_positive_int(self.zones, "zones")
        check_probability(self.zone_availability, "zone_availability")
        check_positive_int(self.web_servers_per_zone, "web_servers_per_zone")
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.service_rate, "service_rate")
        check_positive_int(self.buffer_capacity, "buffer_capacity")
        check_positive(self.web_failure_rate, "web_failure_rate")
        check_positive(self.web_repair_rate, "web_repair_rate")
        check_positive_int(self.db_replicas, "db_replicas")
        check_positive_int(self.db_quorum, "db_quorum")
        if self.db_quorum > self.db_replicas:
            raise ValidationError(
                f"db_quorum must be in 1..{self.db_replicas} (db_replicas), "
                f"got {self.db_quorum}"
            )
        check_positive_int(self.reservation_systems, "reservation_systems")
        check_probability(
            self.db_replica_availability, "db_replica_availability"
        )
        check_probability(
            self.reservation_availability, "reservation_availability"
        )
        check_probability(self.payment_availability, "payment_availability")
        check_probability(self.internet_availability, "internet_availability")


#: The Table 6 function -> service-chain mapping on the cloud deployment.
CLOUD_CHAINS: Dict[str, ServiceFunctionChain] = {
    HOME: ServiceFunctionChain(HOME, ("internet", "web")),
    BROWSE: ServiceFunctionChain(BROWSE, ("internet", "web", "db")),
    SEARCH: ServiceFunctionChain(
        SEARCH, ("internet", "web", "db", "flight", "hotel", "car")
    ),
    BOOK: ServiceFunctionChain(
        BOOK, ("internet", "web", "db", "flight", "hotel", "car")
    ),
    PAY: ServiceFunctionChain(PAY, ("internet", "web", "db", "payment")),
}


class CloudTravelAgency:
    """The paper's Travel Agency recast on a multi-zone cloud.

    Zones are common-cause roots; ``web`` is the autoscaling M/M/c/K
    farm over all zones; ``db`` is a ``db_quorum``-of-``db_replicas``
    set placed round-robin across the zones; ``flight``/``hotel``/
    ``car`` are external 1-out-of-n reservation systems; ``payment``
    and ``internet`` are independent services.  The five Table 6
    functions map onto :data:`CLOUD_CHAINS`.
    """

    def __init__(self, deployment: CloudDeployment = CloudDeployment()):
        self.deployment = deployment
        builder = CloudModelBuilder()
        zones = [
            builder.add_zone(f"zone-{i + 1}", deployment.zone_availability)
            for i in range(deployment.zones)
        ]
        builder.add_farm(
            "web",
            zones,
            deployment.web_servers_per_zone,
            arrival_rate=deployment.arrival_rate,
            service_rate=deployment.service_rate,
            buffer_capacity=deployment.buffer_capacity,
            failure_rate=deployment.web_failure_rate,
            repair_rate=deployment.web_repair_rate,
        )
        builder.add_replica_set(
            "db",
            [zones[i % len(zones)] for i in range(deployment.db_replicas)],
            quorum=deployment.db_quorum,
            replica_availability=deployment.db_replica_availability,
        )
        for supplier in ("flight", "hotel", "car"):
            builder.add_replica_set(
                supplier,
                [None] * deployment.reservation_systems,
                quorum=1,
                replica_availability=deployment.reservation_availability,
            )
        builder.add_service("payment", deployment.payment_availability)
        builder.add_service("internet", deployment.internet_availability)
        self._network = builder.build()

    @property
    def network(self) -> BayesianNetwork:
        return self._network

    @property
    def chains(self) -> Dict[str, ServiceFunctionChain]:
        return dict(CLOUD_CHAINS)

    def function_availability(self, function: str) -> float:
        """Availability of one Table 6 function's service chain."""
        if function not in CLOUD_CHAINS:
            raise ValidationError(
                f"unknown function {function!r}; functions: "
                f"{sorted(CLOUD_CHAINS)}"
            )
        return chain_availability(self._network, CLOUD_CHAINS[function])

    def user_availability(self, user_class) -> UserLevelResult:
        """Eq.-(10) user-perceived availability for *user_class*."""
        return chain_user_availability(
            self._network, CLOUD_CHAINS, user_class
        )

    def web_availability(self) -> float:
        """Marginal of the autoscaling farm node."""
        return self._network.marginal("web")

    def db_availability(self) -> float:
        """Marginal of the database quorum node."""
        return self._network.marginal("db")
