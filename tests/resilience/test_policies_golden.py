"""Golden values for the client-policy comparison, pinned bit for bit.

Every cell of the ``repro policies`` grid over three arrival rates and
four farms (the ``c = 1`` Erlang branch and the ``c >= 2``
hypoexponential branch of the sojourn-time law), the circuit breaker at
and between its boundaries, the public response-time functions, the
web-service deadline measure and one rendered ranking are pinned as
``float.hex`` / exact text.  The models are closed forms with a fixed
evaluation and summation order, so any change to how a queue is solved
or a survival term evaluated must leave every bit where it is.
"""

import pytest

from repro.availability import WebServiceModel
from repro.queueing import MMCKQueue
from repro.queueing.responsetime import (
    mean_conditional_response_time,
    response_time_quantile,
    response_time_survival,
    waiting_time_survival,
)
from repro.resilience import (
    CircuitBreakerPolicy,
    FarmFaultScenario,
    circuit_breaker_availability,
    evaluate_policy_cell,
)
from repro.workloads import (
    default_client_policies,
    policy_comparison_text,
    run_policy_comparison,
)

RATES = (60.0, 100.0, 175.0)
#: (servers, buffer) of the farm under comparison.
FARMS = ((1, 5), (2, 6), (4, 10), (8, 20))
SURVIVAL_TIMES = (0.0, 0.004, 0.02, 0.1)
QUANTILES = (0.5, 0.9, 0.99)
DEADLINES = (0.01, 0.05, 0.2)

#: The detail keys of each policy family, in cell order.
DETAIL_NAMES = {
    "retry": ("abandoned", "exhausted", "expected_attempts"),
    "breaker": ("open", "half_open", "short_circuited"),
    "timeout": ("blocking", "timely", "hedged", "effective_rate"),
    "hedge": ("blocking", "timely", "hedged", "effective_rate"),
}

#: (rate, servers, buffer, policy, scenario) -> availability, attempt
#: availability, then the detail values in DETAIL_NAMES order.
CELLS = {
    (60.0, 1, 5, "retry(k=3, p=1)", "nominal"): (
        "0x1.ffffd9fac92cap-1", "0x1.ef4b9e1c0c195p-1", "0x0.0p+0",
        "0x1.3029b69b3a5efp-20", "0x1.08a23a720f393p+0",
    ),
    (60.0, 1, 5, "retry(k=3, p=1)", "surge"): (
        "0x1.ffdef0a331f9cp-1", "0x1.bf79f8ea7b9cfp-1", "0x0.0p+0",
        "0x1.087ae6703233cp-12", "0x1.24d700bb781d2p+0",
    ),
    (60.0, 1, 5, "retry(k=3, p=1)", "degraded"): (
        "0x1.fffa5bf4a3372p-1", "0x1.d687d6343eb1ap-1", "0x0.0p+0",
        "0x1.6902d73239615p-15", "0x1.168cd4c2ec40dp+0",
    ),
    (60.0, 1, 5, "retry(k=3, p=1)", "critical"): (
        "0x1.ffdb4acedfa3cp-1", "0x1.bdc40e4c714a0p-1", "0x0.0p+0",
        "0x1.25a98902e1de1p-12", "0x1.25f4975ed2970p+0",
    ),
    (60.0, 1, 5, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.eec7a5f4fd648p-1", "0x1.ef4b9e1c0c195p-1",
        "0x1.10d727248d132p-10", "0x1.2307a1380df25p-15",
        "0x1.10d727248d132p-10",
    ),
    (60.0, 1, 5, "breaker(f=3, reset=30)", "surge"): (
        "0x1.a621598ee52e2p-1", "0x1.bf79f8ea7b9cfp-1",
        "0x1.d003ea7aa7db2p-5", "0x1.eef31c3e90e9bp-10",
        "0x1.d003ea7aa7db2p-5",
    ),
    (60.0, 1, 5, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.cf25def792207p-1", "0x1.d687d6343eb1ap-1",
        "0x1.01111b42ff511p-6", "0x1.1234615887cdfp-11",
        "0x1.01111b42ff511p-6",
    ),
    (60.0, 1, 5, "breaker(f=3, reset=30)", "critical"): (
        "0x1.a294958f59ea2p-1", "0x1.bdc40e4c714a0p-1",
        "0x1.f398b9b39bd67p-5", "0x1.0a73963da8726p-9",
        "0x1.f398b9b39bd67p-5",
    ),
    (60.0, 1, 5, "timeout(t=0.05)", "nominal"): (
        "0x1.c66f7c09efe5ap-1", "0x1.ef4b9e1c0c195p-1",
        "0x1.0b461e3f3e6b3p-5", "0x1.d5c31518bbba4p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 1, 5, "timeout(t=0.05)", "surge"): (
        "0x1.7b0a253c23631p-1", "0x1.bf79f8ea7b9cfp-1",
        "0x1.02181c56118c4p-3", "0x1.b1b1ea0e58e3ep-1", "0x0.0p+0",
        "0x1.6800000000000p+6",
    ),
    (60.0, 1, 5, "timeout(t=0.05)", "degraded"): (
        "0x1.afb6b5d63d809p-1", "0x1.d687d6343eb1ap-1",
        "0x1.0b461e3f3e6b3p-5", "0x1.d5c31518bbba4p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 1, 5, "timeout(t=0.05)", "critical"): (
        "0x1.98fdefa28b1b8p-1", "0x1.bdc40e4c714a0p-1",
        "0x1.0b461e3f3e6b3p-5", "0x1.d5c31518bbba4p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 1, 5, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.bd97bf86f6e23p-1", "0x1.ef4b9e1c0c195p-1",
        "0x1.581943f9f0adep-3", "0x1.a5cc846b0e352p-1",
        "0x1.5818e39e5cafap-1", "0x1.914baab23b298p+6",
    ),
    (60.0, 1, 5, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.3d5fc92ed58a8p-1", "0x1.bf79f8ea7b9cfp-1",
        "0x1.b5366ba289d1fp-2", "0x1.6d641c7b6c369p-1",
        "0x1.c2219b00ae43bp-1", "0x1.523fd07e3d3d9p+7",
    ),
    (60.0, 1, 5, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.a75029269dbd4p-1", "0x1.d687d6343eb1ap-1",
        "0x1.581943f9f0adep-3", "0x1.a5cc846b0e352p-1",
        "0x1.5818e39e5cafap-1", "0x1.914baab23b298p+6",
    ),
    (60.0, 1, 5, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.910892c644986p-1", "0x1.bdc40e4c714a0p-1",
        "0x1.581943f9f0adep-3", "0x1.a5cc846b0e352p-1",
        "0x1.5818e39e5cafap-1", "0x1.914baab23b298p+6",
    ),
    (60.0, 2, 6, "retry(k=3, p=1)", "nominal"): (
        "0x1.ffffffffff29ep-1", "0x1.ff991052cd3d6p-1", "0x0.0p+0",
        "0x1.ac490ce0569a6p-42", "0x1.00338231a58d0p+0",
    ),
    (60.0, 2, 6, "retry(k=3, p=1)", "surge"): (
        "0x1.fffffff230de5p-1", "0x1.fcc20bdaebbd5p-1", "0x0.0p+0",
        "0x1.b9e43450b9d7dp-30", "0x1.01a19f02bc849p+0",
    ),
    (60.0, 2, 6, "retry(k=3, p=1)", "degraded"): (
        "0x1.fffd286204a62p-1", "0x1.dd0fa997135eep-1", "0x0.0p+0",
        "0x1.6bcefdacf29dfp-16", "0x1.12be2cab96e2ep+0",
    ),
    (60.0, 2, 6, "retry(k=3, p=1)", "critical"): (
        "0x1.ffe733e55dfb0p-1", "0x1.c3f3e40863318p-1", "0x0.0p+0",
        "0x1.8cc1aa2051667p-13", "0x1.21f5314fdb3eap+0",
    ),
    (60.0, 2, 6, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.ff990fd614445p-1", "0x1.ff991052cd3d6p-1",
        "0x1.f34845391a182p-27", "0x1.0a48ad73c9a67p-31",
        "0x1.f34845391a182p-27",
    ),
    (60.0, 2, 6, "breaker(f=3, reset=30)", "surge"): (
        "0x1.fcc10de8cff0bp-1", "0x1.fcc20bdaebbd5p-1",
        "0x1.ff20c1ddc3d7fp-18", "0x1.109a00feced99p-22",
        "0x1.ff20c1ddc3d7fp-18",
    ),
    (60.0, 2, 6, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.d88e657fec866p-1", "0x1.dd0fa997135eep-1",
        "0x1.356e9e6169e7dp-7", "0x1.4a0f97df5fe63p-12",
        "0x1.356e9e6169e7dp-7",
    ),
    (60.0, 2, 6, "breaker(f=3, reset=30)", "critical"): (
        "0x1.af172a44539b7p-1", "0x1.c3f3e40863318p-1",
        "0x1.7a24e006d96f4p-5", "0x1.935a888fd6dd2p-10",
        "0x1.7a24e006d96f4p-5",
    ),
    (60.0, 2, 6, "timeout(t=0.05)", "nominal"): (
        "0x1.fb38e32f2869dp-1", "0x1.ff991052cd3d6p-1",
        "0x1.9bbeb4cb0a6c0p-11", "0x1.fb9ef179ace7ap-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 2, 6, "timeout(t=0.05)", "surge"): (
        "0x1.f6d0671d8b786p-1", "0x1.fcc20bdaebbd5p-1",
        "0x1.9efa128a2156bp-8", "0x1.fa04a8f3f85e9p-1", "0x0.0p+0",
        "0x1.6800000000000p+6",
    ),
    (60.0, 2, 6, "timeout(t=0.05)", "degraded"): (
        "0x1.ad66fe6bc81c8p-1", "0x1.dd0fa997135eep-1",
        "0x1.3a921b478e756p-6", "0x1.ccd9c89b24286p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 2, 6, "timeout(t=0.05)", "critical"): (
        "0x1.96cd5cd1e6002p-1", "0x1.c3f3e40863318p-1",
        "0x1.3a921b478e756p-6", "0x1.ccd9c89b24286p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 2, 6, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffa992a95efeep-1", "0x1.ff991052cd3d6p-1",
        "0x1.dc0bfcc1ae3fdp-10", "0x1.fb2d61390bc2fp-1",
        "0x1.60a4adf8272d5p-3", "0x1.19534c63148c6p+6",
    ),
    (60.0, 2, 6, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.fed46c6f85bedp-1", "0x1.fcc20bdaebbd5p-1",
        "0x1.24441bf3f4171p-6", "0x1.f83a12b53a070p-1",
        "0x1.f61d164d6a873p-3", "0x1.c0431ceb9b9d0p+6",
    ),
    (60.0, 2, 6, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.86c202559e1aap-1", "0x1.dd0fa997135eep-1",
        "0x1.4b442d3b9ef81p-3", "0x1.788cbde5a01a0p-1",
        "0x1.7a7bc760ab395p-1", "0x1.a16a057550265p+6",
    ),
    (60.0, 2, 6, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.72310faf6d5cap-1", "0x1.c3f3e40863318p-1",
        "0x1.4b442d3b9ef81p-3", "0x1.788cbde5a01a0p-1",
        "0x1.7a7bc760ab395p-1", "0x1.a16a057550265p+6",
    ),
    (60.0, 4, 10, "retry(k=3, p=1)", "nominal"): (
        "0x1.0000000000000p+0", "0x1.fffffede10f9cp-1", "0x0.0p+0",
        "0x1.a52fd719fece5p-100", "0x1.00000090f7837p+0",
    ),
    (60.0, 4, 10, "retry(k=3, p=1)", "surge"): (
        "0x1.0000000000000p+0", "0x1.ffffcfa78f72fp-1", "0x0.0p+0",
        "0x1.4d6dc60d257d3p-78", "0x1.0000182c3a8eep+0",
    ),
    (60.0, 4, 10, "retry(k=3, p=1)", "degraded"): (
        "0x1.ffff2e2ef518ep-1", "0x1.e6659bb107a3ep-1", "0x0.0p+0",
        "0x1.a3a215ce155e9p-18", "0x1.0d79453e16032p+0",
    ),
    (60.0, 4, 10, "retry(k=3, p=1)", "critical"): (
        "0x1.fff1b5948c2d1p-1", "0x1.cbae72269860bp-1", "0x0.0p+0",
        "0x1.c94d6e7a5c52ap-14", "0x1.1d1b02d710beap+0",
    ),
    (60.0, 4, 10, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.fffffede10f9cp-1", "0x1.fffffede10f9cp-1",
        "0x1.5ca5ee7d7d7a1p-70", "0x1.73e43196ec3dfp-75",
        "0x1.5ca5ee7d7d7a1p-70",
    ),
    (60.0, 4, 10, "breaker(f=3, reset=30)", "surge"): (
        "0x1.ffffcfa78f72ep-1", "0x1.ffffcfa78f72fp-1",
        "0x1.9dcec7801929ep-54", "0x1.b96519112be86p-59",
        "0x1.9dcec7801929ep-54",
    ),
    (60.0, 4, 10, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.e4943e5d9f0bdp-1", "0x1.e6659bb107a3ep-1",
        "0x1.e9dc4c5ec65a6p-9", "0x1.05424add36969p-13",
        "0x1.e9dc4c5ec65a6p-9",
    ),
    (60.0, 4, 10, "breaker(f=3, reset=30)", "critical"): (
        "0x1.bd6c738ea82d5p-1", "0x1.cbae72269860bp-1",
        "0x1.fc2d60cab4013p-6", "0x1.0f07228e3dde8p-10",
        "0x1.fc2d60cab4013p-6",
    ),
    (60.0, 4, 10, "timeout(t=0.05)", "nominal"): (
        "0x1.fc8b8e8d00d46p-1", "0x1.fffffede10f9cp-1",
        "0x1.21ef0640c2b6ap-25", "0x1.fc8b8facfb045p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 4, 10, "timeout(t=0.05)", "surge"): (
        "0x1.fc86a46fdc674p-1", "0x1.ffffcfa78f72fp-1",
        "0x1.82c38468aeaecp-20", "0x1.fc86d47457484p-1", "0x0.0p+0",
        "0x1.6800000000000p+6",
    ),
    (60.0, 4, 10, "timeout(t=0.05)", "degraded"): (
        "0x1.e2242e457ae9ep-1", "0x1.e6659bb107a3ep-1",
        "0x1.aac13348aa6f7p-18", "0x1.fb853a1ca8996p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 4, 10, "timeout(t=0.05)", "critical"): (
        "0x1.8fde47d97ad40p-1", "0x1.cbae72269860bp-1",
        "0x1.3e2bd51dcd6a0p-9", "0x1.bd61154271822p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 4, 10, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffd3d28263e3fp-1", "0x1.fffffede10f9cp-1",
        "0x1.dcca05d08969cp-24", "0x1.fc8ac247fe328p-1",
        "0x1.15d09fc7d18dfp-3", "0x1.108e72b96a8e9p+6",
    ),
    (60.0, 4, 10, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.ffd30aed9bb7ap-1", "0x1.ffffcfa78f72fp-1",
        "0x1.33f4772d55944p-18", "0x1.fc830c58297e7p-1",
        "0x1.1831e86580fa8p-3", "0x1.9940c5d9d7ab7p+6",
    ),
    (60.0, 4, 10, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.e6126dc2cf7dcp-1", "0x1.e6659bb107a3ep-1",
        "0x1.d3656ce8cbf4dp-16", "0x1.faea98338e7d4p-1",
        "0x1.61b9cf8da0322p-3", "0x1.1973c65298b4dp+6",
    ),
    (60.0, 4, 10, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.9af61b33ec239p-2", "0x1.cbae72269860bp-1",
        "0x1.4954312fde5b8p-3", "0x1.7ad0369215fa0p-2",
        "0x1.ccb0fedd50120p-1", "0x1.c7f2f777bd56ep+6",
    ),
    (60.0, 8, 20, "retry(k=3, p=1)", "nominal"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.0000000000000p+0",
    ),
    (60.0, 8, 20, "retry(k=3, p=1)", "surge"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.0000000000000p+0",
    ),
    (60.0, 8, 20, "retry(k=3, p=1)", "degraded"): (
        "0x1.ffff2e48e8a72p-1", "0x1.e666666666664p-1", "0x0.0p+0",
        "0x1.a36e2eb1c43cbp-18", "0x1.0d78d4fdf3b66p+0",
    ),
    (60.0, 8, 20, "retry(k=3, p=1)", "critical"): (
        "0x1.fff2e2ca315e7p-1", "0x1.cccb132423139p-1", "0x0.0p+0",
        "0x1.a3a6b9d431133p-14", "0x1.1c6b8e9997510p+0",
    ),
    (60.0, 8, 20, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0",
    ),
    (60.0, 8, 20, "breaker(f=3, reset=30)", "surge"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0",
    ),
    (60.0, 8, 20, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.e4953353d877bp-1", "0x1.e666666666664p-1",
        "0x1.e9af060eaa468p-9", "0x1.052a255d279d1p-13",
        "0x1.e9af060eaa468p-9",
    ),
    (60.0, 8, 20, "breaker(f=3, reset=30)", "critical"): (
        "0x1.bf5df0904c663p-1", "0x1.cccb132423139p-1",
        "0x1.dd6308c1a99e4p-6", "0x1.fd366fbd81b9ep-11",
        "0x1.dd6308c1a99e4p-6",
    ),
    (60.0, 8, 20, "timeout(t=0.05)", "nominal"): (
        "0x1.fc8cd801c2222p-1", "0x1.0000000000000p+0",
        "0x1.11969f20b89a3p-67", "0x1.fc8cd801c2222p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 8, 20, "timeout(t=0.05)", "surge"): (
        "0x1.fc8cd7d59668cp-1", "0x1.0000000000000p+0",
        "0x1.49150f57652eep-56", "0x1.fc8cd7d59668cp-1", "0x0.0p+0",
        "0x1.6800000000000p+6",
    ),
    (60.0, 8, 20, "timeout(t=0.05)", "degraded"): (
        "0x1.e31e2ed534899p-1", "0x1.e666666666664p-1",
        "0x1.c0cc59a9a6e5ep-53", "0x1.fc8b8f9d0ee1dp-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 8, 20, "timeout(t=0.05)", "critical"): (
        "0x1.8e723ced6efc7p-1", "0x1.cccb132423139p-1",
        "0x1.eabb673fa13d7p-17", "0x1.bab97a40ece53p-1", "0x0.0p+0",
        "0x1.e000000000000p+5",
    ),
    (60.0, 8, 20, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffd407bd635ccp-1", "0x1.0000000000000p+0",
        "0x1.8f3b5c684340dp-64", "0x1.fc8cd7fe2addfp-1",
        "0x1.152aac100b698p-3", "0x1.107b0029e1566p+6",
    ),
    (60.0, 8, 20, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.ffd407b23e6c5p-1", "0x1.0000000000000p+0",
        "0x1.cd1b471eafd3ap-53", "0x1.fc8cd78e3f7d8p-1",
        "0x1.152acf2fd5652p-3", "0x1.98b8866b6882cp+6",
    ),
    (60.0, 8, 20, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.e63c6e690b5d2p-1", "0x1.e666666666664p-1",
        "0x1.492f7f713a7ddp-49", "0x1.fc8ac211bd290p-1",
        "0x1.15d09d90c2bb7p-3", "0x1.108e7276f6d1fp+6",
    ),
    (60.0, 8, 20, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.d4188efb7b40fp-5", "0x1.cccb132423139p-1",
        "0x1.537dbf3c98a60p-3", "0x1.929049a234ba0p-5",
        "0x1.f9e9b3d364345p-1", "0x1.dd258c4b16e56p+6",
    ),
    (100.0, 1, 5, "retry(k=3, p=1)", "nominal"): (
        "0x1.ff9add3c0ca47p-1", "0x1.aaaaaaaaaaaabp-1", "0x0.0p+0",
        "0x1.948b0fcd6e9dap-11", "0x1.32f684bda12f7p+0",
    ),
    (100.0, 1, 5, "retry(k=3, p=1)", "surge"): (
        "0x1.f6df0e26ca732p-1", "0x1.44e8846d544e8p-1", "0x0.0p+0",
        "0x1.241e3b26b19d0p-6", "0x1.8c383dcde1a2fp+0",
    ),
    (100.0, 1, 5, "retry(k=3, p=1)", "degraded"): (
        "0x1.ff09161f9add4p-1", "0x1.9555555555555p-1", "0x0.0p+0",
        "0x1.edd3c0ca45885p-10", "0x1.42c25ed097b43p+0",
    ),
    (100.0, 1, 5, "retry(k=3, p=1)", "critical"): (
        "0x1.fe00000000000p-1", "0x1.8000000000000p-1", "0x0.0p+0",
        "0x1.0000000000000p-8", "0x1.5400000000000p+0",
    ),
    (100.0, 1, 5, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.76a2576a2576ap-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.f3831f3831f35p-4", "0x1.0a6810a6810a4p-8",
        "0x1.f3831f3831f35p-4",
    ),
    (100.0, 1, 5, "breaker(f=3, reset=30)", "surge"): (
        "0x1.07bf7f4b5ef2fp-2", "0x1.44e8846d544e8p-1",
        "0x1.30306568b57ddp-1", "0x1.4477e3a2e3b96p-6",
        "0x1.30306568b57ddp-1",
    ),
    (100.0, 1, 5, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.3ed7886f2cd64p-1", "0x1.9555555555555p-1",
        "0x1.b5025c1f1d747p-3", "0x1.d224a68796e29p-8",
        "0x1.b5025c1f1d747p-3",
    ),
    (100.0, 1, 5, "breaker(f=3, reset=30)", "critical"): (
        "0x1.0572620ae4c41p-1", "0x1.8000000000000p-1",
        "0x1.46cefa8d9df52p-2", "0x1.5c9882b931057p-7",
        "0x1.46cefa8d9df52p-2",
    ),
    (100.0, 1, 5, "timeout(t=0.05)", "nominal"): (
        "0x1.5fccf364e2f64p-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.5555555555555p-3", "0x1.a6292412a9f45p-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 1, 5, "timeout(t=0.05)", "surge"): (
        "0x1.deb7cec85f3cdp-2", "0x1.44e8846d544e8p-1",
        "0x1.762ef7255762fp-2", "0x1.79305eae41554p-1", "0x0.0p+0",
        "0x1.2c00000000000p+7",
    ),
    (100.0, 1, 5, "timeout(t=0.05)", "degraded"): (
        "0x1.4e35e7397136cp-1", "0x1.9555555555555p-1",
        "0x1.5555555555555p-3", "0x1.a6292412a9f45p-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 1, 5, "timeout(t=0.05)", "critical"): (
        "0x1.3c9edb0dff774p-1", "0x1.8000000000000p-1",
        "0x1.5555555555555p-3", "0x1.a6292412a9f45p-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 1, 5, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.1de6757e2b95ap-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.f133405290f22p-2", "0x1.62cb8b67ba09dp-1",
        "0x1.d009a37ba069ep-1", "0x1.7d43c3dc4a9f2p+7",
    ),
    (100.0, 1, 5, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.7b49b72890dc7p-2", "0x1.44e8846d544e8p-1",
        "0x1.5276799f6e4f1p-1", "0x1.4669cca2b2f37p-1",
        "0x1.ec09e539d3b9ep-1", "0x1.2626e627f104ap+8",
    ),
    (100.0, 1, 5, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.0f9aef9e43015p-1", "0x1.9555555555555p-1",
        "0x1.f133405290f22p-2", "0x1.62cb8b67ba09dp-1",
        "0x1.d009a37ba069ep-1", "0x1.7d43c3dc4a9f2p+7",
    ),
    (100.0, 1, 5, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.014f69be5a6d1p-1", "0x1.8000000000000p-1",
        "0x1.f133405290f22p-2", "0x1.62cb8b67ba09dp-1",
        "0x1.d009a37ba069ep-1", "0x1.7d43c3dc4a9f2p+7",
    ),
    (100.0, 2, 6, "retry(k=3, p=1)", "nominal"): (
        "0x1.ffffff9689c36p-1", "0x1.fa9c4b73dfa9cp-1", "0x0.0p+0",
        "0x1.a5d8f26955b9cp-27", "0x1.02b930d027a83p+0",
    ),
    (100.0, 2, 6, "retry(k=3, p=1)", "surge"): (
        "0x1.fffe4cfdca2d9p-1", "0x1.e147085d8eedep-1", "0x0.0p+0",
        "0x1.b30235d271eddp-17", "0x1.10569c83014c3p+0",
    ),
    (100.0, 2, 6, "retry(k=3, p=1)", "degraded"): (
        "0x1.ff64157578fe6p-1", "0x1.a0ea0ea0ea0eap-1", "0x0.0p+0",
        "0x1.37d5150e03369p-10", "0x1.3a0311aaf0784p+0",
    ),
    (100.0, 2, 6, "retry(k=3, p=1)", "critical"): (
        "0x1.fe9a3c314e911p-1", "0x1.8af8af8af8af9p-1", "0x0.0p+0",
        "0x1.65c3ceb16ef2fp-9", "0x1.4af2307ec5e2cp+0",
    ),
    (100.0, 2, 6, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.fa97c1c3d3fefp-1", "0x1.fa9c4b73dfa9cp-1",
        "0x1.2582f29b7ebf2p-15", "0x1.391435fb31dcep-20",
        "0x1.2582f29b7ebf2p-15",
    ),
    (100.0, 2, 6, "breaker(f=3, reset=30)", "surge"): (
        "0x1.de2d98bfd4e92p-1", "0x1.e147085d8eedep-1",
        "0x1.a60aeaa96fb00p-8", "0x1.c22dc71b21ccdp-13",
        "0x1.a60aeaa96fb00p-8",
    ),
    (100.0, 2, 6, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.5db6d0704a065p-1", "0x1.a0ea0ea0ea0eap-1",
        "0x1.4a1b2883121fep-3", "0x1.601cf80346886p-8",
        "0x1.4a1b2883121fep-3",
    ),
    (100.0, 2, 6, "breaker(f=3, reset=30)", "critical"): (
        "0x1.22cb506cab2e0p-1", "0x1.8af8af8af8af9p-1",
        "0x1.0e16d0ad60a53p-2", "0x1.2018560e44f47p-7",
        "0x1.0e16d0ad60a53p-2",
    ),
    (100.0, 2, 6, "timeout(t=0.05)", "nominal"): (
        "0x1.f3f30627585bep-1", "0x1.fa9c4b73dfa9cp-1",
        "0x1.58ed2308158edp-7", "0x1.f944968f40c9dp-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 2, 6, "timeout(t=0.05)", "surge"): (
        "0x1.d633c698ce960p-1", "0x1.e147085d8eedep-1",
        "0x1.eb8f7a271121ap-5", "0x1.f437c0dec5e51p-1", "0x0.0p+0",
        "0x1.2c00000000000p+7",
    ),
    (100.0, 2, 6, "timeout(t=0.05)", "degraded"): (
        "0x1.3926c4e7a8699p-1", "0x1.a0ea0ea0ea0eap-1",
        "0x1.2492492492492p-3", "0x1.80926b138278ap-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 2, 6, "timeout(t=0.05)", "critical"): (
        "0x1.28ab772c4eb4dp-1", "0x1.8af8af8af8af9p-1",
        "0x1.2492492492492p-3", "0x1.80926b138278ap-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 2, 6, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.fddb1f8533ba8p-1", "0x1.fa9c4b73dfa9cp-1",
        "0x1.0a56e0f972addp-5", "0x1.f697754e2f79ep-1",
        "0x1.24de005ef25b1p-2", "0x1.01335c128b3a4p+7",
    ),
    (100.0, 2, 6, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.d86e6be11700ap-1", "0x1.e147085d8eedep-1",
        "0x1.e578f2cdac874p-3", "0x1.ea4942b57ec93p-1",
        "0x1.2db7ce9ba9218p-1", "0x1.dcc9b30f34aa8p+7",
    ),
    (100.0, 2, 6, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.a5d10ecc13e99p-2", "0x1.a0ea0ea0ea0eap-1",
        "0x1.f7b0fde801546p-2", "0x1.13580172230c6p-1",
        "0x1.e6a57d4217280p-1", "0x1.8618a4edd10a7p+7",
    ),
    (100.0, 2, 6, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.8f9da23a9999fp-2", "0x1.8af8af8af8af9p-1",
        "0x1.f7b0fde801546p-2", "0x1.13580172230c6p-1",
        "0x1.e6a57d4217280p-1", "0x1.8618a4edd10a7p+7",
    ),
    (100.0, 4, 10, "retry(k=3, p=1)", "nominal"): (
        "0x1.0000000000000p+0", "0x1.ffff829cb1d89p-1", "0x0.0p+0",
        "0x1.d777f4c5b5c0bp-73", "0x1.00003eb1b66e4p+0",
    ),
    (100.0, 4, 10, "retry(k=3, p=1)", "surge"): (
        "0x1.ffffffffffffdp-1", "0x1.ffef01d3cf7b1p-1", "0x0.0p+0",
        "0x1.45b4ced966240p-52", "0x1.00087f5e4b204p+0",
    ),
    (100.0, 4, 10, "retry(k=3, p=1)", "degraded"): (
        "0x1.ffff23b506410p-1", "0x1.e61547d03c4e4p-1", "0x0.0p+0",
        "0x1.b895f37df83bap-18", "0x1.0da5c7e223d85p+0",
    ),
    (100.0, 4, 10, "retry(k=3, p=1)", "critical"): (
        "0x1.ff70c2fe8c79cp-1", "0x1.a2e8ba2e8ba2ep-1", "0x0.0p+0",
        "0x1.1e7a02e70c77fp-10", "0x1.388c0562ab2e0p+0",
    ),
    (100.0, 4, 10, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.ffff829cb1d7bp-1", "0x1.ffff829cb1d89p-1",
        "0x1.c335a86be68ccp-50", "0x1.e14a4d3fe4da6p-55",
        "0x1.c335a86be68ccp-50",
    ),
    (100.0, 4, 10, "breaker(f=3, reset=30)", "surge"): (
        "0x1.ffef01d33fbebp-1", "0x1.ffef01d3cf7b1p-1",
        "0x1.1f8234d6bc5fbp-34", "0x1.32ad052951772p-39",
        "0x1.1f8234d6bc5fbp-34",
    ),
    (100.0, 4, 10, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.e432f95854facp-1", "0x1.e61547d03c4e4p-1",
        "0x1.fc05a3bb37d7fp-9", "0x1.0ef1f0ec620ccp-13",
        "0x1.fc05a3bb37d7fp-9",
    ),
    (100.0, 4, 10, "breaker(f=3, reset=30)", "critical"): (
        "0x1.62e9ace4c9691p-1", "0x1.a2e8ba2e8ba2ep-1",
        "0x1.38deeba17ca91p-3", "0x1.4dba94f084f8ap-8",
        "0x1.38deeba17ca91p-3",
    ),
    (100.0, 4, 10, "timeout(t=0.05)", "nominal"): (
        "0x1.fc8360ddecd04p-1", "0x1.ffff829cb1d89p-1",
        "0x1.f58d389dd060bp-19", "0x1.fc83dd66bf7c6p-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 4, 10, "timeout(t=0.05)", "surge"): (
        "0x1.fc519562c6655p-1", "0x1.ffef01d3cf7b1p-1",
        "0x1.0fe2c3084ec46p-13", "0x1.fc6274d725b88p-1", "0x0.0p+0",
        "0x1.2c00000000000p+7",
    ),
    (100.0, 4, 10, "timeout(t=0.05)", "degraded"): (
        "0x1.ddc1b7df6b97fp-1", "0x1.e61547d03c4e4p-1",
        "0x1.558e426065664p-11", "0x1.f73ac99dd87ffp-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 4, 10, "timeout(t=0.05)", "critical"): (
        "0x1.a10cd829df067p-2", "0x1.a2e8ba2e8ba2ep-1",
        "0x1.745d1745d1746p-4", "0x1.fdba5d88825d4p-2", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 4, 10, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffd289ff804c1p-1", "0x1.ffff829cb1d89p-1",
        "0x1.8bfeda903dbf7p-17", "0x1.fc7e2c2337af9p-1",
        "0x1.19b1ccb2f607fp-3", "0x1.c704b9faf40d7p+6",
    ),
    (100.0, 4, 10, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.ffcbdb2321b41p-1", "0x1.ffef01d3cf7b1p-1",
        "0x1.a7bd3f021c8f9p-12", "0x1.fc44f402abfecp-1",
        "0x1.2b6911c249e95p-3", "0x1.57dbe419f5ce6p+7",
    ),
    (100.0, 4, 10, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.e3015799d1bc4p-1", "0x1.e61547d03c4e4p-1",
        "0x1.c3ffa3381b3adp-8", "0x1.ec52a11213cc7p-1",
        "0x1.51de5da325c27p-2", "0x1.09fd6e49dd2f1p+7",
    ),
    (100.0, 4, 10, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.1d3269877b0d0p-4", "0x1.a2e8ba2e8ba2ep-1",
        "0x1.ff72819d80380p-2", "0x1.8fb98c7428ae0p-4",
        "0x1.fe63911cc92abp-1", "0x1.8f5ee4af3e941p+7",
    ),
    (100.0, 8, 20, "retry(k=3, p=1)", "nominal"): (
        "0x1.0000000000000p+0", "0x1.fffffffffffffp-1", "0x0.0p+0",
        "0x1.0000000000000p-212", "0x1.0000000000001p+0",
    ),
    (100.0, 8, 20, "retry(k=3, p=1)", "surge"): (
        "0x1.0000000000000p+0", "0x1.ffffffffff694p-1", "0x0.0p+0",
        "0x1.ec86b76f10000p-168", "0x1.00000000004b6p+0",
    ),
    (100.0, 8, 20, "retry(k=3, p=1)", "degraded"): (
        "0x1.ffff2e48e8a63p-1", "0x1.e66666665ef48p-1", "0x0.0p+0",
        "0x1.a36e2eb3ac1bep-18", "0x1.0d78d4fdf7d5bp+0",
    ),
    (100.0, 8, 20, "retry(k=3, p=1)", "critical"): (
        "0x1.ffc968cf460d0p-1", "0x1.b6db6db6db6dbp-1", "0x0.0p+0",
        "0x1.b4b985cf97f07p-12", "0x1.2a8ad278e8dcfp+0",
    ),
    (100.0, 8, 20, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.fffffffffffffp-1", "0x1.fffffffffffffp-1",
        "0x1.e000000000002p-155", "0x1.0000000000001p-159",
        "0x1.e000000000002p-155",
    ),
    (100.0, 8, 20, "breaker(f=3, reset=30)", "surge"): (
        "0x1.ffffffffff694p-1", "0x1.ffffffffff694p-1",
        "0x1.880f8919fffffp-121", "0x1.a232b45ffffffp-126",
        "0x1.880f8919fffffp-121",
    ),
    (100.0, 8, 20, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.e4953353cf78cp-1", "0x1.e66666665ef48p-1",
        "0x1.e9af061053deep-9", "0x1.052a255e0a990p-13",
        "0x1.e9af061053deep-9",
    ),
    (100.0, 8, 20, "breaker(f=3, reset=30)", "critical"): (
        "0x1.938f713e74acep-1", "0x1.b6db6db6db6dbp-1",
        "0x1.496fdf0e69b22p-4", "0x1.5f66434292e02p-9",
        "0x1.496fdf0e69b22p-4",
    ),
    (100.0, 8, 20, "timeout(t=0.05)", "nominal"): (
        "0x1.fc8cd79f67fd9p-1", "0x1.fffffffffffffp-1",
        "0x1.32267f950d687p-53", "0x1.fc8cd79f67fdap-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 8, 20, "timeout(t=0.05)", "surge"): (
        "0x1.fc8cd0d70ae31p-1", "0x1.ffffffffff694p-1",
        "0x1.2d7ed335543a1p-42", "0x1.fc8cd0d70b78dp-1", "0x0.0p+0",
        "0x1.2c00000000000p+7",
    ),
    (100.0, 8, 20, "timeout(t=0.05)", "degraded"): (
        "0x1.e316d73ebbd60p-1", "0x1.e66666665ef48p-1",
        "0x1.f58d0fac6b0d0p-39", "0x1.fc83d519a515ap-1", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 8, 20, "timeout(t=0.05)", "critical"): (
        "0x1.b6db6d1d63df8p-3", "0x1.b6db6db6db6dbp-1",
        "0x1.8618618618618p-5", "0x1.ffffff4cf484cp-3", "0x0.0p+0",
        "0x1.9000000000000p+6",
    ),
    (100.0, 8, 20, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffd407a4c6381p-1", "0x1.fffffffffffffp-1",
        "0x1.a735d92ce8b15p-50", "0x1.fc8cd706fa150p-1",
        "0x1.152af9a3b411ep-3", "0x1.c62264c1f92b8p+6",
    ),
    (100.0, 8, 20, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.ffd406042acbfp-1", "0x1.ffffffffff694p-1",
        "0x1.8590759ae850fp-39", "0x1.fc8cc6af42a66p-1",
        "0x1.15301a9bcc1a2p-3", "0x1.549a8be5d265ep+7",
    ),
    (100.0, 8, 20, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.e63b38ab6fb44p-1", "0x1.e66666665ef48p-1",
        "0x1.672f297c3aa91p-35", "0x1.fc7e0ff4afb68p-1",
        "0x1.19b1b51306d83p-3", "0x1.c704b55db7563p+6",
    ),
    (100.0, 8, 20, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.9eca527376f93p-14", "0x1.b6db6db6db6dbp-1",
        "0x1.ffffdce2fcc17p-2", "0x1.2687998da2000p-13",
        "0x1.ffff99c5c2d2bp-1", "0x1.8fffd811401a5p+7",
    ),
    (175.0, 1, 5, "retry(k=3, p=1)", "nominal"): (
        "0x1.ec18cc9efdcbbp-1", "0x1.1ca80769a30edp-1", "0x0.0p+0",
        "0x1.3e73361023449p-5", "0x1.ba8eb638aff2ep+0",
    ),
    (175.0, 1, 5, "retry(k=3, p=1)", "surge"): (
        "0x1.b3e1f1674e05ap-1", "0x1.8426da56a6e14p-2", "0x0.0p+0",
        "0x1.30783a62c7e98p-3", "0x1.1f7aed815c497p+1",
    ),
    (175.0, 1, 5, "retry(k=3, p=1)", "degraded"): (
        "0x1.e69ff67eb5078p-1", "0x1.0e6c6d7127b47p-1", "0x0.0p+0",
        "0x1.96009814af888p-5", "0x1.ccab789e855d9p+0",
    ),
    (175.0, 1, 5, "retry(k=3, p=1)", "critical"): (
        "0x1.e01862c13c85fp-1", "0x1.0030d378ac5a2p-1", "0x0.0p+0",
        "0x1.fe79d3ec37a16p-5", "0x1.dfbce30bd7a48p+0",
    ),
    (175.0, 1, 5, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.39fb9e11d65e7p-3", "0x1.1ca80769a30edp-1",
        "0x1.72d019adca7d9p-1", "0x1.8b88a3ec93b93p-6",
        "0x1.72d019adca7d9p-1",
    ),
    (175.0, 1, 5, "breaker(f=3, reset=30)", "surge"): (
        "0x1.7b7d658e6d09dp-5", "0x1.8426da56a6e14p-2",
        "0x1.c16d9f79c3d7ep-1", "0x1.df63dd4eaec42p-6",
        "0x1.c16d9f79c3d7ep-1",
    ),
    (175.0, 1, 5, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.0492ff72d7066p-3", "0x1.0e6c6d7127b47p-1",
        "0x1.84a978e564167p-1", "0x1.9e92a316d1290p-6",
        "0x1.84a978e564167p-1",
    ),
    (175.0, 1, 5, "breaker(f=3, reset=30)", "critical"): (
        "0x1.b03dc2f7cc096p-4", "0x1.0030d378ac5a2p-1",
        "0x1.9405277d4c3b2p-1", "0x1.aef46e6384835p-6",
        "0x1.9405277d4c3b2p-1",
    ),
    (175.0, 1, 5, "timeout(t=0.05)", "nominal"): (
        "0x1.92caff69d9b6bp-2", "0x1.1ca80769a30edp-1",
        "0x1.c6aff12cb9e26p-2", "0x1.6a3e6889128bep-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 1, 5, "timeout(t=0.05)", "surge"): (
        "0x1.f813ae1dfe464p-3", "0x1.8426da56a6e14p-2",
        "0x1.3dec92d4ac8f6p-1", "0x1.4c74ee5378b2bp-1", "0x0.0p+0",
        "0x1.0680000000000p+8",
    ),
    (175.0, 1, 5, "timeout(t=0.05)", "degraded"): (
        "0x1.7ea73f715ba0bp-2", "0x1.0e6c6d7127b47p-1",
        "0x1.c6aff12cb9e26p-2", "0x1.6a3e6889128bep-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 1, 5, "timeout(t=0.05)", "critical"): (
        "0x1.6a837f78dd8adp-2", "0x1.0030d378ac5a2p-1",
        "0x1.c6aff12cb9e26p-2", "0x1.6a3e6889128bep-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 1, 5, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.449c8221d992fp-2", "0x1.1ca80769a30edp-1",
        "0x1.6bc2e89bb1307p-1", "0x1.3f5816b0065a9p-1",
        "0x1.f109ce6ae791ep-1", "0x1.58e2da0d8a22fp+8",
    ),
    (175.0, 1, 5, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.b067f059cf995p-3", "0x1.8426da56a6e14p-2",
        "0x1.9dc145dddd2c0p-1", "0x1.32a209351db70p-1",
        "0x1.f844d5fe7b156p-1", "0x1.0484a55b5c4d4p+9",
    ),
    (175.0, 1, 5, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.34617ba0284b9p-2", "0x1.0e6c6d7127b47p-1",
        "0x1.6bc2e89bb1307p-1", "0x1.3f5816b0065a9p-1",
        "0x1.f109ce6ae791ep-1", "0x1.58e2da0d8a22fp+8",
    ),
    (175.0, 1, 5, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.2426751e77044p-2", "0x1.0030d378ac5a2p-1",
        "0x1.6bc2e89bb1307p-1", "0x1.3f5816b0065a9p-1",
        "0x1.f109ce6ae791ep-1", "0x1.58e2da0d8a22fp+8",
    ),
    (175.0, 2, 6, "retry(k=3, p=1)", "nominal"): (
        "0x1.fff14390a7732p-1", "0x1.cb474a6cc70d1p-1", "0x0.0p+0",
        "0x1.d78deb119de8bp-14", "0x1.1d5acc5df7268p+0",
    ),
    (175.0, 2, 6, "retry(k=3, p=1)", "surge"): (
        "0x1.fc7e67be385dbp-1", "0x1.6cb6b0856e0e6p-1", "0x0.0p+0",
        "0x1.c0cc20e3d124dp-8", "0x1.64ec17c2ccf7bp+0",
    ),
    (175.0, 2, 6, "retry(k=3, p=1)", "degraded"): (
        "0x1.e7fa77113daa9p-1", "0x1.11b6262d5124bp-1", "0x0.0p+0",
        "0x1.80588eec2556fp-5", "0x1.c866e4ab3c3c3p+0",
    ),
    (175.0, 2, 6, "retry(k=3, p=1)", "critical"): (
        "0x1.e19eff8380058p-1", "0x1.034e3f1d754b3p-1", "0x0.0p+0",
        "0x1.e61007c7ffa82p-5", "0x1.db7b3912d9dd7p+0",
    ),
    (175.0, 2, 6, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.bcb646e5c8666p-1", "0x1.cb474a6cc70d1p-1",
        "0x1.03d132ee9e34ap-5", "0x1.152369870f271p-10",
        "0x1.03d132ee9e34ap-5",
    ),
    (175.0, 2, 6, "breaker(f=3, reset=30)", "surge"): (
        "0x1.a9876cedc6268p-2", "0x1.6cb6b0856e0e6p-1",
        "0x1.aa9ff7ca51080p-2", "0x1.c711084f455dep-7",
        "0x1.aa9ff7ca51080p-2",
    ),
    (175.0, 2, 6, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.100f91846e122p-3", "0x1.11b6262d5124bp-1",
        "0x1.80c59e36d99f6p-1", "0x1.9a6c647ec5ff6p-6",
        "0x1.80c59e36d99f6p-1",
    ),
    (175.0, 2, 6, "breaker(f=3, reset=30)", "critical"): (
        "0x1.c251fbd650850p-4", "0x1.034e3f1d754b3p-1",
        "0x1.90dae9034dbc4p-1", "0x1.ab942bbf41d9ep-6",
        "0x1.90dae9034dbc4p-1",
    ),
    (175.0, 2, 6, "timeout(t=0.05)", "nominal"): (
        "0x1.be121ccf4e79ap-1", "0x1.cb474a6cc70d1p-1",
        "0x1.a5c5ac99c7976p-4", "0x1.f146b07e0283dp-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 2, 6, "timeout(t=0.05)", "surge"): (
        "0x1.5ba7c46f73437p-1", "0x1.6cb6b0856e0e6p-1",
        "0x1.26929ef523e33p-2", "0x1.e80d88f1d5854p-1", "0x0.0p+0",
        "0x1.0680000000000p+8",
    ),
    (175.0, 2, 6, "timeout(t=0.05)", "degraded"): (
        "0x1.34adfd1ff5704p-2", "0x1.11b6262d5124bp-1",
        "0x1.bfc3e585a603ap-2", "0x1.20b493df1ad74p-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 2, 6, "timeout(t=0.05)", "critical"): (
        "0x1.246eefcd6f41fp-2", "0x1.034e3f1d754b3p-1",
        "0x1.bfc3e585a603ap-2", "0x1.20b493df1ad74p-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 2, 6, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.b053a30f78306p-1", "0x1.cb474a6cc70d1p-1",
        "0x1.6b0e20b6847bcp-2", "0x1.e54c3e1a16b56p-1",
        "0x1.656f884f7b24cp-1", "0x1.292b9f172a7e0p+8",
    ),
    (175.0, 2, 6, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.3a45d556ac8eap-1", "0x1.6cb6b0856e0e6p-1",
        "0x1.2e704a0702f41p-1", "0x1.dcd24be7451f9p-1",
        "0x1.b467253866f6ep-1", "0x1.e63de1d52ab11p+8",
    ),
    (175.0, 2, 6, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.bd04b8866ebfap-3", "0x1.11b6262d5124bp-1",
        "0x1.6cea6762ffd3bp-1", "0x1.cf7d7b230de66p-2",
        "0x1.fa07e751722a6p-1", "0x1.5bf5b39056850p+8",
    ),
    (175.0, 2, 6, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.a598aed033066p-3", "0x1.034e3f1d754b3p-1",
        "0x1.6cea6762ffd3bp-1", "0x1.cf7d7b230de66p-2",
        "0x1.fa07e751722a6p-1", "0x1.5bf5b39056850p+8",
    ),
    (175.0, 4, 10, "retry(k=3, p=1)", "nominal"): (
        "0x1.ffffffffffe54p-1", "0x1.ffc2c78b3ab08p-1", "0x0.0p+0",
        "0x1.acaf670c43ae7p-45", "0x1.001e9fe3cfb79p+0",
    ),
    (175.0, 4, 10, "retry(k=3, p=1)", "surge"): (
        "0x1.ffffffa41dbd7p-1", "0x1.facb063860d26p-1", "0x0.0p+0",
        "0x1.6f890a6c320e4p-27", "0x1.02a155b75a2bfp+0",
    ),
    (175.0, 4, 10, "retry(k=3, p=1)", "degraded"): (
        "0x1.fff5b17e3d405p-1", "0x1.cfc93f6dc67fdp-1", "0x0.0p+0",
        "0x1.49d03857f4edcp-14", "0x1.1a973ee14bf41p+0",
    ),
    (175.0, 4, 10, "retry(k=3, p=1)", "critical"): (
        "0x1.e34f7ad7226e9p-1", "0x1.06e4fd36012afp-1", "0x0.0p+0",
        "0x1.cb08528dd9175p-5", "0x1.d6a2b04e36c90p+0",
    ),
    (175.0, 4, 10, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.ffc2c770fb9c8p-1", "0x1.ffc2c78b3ab08p-1",
        "0x1.a4237cc34608bp-29", "0x1.c025da69e44d9p-34",
        "0x1.a4237cc34608bp-29",
    ),
    (175.0, 4, 10, "breaker(f=3, reset=30)", "surge"): (
        "0x1.fac6ee3c3839cp-1", "0x1.facb063860d26p-1",
        "0x1.08b02588ab8f2p-15", "0x1.1a557d5e94dcep-20",
        "0x1.08b02588ab8f2p-15",
    ),
    (175.0, 4, 10, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.c473a22712e59p-1", "0x1.cfc93f6dc67fdp-1",
        "0x1.9068407a26aa0p-6", "0x1.ab19de60293dep-11",
        "0x1.9068407a26aa0p-6",
    ),
    (175.0, 4, 10, "breaker(f=3, reset=30)", "critical"): (
        "0x1.d813dfb800800p-4", "0x1.06e4fd36012afp-1",
        "0x1.8d13603b019e7p-1", "0x1.a78c226112cb2p-6",
        "0x1.8d13603b019e7p-1",
    ),
    (175.0, 4, 10, "timeout(t=0.05)", "nominal"): (
        "0x1.fc0310fb0501cp-1", "0x1.ffc2c78b3ab08p-1",
        "0x1.e9c3a62a7c392p-12", "0x1.fc3fd6a0fcfdap-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 4, 10, "timeout(t=0.05)", "surge"): (
        "0x1.f5f8d0dde9430p-1", "0x1.facb063860d26p-1",
        "0x1.4d3e71e7cb698p-7", "0x1.fb211c692629fp-1", "0x0.0p+0",
        "0x1.0680000000000p+8",
    ),
    (175.0, 4, 10, "timeout(t=0.05)", "degraded"): (
        "0x1.a2f1edbc3d35bp-1", "0x1.cfc93f6dc67fdp-1",
        "0x1.7cdd82e219459p-5", "0x1.ce7f52e31b06fp-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 4, 10, "timeout(t=0.05)", "critical"): (
        "0x1.0a0abdd70fdd8p-4", "0x1.06e4fd36012afp-1",
        "0x1.b7ca3f16364b4p-2", "0x1.03109f10eb63cp-3", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 4, 10, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffc276faa4a3fp-1", "0x1.ffc2c78b3ab08p-1",
        "0x1.8632ff149b324p-10", "0x1.fc05985435ebep-1",
        "0x1.3f9d59a5c47d0p-3", "0x1.949f241214489p+7",
    ),
    (175.0, 4, 10, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.fd9aa1fd4163ap-1", "0x1.facb063860d26p-1",
        "0x1.8a014b90ff718p-5", "0x1.f93bd023dc0a2p-1",
        "0x1.247ee47b5ca3bp-2", "0x1.517b07521f591p+8",
    ),
    (175.0, 4, 10, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.1db7d796e2f3bp-1", "0x1.cfc93f6dc67fdp-1",
        "0x1.a9cbcce158e9ep-2", "0x1.5b2e0c99539adp-1",
        "0x1.e6f62a568b88dp-1", "0x1.5571237894ac1p+8",
    ),
    (175.0, 4, 10, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.775b7dd779b01p-6", "0x1.06e4fd36012afp-1",
        "0x1.6db45559e49cdp-1", "0x1.a4eee570c2980p-5",
        "0x1.ffeda7e38e258p-1", "0x1.5df9bae24715dp+8",
    ),
    (175.0, 8, 20, "retry(k=3, p=1)", "nominal"): (
        "0x1.0000000000000p+0", "0x1.fffffffff5fddp-1", "0x0.0p+0",
        "0x1.3991c9c5d6533p-151", "0x1.0000000005012p+0",
    ),
    (175.0, 8, 20, "retry(k=3, p=1)", "surge"): (
        "0x1.0000000000000p+0", "0x1.ffffffc9d3bb9p-1", "0x0.0p+0",
        "0x1.06d51d047e89cp-109", "0x1.0000001b16224p+0",
    ),
    (175.0, 8, 20, "retry(k=3, p=1)", "degraded"): (
        "0x1.ffff2e486b5b8p-1", "0x1.e6666293888d9p-1", "0x0.0p+0",
        "0x1.a36f2948fc8e6p-18", "0x1.0d78d71bffdb3p+0",
    ),
    (175.0, 8, 20, "retry(k=3, p=1)", "critical"): (
        "0x1.e380ae4aefd4cp-1", "0x1.07500f1e294f7p-1", "0x0.0p+0",
        "0x1.c7f51b5102b40p-5", "0x1.d613267eee4b5p+0",
    ),
    (175.0, 8, 20, "breaker(f=3, reset=30)", "nominal"): (
        "0x1.fffffffff5fddp-1", "0x1.fffffffff5fddp-1",
        "0x1.d5f3e14f781a7p-109", "0x1.f54867cc3bd7ep-114",
        "0x1.d5f3e14f781a7p-109",
    ),
    (175.0, 8, 20, "breaker(f=3, reset=30)", "surge"): (
        "0x1.ffffffc9d3bb9p-1", "0x1.ffffffc9d3bb9p-1",
        "0x1.231a99a23f2b3p-77", "0x1.3682c60265836p-82",
        "0x1.231a99a23f2b3p-77",
    ),
    (175.0, 8, 20, "breaker(f=3, reset=30)", "degraded"): (
        "0x1.e4952eb4f69b8p-1", "0x1.e6666293888d9p-1",
        "0x1.e9afe0a900cdcp-9", "0x1.052a99f3bc297p-13",
        "0x1.e9afe0a900cdcp-9",
    ),
    (175.0, 8, 20, "breaker(f=3, reset=30)", "critical"): (
        "0x1.daae08124cf5fp-4", "0x1.07500f1e294f7p-1",
        "0x1.8ca031628163fp-1", "0x1.a71145be67e21p-6",
        "0x1.8ca031628163fp-1",
    ),
    (175.0, 8, 20, "timeout(t=0.05)", "nominal"): (
        "0x1.fc8cc31e425b5p-1", "0x1.fffffffff5fddp-1",
        "0x1.4045608278d7bp-38", "0x1.fc8cc31e4c4c4p-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 8, 20, "timeout(t=0.05)", "surge"): (
        "0x1.fc8ba06831b22p-1", "0x1.ffffffc9d3bb9p-1",
        "0x1.b16223706da07p-28", "0x1.fc8ba09e00641p-1", "0x0.0p+0",
        "0x1.0680000000000p+8",
    ),
    (175.0, 8, 20, "timeout(t=0.05)", "degraded"): (
        "0x1.e2d01b286d427p-1", "0x1.e6666293888d9p-1",
        "0x1.0198b250a9314p-23", "0x1.fc3963f3726a8p-1", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 8, 20, "timeout(t=0.05)", "critical"): (
        "0x1.347d5a6b7755bp-12", "0x1.07500f1e294f7p-1",
        "0x1.b6dc502ec0a4ep-2", "0x1.2bec1a35a3800p-11", "0x0.0p+0",
        "0x1.5e00000000000p+7",
    ),
    (175.0, 8, 20, "hedge(t=0.05, d=0.02)", "nominal"): (
        "0x1.ffd402ce8b950p-1", "0x1.fffffffff5fddp-1",
        "0x1.902ba5ed815fbp-35", "0x1.fc8ca6752aea0p-1",
        "0x1.153a37a74a659p-3", "0x1.8d60b302d6f6cp+7",
    ),
    (175.0, 8, 20, "hedge(t=0.05, d=0.02)", "surge"): (
        "0x1.ffd3c1916b7a5p-1", "0x1.ffffffc9d3bb9p-1",
        "0x1.e38fb19eb5555p-25", "0x1.fc8a189c55419p-1",
        "0x1.1607610288b06p-3", "0x1.2a22d21f23251p+8",
    ),
    (175.0, 8, 20, "hedge(t=0.05, d=0.02)", "degraded"): (
        "0x1.e62c5f520cf27p-1", "0x1.e6666293888d9p-1",
        "0x1.b9aabab229749p-20", "0x1.fbeb768860e01p-1",
        "0x1.4104863e737b0p-3", "0x1.94dc85f12c1fdp+7",
    ),
    (175.0, 8, 20, "hedge(t=0.05, d=0.02)", "critical"): (
        "0x1.4b1faca30e81cp-20", "0x1.07500f1e294f7p-1",
        "0x1.6db6db6d0ee18p-1", "0x1.770cd78c40000p-19",
        "0x1.fffffffb3ee24p-1", "0x1.5dfffffe5ffe5p+8",
    ),
}

#: (attempt availability, failure_threshold, reset_timeout) -> attempt
#: availability, availability, closed, open, half-open, short-circuited.
BREAKER = {
    (0.0, 3, 30.0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ef7bdef7bdef8p-1",
        "0x1.0842108421084p-5", "0x1.ef7bdef7bdef8p-1",
    ),
    (0.0, 1, 5.0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.aaaaaaaaaaaaap-1",
        "0x1.5555555555556p-3", "0x1.aaaaaaaaaaaaap-1",
    ),
    (0.0, 8, 120.0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.fbc4c2a50658ep-1",
        "0x1.0ecf56be69c90p-7", "0x1.fbc4c2a50658ep-1",
    ),
    (1.0, 3, 30.0): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ),
    (1.0, 1, 5.0): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ),
    (1.0, 8, 120.0): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ),
    (0.5, 3, 30.0): (
        "0x1.0000000000000p-1", "0x1.af286bca1af28p-4",
        "0x1.79435e50d7943p-3", "0x1.9435e50d79436p-1",
        "0x1.af286bca1af28p-6", "0x1.9435e50d79436p-1",
    ),
    (0.5, 1, 5.0): (
        "0x1.0000000000000p-1", "0x1.2492492492492p-3",
        "0x1.2492492492492p-3", "0x1.6db6db6db6db7p-1",
        "0x1.2492492492492p-3", "0x1.6db6db6db6db7p-1",
    ),
    (0.5, 8, 120.0): (
        "0x1.0000000000000p-1", "0x1.5c9882b931057p-2",
        "0x1.5b3bea3677d47p-1", "0x1.46cefa8d9df52p-2",
        "0x1.5c9882b931057p-9", "0x1.46cefa8d9df52p-2",
    ),
    (0.999, 3, 30.0): (
        "0x1.ff7ced916872bp-1", "0x1.ff7cec8ff7b91p-1",
        "0x1.fffffef5b647fp-1", "0x1.01b2b21892703p-25",
        "0x1.12e0bdf813aaep-30", "0x1.01b2b21892703p-25",
    ),
    (0.999, 1, 5.0): (
        "0x1.ff7ced916872bp-1", "0x1.fcf17b0867edbp-1",
        "0x1.fcf17b0867edbp-1", "0x1.460cbc7f5cf9fp-8",
        "0x1.04d6fd32b0c7fp-10", "0x1.460cbc7f5cf9fp-8",
    ),
    (0.999, 8, 120.0): (
        "0x1.ff7ced916872bp-1", "0x1.ff7ced916872bp-1",
        "0x1.0000000000000p+0", "0x1.22246700e05e2p-73",
        "0x1.357c299a88ecfp-80", "0x1.22246700e05e2p-73",
    ),
    (1e-09, 3, 30.0): (
        "0x1.12e0be826d695p-30", "0x1.1bbeb4315bcd6p-35",
        "0x1.a99dfe0000000p-34", "0x1.ef7bdef6effdep-1",
        "0x1.08421083b3321p-5", "0x1.ef7bdef6effdep-1",
    ),
    (1e-09, 1, 5.0): (
        "0x1.12e0be826d695p-30", "0x1.6e80fe085c511p-33",
        "0x1.6e80f80000000p-33", "0x1.aaaaaaa9793f3p-1",
        "0x1.5555555460ff6p-3", "0x1.aaaaaaa9793f3p-1",
    ),
    (1e-09, 8, 120.0): (
        "0x1.12e0be826d695p-30", "0x1.22c7a9f243cc3p-37",
        "0x1.22c7ac8000000p-34", "0x1.fbc4c2a47628ap-1",
        "0x1.0ecf56be1ce27p-7", "0x1.fbc4c2a47628ap-1",
    ),
}

#: (rate, servers, buffer) at service rate 100 -> P(T > t) and P(W > t)
#: at SURVIVAL_TIMES, E[T], then the QUANTILES of T.
RESPONSE = {
    (60.0, 1, 5): (
        "0x1.fffffffffffffp-1", "0x1.adea2c2bd7563p-1",
        "0x1.9d3fe1091cec0p-2", "0x1.a2bd2c1fb7dadp-9",
        "0x1.21ee97019950dp-1", "0x1.e15d20d54e63bp-2",
        "0x1.ae76d921fa800p-3", "0x1.e7b6ee4cf0246p-11",
        "0x1.548728d332102p-6", "0x1.fac25dada8e46p-7",
        "0x1.7e2a423402082p-5", "0x1.560d77f3c830dp-4",
    ),
    (175.0, 1, 5): (
        "0x1.0000000000000p+0", "0x1.f4614a36f8b1fp-1",
        "0x1.9882aba134feap-1", "0x1.0e636e00f839fp-6",
        "0x1.e7160aff45256p-1", "0x1.d2c6b61b70f8ep-1",
        "0x1.4782897fdde96p-1", "0x1.699abe0f953e6p-8",
        "0x1.46f2ba3e37f38p-5", "0x1.2d507bf8aeb6dp-5",
        "0x1.228313352aab9p-4", "0x1.b7fcb8dceba31p-4",
    ),
    (60.0, 2, 6): (
        "0x1.0000000000000p+0", "0x1.68998097e45cdp-1",
        "0x1.48572c49990e3p-3", "0x1.e9275114eb471p-15",
        "0x1.19968fd043419p-3", "0x1.3fb95f7e8b2cbp-4",
        "0x1.f5df410b59400p-8", "0x1.db3cdaf13fd37p-27",
        "0x1.67202b8556cb0p-7", "0x1.ffb962d91498ap-8",
        "0x1.986650e74d9ebp-6", "0x1.8caf18d16ffa0p-5",
    ),
    (175.0, 2, 6): (
        "0x1.0000000000000p+0", "0x1.b703727c9741ap-1",
        "0x1.69eda4ac6ec54p-2", "0x1.c0b61b00f2764p-13",
        "0x1.4beea18d49982p-1", "0x1.ff6333772f742p-2",
        "0x1.ca1e94b62f782p-4", "0x1.0a82e11b6d088p-21",
        "0x1.1fcaec685a74ep-6", "0x1.de759bf43e7e3p-7",
        "0x1.2854c909f4f3ap-5", "0x1.f47082b75de50p-5",
    ),
    (60.0, 4, 10): (
        "0x1.0000000000000p+0", "0x1.5782f181c3fabp-1",
        "0x1.1590dea1f7f25p-3", "0x1.7d653274b3ce1p-15",
        "0x1.c8ed738934b40p-9", "0x1.d5160835e01a4p-11",
        "0x1.03aaac5eed19cp-18", "0x1.70c961d292b66p-59",
        "0x1.480415bb9ed76p-7", "0x1.c708551934736p-8",
        "0x1.797e0c8d446d8p-6", "0x1.795fda3ef6791p-5",
    ),
    (175.0, 4, 10): (
        "0x1.ffffffffffffcp-1", "0x1.63dca91a58a1bp-1",
        "0x1.2c331ef237d24p-3", "0x1.9e0d828c92822p-15",
        "0x1.e1d7120ec550ep-4", "0x1.83c529916f0b8p-5",
        "0x1.fc741de636405p-11", "0x1.ad4e225857d28p-48",
        "0x1.58675d2d8aa5ap-7", "0x1.ea61001efb6acp-8",
        "0x1.86a49727886f8p-6", "0x1.801a7212ebd51p-5",
    ),
    (60.0, 8, 20): (
        "0x1.fffffffffffffp-1", "0x1.57343134537e7p-1",
        "0x1.152aaaef8bd4ap-3", "0x1.7cd79c4d07a09p-15",
        "0x1.0961b5489d0adp-22", "0x1.b80eabcb4fe95p-27",
        "0x1.9fe25f5af62cfp-44", "0x1.329fe3aa3b24fp-129",
        "0x1.47ae15327ed45p-7", "0x1.c642ce5b6ef32p-8",
        "0x1.79416b9761052p-6", "0x1.79416b624d8ccp-5",
    ),
    (175.0, 8, 20): (
        "0x1.0000000000000p+0", "0x1.573b50c57074dp-1",
        "0x1.1531391e2d043p-3", "0x1.7ce09e475c9c0p-15",
        "0x1.fcd3f46f2eac0p-12", "0x1.4e23181e76d19p-15",
        "0x1.f0bcb0e4d4ef9p-30", "0x1.b923ae2176deep-106",
        "0x1.47b497cea6e42p-7", "0x1.c651e619f03c4p-8",
        "0x1.79454b94ed89dp-6", "0x1.79435b61c9dbbp-5",
    ),
}

#: Coverage of a 4-server WebServiceModel (None = perfect) ->
#: deadline_availability at DEADLINES.
DEADLINE = {
    None: (
        "0x1.41f26e641b22ap-1", "0x1.fc8311a9d0465p-1",
        "0x1.ffff7f00c7496p-1",
    ),
    0.98: (
        "0x1.41f1e1df43becp-1", "0x1.fc8233b714208p-1",
        "0x1.fffe9f8887896p-1",
    ),
}

#: ``repro policies`` with every default.
RENDERED = (
    'Client-policy ranking\n'
    'rank | policy                 | weighted mean | worst       | worst scenario\n'
    '-----+------------------------+---------------+-------------+---------------\n'
    '1    | retry(k=3, p=1)        | 0.999944702   | 0.998907178 | critical\n'
    '2    | breaker(f=3, reset=30) | 0.97920753    | 0.693189052 | critical\n'
    '3    | timeout(t=0.05)        | 0.957830012   | 0.40727556  | critical\n'
    '4    | hedge(t=0.05, d=0.02)  | 0.947515908   | 0.069628155 | critical\n'
    '\n'
    'Policy x scenario cells\n'
    'policy                 | scenario | attempt A   | effective A\n'
    '-----------------------+----------+-------------+------------\n'
    'retry(k=3, p=1)        | nominal  | 0.999996263 | 1\n'
    'retry(k=3, p=1)        | surge    | 0.999870355 | 1\n'
    'retry(k=3, p=1)        | degraded | 0.949381107 | 0.999993435\n'
    'retry(k=3, p=1)        | critical | 0.818181818 | 0.998907178\n'
    'breaker(f=3, reset=30) | nominal  | 0.999996263 | 0.999996263\n'
    'breaker(f=3, reset=30) | surge    | 0.999870355 | 0.999870355\n'
    'breaker(f=3, reset=30) | degraded | 0.949381107 | 0.945701401\n'
    'breaker(f=3, reset=30) | critical | 0.818181818 | 0.693189052\n'
    'timeout(t=0.05)        | nominal  | 0.999996263 | 0.993189838\n'
    'timeout(t=0.05)        | surge    | 0.999870355 | 0.992809933\n'
    'timeout(t=0.05)        | degraded | 0.949381107 | 0.933118578\n'
    'timeout(t=0.05)        | critical | 0.818181818 | 0.40727556\n'
    'hedge(t=0.05, d=0.02)  | nominal  | 0.999996263 | 0.999653161\n'
    'hedge(t=0.05, d=0.02)  | surge    | 0.999870355 | 0.999602173\n'
    'hedge(t=0.05, d=0.02)  | degraded | 0.949381107 | 0.943369615\n'
    'hedge(t=0.05, d=0.02)  | critical | 0.818181818 | 0.069628155\n'
    '\n'
    'best policy: retry(k=3, p=1) (weighted mean 0.999944702)\n'
)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("servers,buffer", FARMS)
def test_comparison_cells_are_bit_identical(rate, servers, buffer):
    report = run_policy_comparison(
        arrival_rate=rate, servers=servers, buffer=buffer
    )
    assert len(report.cells) == 16
    for cell in report.cells:
        family = cell.policy.split("(")[0]
        assert tuple(name for name, _ in cell.detail) == DETAIL_NAMES[family]
        got = tuple(
            value.hex()
            for value in (cell.availability, cell.attempt_availability)
            + tuple(value for _, value in cell.detail)
        )
        key = (rate, servers, buffer, cell.policy, cell.scenario)
        assert got == CELLS[key], key


def test_every_pinned_cell_is_evaluated():
    assert {key[:3] for key in CELLS} == {
        (rate,) + farm for rate in RATES for farm in FARMS
    }
    assert len(CELLS) == 16 * len(RATES) * len(FARMS)


@pytest.mark.parametrize("key", sorted(BREAKER))
def test_breaker_is_bit_identical(key):
    availability, threshold, reset = key
    result = circuit_breaker_availability(
        availability,
        CircuitBreakerPolicy(failure_threshold=threshold, reset_timeout=reset),
    )
    assert tuple(
        value.hex()
        for value in (
            result.attempt_availability,
            result.availability,
            result.closed_probability,
            result.open_probability,
            result.half_open_probability,
            result.short_circuit_probability,
        )
    ) == BREAKER[key]


@pytest.mark.parametrize("policy", default_client_policies())
def test_total_outage_cell_is_zero(policy):
    cell = evaluate_policy_cell(
        policy, FarmFaultScenario("outage", servers_up=0), 100.0, 100.0, 10
    )
    assert cell.availability.hex() == "0x0.0p+0"
    assert cell.attempt_availability.hex() == "0x0.0p+0"
    assert cell.detail == ()


@pytest.mark.parametrize("key", sorted(RESPONSE))
def test_response_time_functions_are_bit_identical(key):
    rate, servers, buffer = key
    queue = MMCKQueue(rate, 100.0, servers, buffer)
    values = (
        [response_time_survival(queue, t) for t in SURVIVAL_TIMES]
        + [waiting_time_survival(queue, t) for t in SURVIVAL_TIMES]
        + [mean_conditional_response_time(queue)]
        + [response_time_quantile(queue, p) for p in QUANTILES]
    )
    assert tuple(value.hex() for value in values) == RESPONSE[key]


@pytest.mark.parametrize("coverage", sorted(DEADLINE, key=repr))
def test_deadline_availability_is_bit_identical(coverage):
    imperfect = {}
    if coverage is not None:
        imperfect = {"coverage": coverage, "reconfiguration_rate": 12.0}
    model = WebServiceModel(
        servers=4, arrival_rate=100.0, service_rate=100.0,
        buffer_capacity=10, failure_rate=1e-3, repair_rate=1.0,
        **imperfect,
    )
    assert tuple(
        model.deadline_availability(d).hex() for d in DEADLINES
    ) == DEADLINE[coverage]


def test_rendered_comparison_is_byte_identical():
    report = run_policy_comparison()
    assert policy_comparison_text(report) + "\n" == RENDERED
