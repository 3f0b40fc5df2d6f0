"""Golden values for the cloud comparison, pinned bit for bit.

Every cell of the ``repro cloud`` grid, the default deployment's
per-scenario, per-function and database availabilities, and one
rendered ranking are pinned as ``float.hex`` / exact text.  Exact
inference is deterministic (fixed elimination order, fixed summation
order), so any change to how the network is solved or cached must
leave every bit of these values where it is.
"""

import pytest

from repro.bayes import (
    CLOUD_CHAINS,
    CloudTravelAgency,
    evaluate_cloud_scenario,
)
from repro.ta import CLASS_A, CLASS_B
from repro.workloads import (
    cloud_comparison_text,
    default_cloud_scenarios,
    run_cloud_comparison,
)

RATES = (50.0, 100.0, 200.0)
ZONE_AVAILABILITIES = (0.9995, 0.999)

#: (arrival rate, zone availability, scenario) -> (class A, class B, web).
CELLS = {
    (50.0, 0.9995, "single-zone"): (
        "0x1.ff8a99ae17a71p-1",
        "0x1.ff87300e4df94p-1",
        "0x1.ffbe7694d704dp-1",
    ),
    (50.0, 0.9995, "two-zone"): (
        "0x1.ffcc10cf55e94p-1",
        "0x1.ffc8a6bfbf1cbp-1",
        "0x1.fffff75dd8251p-1",
    ),
    (50.0, 0.9995, "two-zone-overprovisioned"): (
        "0x1.ffcc0e54cec7dp-1",
        "0x1.ffc8a4453cbadp-1",
        "0x1.fffff79a7e752p-1",
    ),
    (50.0, 0.9995, "three-zone"): (
        "0x1.ffcbfc27375a8p-1",
        "0x1.ffc89217c9629p-1",
        "0x1.fffffff9641c6p-1",
    ),
    (50.0, 0.9995, "three-zone-strict-quorum"): (
        "0x1.fef8014a33003p-1",
        "0x1.fef498cd05393p-1",
        "0x1.fffffff9641c7p-1",
    ),
    (50.0, 0.999, "single-zone"): (
        "0x1.ff49171b1da90p-1",
        "0x1.ff45adeb3537fp-1",
        "0x1.ff7ced5d91e28p-1",
    ),
    (50.0, 0.999, "two-zone"): (
        "0x1.ffcbf4991e67cp-1",
        "0x1.ffc88a89b85bcp-1",
        "0x1.ffffde289f470p-1",
    ),
    (50.0, 0.999, "two-zone-overprovisioned"): (
        "0x1.ffcbef25adf43p-1",
        "0x1.ffc88516524dep-1",
        "0x1.ffffde6ffe41bp-1",
    ),
    (50.0, 0.999, "three-zone"): (
        "0x1.ffcbaf41450a4p-1",
        "0x1.ffc8453268fccp-1",
        "0x1.fffffff1c7f4cp-1",
    ),
    (50.0, 0.999, "three-zone-strict-quorum"): (
        "0x1.fe477245cd7d0p-1",
        "0x1.fe440b17a8da9p-1",
        "0x1.fffffff1c7f4cp-1",
    ),
    (100.0, 0.9995, "single-zone"): (
        "0x1.ff8a1c486c65cp-1",
        "0x1.ff86b2a978e00p-1",
        "0x1.ffbdf922751e5p-1",
    ),
    (100.0, 0.9995, "two-zone"): (
        "0x1.ffcb7d12f6bc6p-1",
        "0x1.ffc813045c3e7p-1",
        "0x1.ffff6391fa5a2p-1",
    ),
    (100.0, 0.9995, "two-zone-overprovisioned"): (
        "0x1.ffcc096f4e467p-1",
        "0x1.ffc89f5fc4964p-1",
        "0x1.fffff2b47d637p-1",
    ),
    (100.0, 0.9995, "three-zone"): (
        "0x1.ffcbeec5040e0p-1",
        "0x1.ffc884b5acf0bp-1",
        "0x1.fffff291f3c40p-1",
    ),
    (100.0, 0.9995, "three-zone-strict-quorum"): (
        "0x1.fef7f41437ab9p-1",
        "0x1.fef48b97206b3p-1",
        "0x1.fffff291f3c3fp-1",
    ),
    (100.0, 0.999, "single-zone"): (
        "0x1.ff4899c581795p-1",
        "0x1.ff4530966f14ep-1",
        "0x1.ff7c6ffb40ae8p-1",
    ),
    (100.0, 0.999, "two-zone"): (
        "0x1.ffcb4a9bd319bp-1",
        "0x1.ffc7e08d8f5d9p-1",
        "0x1.ffff34190fb8dp-1",
    ),
    (100.0, 0.999, "two-zone-overprovisioned"): (
        "0x1.ffcbea2155e12p-1",
        "0x1.ffc8801202cc4p-1",
        "0x1.ffffd96b21034p-1",
    ),
    (100.0, 0.999, "three-zone"): (
        "0x1.ffcba1b2d29b1p-1",
        "0x1.ffc837a40db19p-1",
        "0x1.fffff252756c6p-1",
    ),
    (100.0, 0.999, "three-zone-strict-quorum"): (
        "0x1.fe47650ecb0bdp-1",
        "0x1.fe43fde0bce75p-1",
        "0x1.fffff252756c5p-1",
    ),
    (200.0, 0.9995, "single-zone"): (
        "0x1.fed80a10e7063p-1",
        "0x1.fed4a1a210de6p-1",
        "0x1.ff0bd4dd27608p-1",
    ),
    (200.0, 0.9995, "two-zone"): (
        "0x1.ff0d1cde3a99bp-1",
        "0x1.ff09b414c10eap-1",
        "0x1.ff40efc6f7d16p-1",
    ),
    (200.0, 0.9995, "two-zone-overprovisioned"): (
        "0x1.ffc4d878f325cp-1",
        "0x1.ffc16e75b1809p-1",
        "0x1.fff8c10163c9cp-1",
    ),
    (200.0, 0.9995, "three-zone"): (
        "0x1.ffb84c116c389p-1",
        "0x1.ffb4e2239d6f0p-1",
        "0x1.ffec4bb90765fp-1",
    ),
    (200.0, 0.9995, "three-zone-strict-quorum"): (
        "0x1.fee49036cdbc9p-1",
        "0x1.fee127dac7930p-1",
        "0x1.ffec4bb90765fp-1",
    ),
    (200.0, 0.999, "single-zone"): (
        "0x1.fe969e5bf0837p-1",
        "0x1.fe93365cd48acp-1",
        "0x1.feca6286373ccp-1",
    ),
    (200.0, 0.999, "two-zone"): (
        "0x1.ff00b65ea1924p-1",
        "0x1.fefd4daa5609fp-1",
        "0x1.ff348abfce2d6p-1",
    ),
    (200.0, 0.999, "two-zone-overprovisioned"): (
        "0x1.ffc48d6e6a5c8p-1",
        "0x1.ffc1236baa041p-1",
        "0x1.fff87bf4ee798p-1",
    ),
    (200.0, 0.999, "three-zone"): (
        "0x1.ffb7c1864a8ccp-1",
        "0x1.ffb4579975ba5p-1",
        "0x1.ffec078ac05a2p-1",
    ),
    (200.0, 0.999, "three-zone-strict-quorum"): (
        "0x1.fe340117f978ep-1",
        "0x1.fe309a0aefb8ap-1",
        "0x1.ffec078ac05a1p-1",
    ),
}

#: The default deployment's eq.-(10) results, in scenario order.
USER_CLASSES = {
    "class A": (
        "0x1.ffcbeec5040e0p-1",
        (
            "0x1.ffcdffb5280b9p-1",
            "0x1.ffce23e41d1bfp-1",
            "0x1.ffcdffb5280b9p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffb392ca88c42p-1",
            "0x1.ffb392ca88c42p-1",
            "0x1.ffb392ca88c42p-1",
        ),
    ),
    "class B": (
        "0x1.ffc884b5acf0bp-1",
        (
            "0x1.ffcdffb5280b9p-1",
            "0x1.ffce23e41d1bfp-1",
            "0x1.ffcdffb5280b9p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffcdc71b2dff8p-1",
            "0x1.ffb392ca88c42p-1",
            "0x1.ffb392ca88c42p-1",
            "0x1.ffb392ca88c42p-1",
        ),
    ),
}

FUNCTIONS = {
    "book": "0x1.ffcdc71b2dff8p-1",
    "browse": "0x1.ffcdffb5280b9p-1",
    "home": "0x1.ffce23e41d1bfp-1",
    "pay": "0x1.ffb3cb619ced4p-1",
    "search": "0x1.ffcdc71b2dff8p-1",
}

DB = "0x1.ffffdbc8206eap-1"

RENDERED = (
    "Cloud Travel Agency — alpha = 100/s, zone availability 0.9995\n"
    "deployment               | zones | A(class A) | A(class B) | mean      | downtime\n"
    "-------------------------+-------+------------+------------+-----------+------------\n"
    "two-zone-overprovisioned | 2     | 0.9996036  | 0.9995775  | 0.9995905 | 3.6 h/year\n"
    "three-zone               | 3     | 0.9996028  | 0.9995767  | 0.9995897 | 3.6 h/year\n"
    "two-zone                 | 2     | 0.9995994  | 0.9995733  | 0.9995863 | 3.6 h/year\n"
    "single-zone              | 1     | 0.9991006  | 0.9990745  | 0.9990876 | 8.0 h/year\n"
    "three-zone-strict-quorum | 3     | 0.9979855  | 0.9979595  | 0.9979725 | 17.8 h/year\n"
    "\n"
    "best deployment: two-zone-overprovisioned (mean availability 0.999590528, 3.6 h/year)\n"
)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("zone", ZONE_AVAILABILITIES)
def test_comparison_cells_are_bit_identical(rate, zone):
    for scenario in default_cloud_scenarios(
        arrival_rate=rate, zone_availability=zone
    ):
        cell = evaluate_cloud_scenario(scenario)
        assert (
            cell.class_a.hex(), cell.class_b.hex(), cell.web.hex()
        ) == CELLS[(rate, zone, scenario.name)], scenario.name


def test_default_agency_is_bit_identical():
    agency = CloudTravelAgency()
    for user_class in (CLASS_A, CLASS_B):
        result = agency.user_availability(user_class)
        total, per_scenario = USER_CLASSES[user_class.name]
        assert result.availability.hex() == total
        assert tuple(
            s.availability.hex() for s in result.per_scenario
        ) == per_scenario
    assert {
        function: agency.function_availability(function).hex()
        for function in CLOUD_CHAINS
    } == FUNCTIONS
    assert agency.db_availability().hex() == DB


def test_rendered_comparison_is_byte_identical():
    report = run_cloud_comparison(arrival_rate=100.0, zone_availability=0.9995)
    assert cloud_comparison_text(report, 100.0, 0.9995) + "\n" == RENDERED
