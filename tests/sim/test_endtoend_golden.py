"""Golden identity test for the end-to-end simulator.

Every :class:`~repro.sim.EndToEndResult` field is pinned bit for bit
(floats as :meth:`float.hex`) for the ``null``, ``lan-host`` and
``web-degraded`` campaign scenarios on both architectures and both user
classes, together with the generator state after return (which pins the
number and order of draws) and the full observer call sequence of one
``web-degraded`` replication.  Any change to draw order, float-summation
order, event tie-breaking or memo invalidation fails here, so the
simulator's inner loop can be rewritten for speed only if it stays
byte-identical.

The values were recorded from the straightforward dict-of-bool loop the
simulator used before it was compiled to an index-based one.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.sim import simulate_user_availability_over_time
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel
from repro.workloads import fault_scenario_factories

HORIZON = 2000.0
SEEDS = (1000, 1001)
CLASSES = {"A": CLASS_A, "B": CLASS_B}
FLOAT_FIELDS = (
    "horizon",
    "average_user_availability",
    "fraction_fully_available",
    "fraction_total_outage",
)
INT_FIELDS = ("resource_transitions", "fault_events_applied")


@functools.lru_cache(maxsize=None)
def _model(architecture):
    return TravelAgencyModel(architecture=architecture).hierarchical_model


def _replicate(scenario, architecture, user_class, seed, observer=None):
    """One campaign-style replication: compile the faults, then simulate
    on the same generator, exactly as ``repro inject`` does."""
    model = _model(architecture)
    built = fault_scenario_factories()[scenario](model)
    rng = np.random.default_rng(seed)
    faults = built.compile(model, HORIZON, rng)
    result = simulate_user_availability_over_time(
        model, CLASSES[user_class], HORIZON, rng,
        faults=faults, observer=observer,
    )
    return result, rng


def _pcg_state(rng):
    state = rng.bit_generator.state
    return (
        state["state"]["state"],
        state["state"]["inc"],
        state["has_uint32"],
        state["uinteger"],
    )


def _exact(value):
    """Bit-exact text of a number; keeps int vs float apart (an empty
    sum of session weights is the int ``0``)."""
    return value.hex() if isinstance(value, float) else repr(value)


class _RecordingObserver:
    """Serializes every observer call, floats as hex."""

    def __init__(self):
        self.lines = []

    def interval(self, start, end, availability):
        self.lines.append(
            f"interval {_exact(start)} {_exact(end)} {_exact(availability)}"
        )

    def fault(self, time, event):
        factors = ",".join(
            f"{name}={_exact(value)}"
            for name, value in sorted(event.service_factors.items())
        )
        self.lines.append(
            f"fault {_exact(time)} down={sorted(event.force_down)} "
            f"release={sorted(event.release)} factors={factors}"
        )

    def digest(self):
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


GOLDEN = {
    ("lan-host", "basic", "A", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.94f6afa58cf56p-1",
        "fraction_fully_available": "0x1.40963eb46f655p-3",
        "fraction_total_outage": "0x1.140227e268ecdp-3",
        "resource_transitions": 7160,
        "fault_events_applied": 38,
        "rng_state": (
            149507133271083603723675413039108199368,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("lan-host", "basic", "A", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.94e8d91744f73p-1",
        "fraction_fully_available": "0x1.385e574a580dfp-3",
        "fraction_total_outage": "0x1.192ecee0716f2p-3",
        "resource_transitions": 7055,
        "fault_events_applied": 54,
        "rng_state": (
            159562973884209974225481419019553873383,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("lan-host", "basic", "B", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.89681fb38572bp-1",
        "fraction_fully_available": "0x1.40963eb46f655p-3",
        "fraction_total_outage": "0x1.140227e268ecdp-3",
        "resource_transitions": 7160,
        "fault_events_applied": 38,
        "rng_state": (
            149507133271083603723675413039108199368,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("lan-host", "basic", "B", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.89861e45c7f09p-1",
        "fraction_fully_available": "0x1.385e574a580dfp-3",
        "fraction_total_outage": "0x1.192ecee0716f2p-3",
        "resource_transitions": 7055,
        "fault_events_applied": 54,
        "rng_state": (
            159562973884209974225481419019553873383,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("lan-host", "redundant", "A", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.e5d1abb069ff2p-1",
        "fraction_fully_available": "0x1.38a4198a896a8p-3",
        "fraction_total_outage": "0x1.38b670df209d1p-5",
        "resource_transitions": 7288,
        "fault_events_applied": 38,
        "rng_state": (
            337267699644004296333070470794329177315,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("lan-host", "redundant", "A", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.dcbb962de912dp-1",
        "fraction_fully_available": "0x1.0e4582264dd0fp-3",
        "fraction_total_outage": "0x1.cf68f55ee75e3p-5",
        "resource_transitions": 7266,
        "fault_events_applied": 54,
        "rng_state": (
            88190590480100246802785113944443873991,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("lan-host", "redundant", "B", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.deb2c56be9ecbp-1",
        "fraction_fully_available": "0x1.38a4198a896a8p-3",
        "fraction_total_outage": "0x1.38b670df209d1p-5",
        "resource_transitions": 7288,
        "fault_events_applied": 38,
        "rng_state": (
            337267699644004296333070470794329177315,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("lan-host", "redundant", "B", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.d53a66627b8efp-1",
        "fraction_fully_available": "0x1.0e4582264dd0fp-3",
        "fraction_total_outage": "0x1.cf68f55ee75e3p-5",
        "resource_transitions": 7266,
        "fault_events_applied": 54,
        "rng_state": (
            88190590480100246802785113944443873991,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("null", "basic", "A", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.a48164740846ep-1",
        "fraction_fully_available": "0x1.4244f1c77d4a4p-3",
        "fraction_total_outage": "0x1.bc914abcd1711p-4",
        "resource_transitions": 7202,
        "fault_events_applied": 0,
        "rng_state": (
            115891655115394878657415671237396627246,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("null", "basic", "A", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.a318a641400b7p-1",
        "fraction_fully_available": "0x1.282ff1415b9b6p-3",
        "fraction_total_outage": "0x1.b2befedc0988bp-4",
        "resource_transitions": 7241,
        "fault_events_applied": 0,
        "rng_state": (
            295046458631269935584079275994775623077,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("null", "basic", "B", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.984503c881291p-1",
        "fraction_fully_available": "0x1.4244f1c77d4a4p-3",
        "fraction_total_outage": "0x1.bc914abcd1711p-4",
        "resource_transitions": 7202,
        "fault_events_applied": 0,
        "rng_state": (
            115891655115394878657415671237396627246,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("null", "basic", "B", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.969c6019c7b93p-1",
        "fraction_fully_available": "0x1.282ff1415b9b6p-3",
        "fraction_total_outage": "0x1.b2befedc0988bp-4",
        "resource_transitions": 7241,
        "fault_events_applied": 0,
        "rng_state": (
            295046458631269935584079275994775623077,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("null", "redundant", "A", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.f5c4318e1c569p-1",
        "fraction_fully_available": "0x1.3a2f7e4f81a9bp-3",
        "fraction_total_outage": "0x1.f145972481a1dp-8",
        "resource_transitions": 7234,
        "fault_events_applied": 0,
        "rng_state": (
            100349809894065103173348445176815903904,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("null", "redundant", "A", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.f4ffd1a47f8ddp-1",
        "fraction_fully_available": "0x1.19ee8a2e1f464p-3",
        "fraction_total_outage": "0x1.107b0f61d8ffcp-7",
        "resource_transitions": 7300,
        "fault_events_applied": 0,
        "rng_state": (
            326603519091918288719949230514461041171,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("null", "redundant", "B", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.ef04431b4b073p-1",
        "fraction_fully_available": "0x1.3a2f7e4f81a9bp-3",
        "fraction_total_outage": "0x1.f145972481a1dp-8",
        "resource_transitions": 7234,
        "fault_events_applied": 0,
        "rng_state": (
            100349809894065103173348445176815903904,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("null", "redundant", "B", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.ed8ee8812c1bbp-1",
        "fraction_fully_available": "0x1.19ee8a2e1f464p-3",
        "fraction_total_outage": "0x1.107b0f61d8ffcp-7",
        "resource_transitions": 7300,
        "fault_events_applied": 0,
        "rng_state": (
            326603519091918288719949230514461041171,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("web-degraded", "basic", "A", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.a6264ebbe1935p-1",
        "fraction_fully_available": "0x1.2653c55850f4fp-3",
        "fraction_total_outage": "0x1.54994d9aefbdep-4",
        "resource_transitions": 7241,
        "fault_events_applied": 67,
        "rng_state": (
            306526689152739785659966697763148116610,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("web-degraded", "basic", "A", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.9ef6eb24e49f3p-1",
        "fraction_fully_available": "0x1.437e1d3e480a2p-3",
        "fraction_total_outage": "0x1.a57e05cb2e38dp-4",
        "resource_transitions": 7114,
        "fault_events_applied": 78,
        "rng_state": (
            24086573897862111303026712263273317880,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("web-degraded", "basic", "B", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.995d1b321ce7fp-1",
        "fraction_fully_available": "0x1.2653c55850f4fp-3",
        "fraction_total_outage": "0x1.54994d9aefbdep-4",
        "resource_transitions": 7241,
        "fault_events_applied": 67,
        "rng_state": (
            306526689152739785659966697763148116610,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("web-degraded", "basic", "B", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.93059878470f3p-1",
        "fraction_fully_available": "0x1.437e1d3e480a2p-3",
        "fraction_total_outage": "0x1.a57e05cb2e38dp-4",
        "resource_transitions": 7114,
        "fault_events_applied": 78,
        "rng_state": (
            24086573897862111303026712263273317880,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("web-degraded", "redundant", "A", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.ef4b1487f508ap-1",
        "fraction_fully_available": "0x1.241da2ce09f00p-3",
        "fraction_total_outage": "0x1.8ee23289ad66fp-8",
        "resource_transitions": 7321,
        "fault_events_applied": 67,
        "rng_state": (
            177354193333454304944707392392028405765,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("web-degraded", "redundant", "A", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.eff19cc8ec67bp-1",
        "fraction_fully_available": "0x1.3552a9d5a7fbdp-3",
        "fraction_total_outage": "0x1.e23627a6e6604p-9",
        "resource_transitions": 7236,
        "fault_events_applied": 78,
        "rng_state": (
            294537359953974394290762257059230563833,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
    ("web-degraded", "redundant", "B", 1000): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.e7af2fcea3051p-1",
        "fraction_fully_available": "0x1.241da2ce09f00p-3",
        "fraction_total_outage": "0x1.8ee23289ad66fp-8",
        "resource_transitions": 7321,
        "fault_events_applied": 67,
        "rng_state": (
            177354193333454304944707392392028405765,
            119065948144835586474643535142778641169,
            0,
            0,
        ),
    },
    ("web-degraded", "redundant", "B", 1001): {
        "horizon": "0x1.f400000000000p+10",
        "average_user_availability": "0x1.e938fb70a5ab1p-1",
        "fraction_fully_available": "0x1.3552a9d5a7fbdp-3",
        "fraction_total_outage": "0x1.e23627a6e6604p-9",
        "resource_transitions": 7236,
        "fault_events_applied": 78,
        "rng_state": (
            294537359953974394290762257059230563833,
            75832438150325598680414078138474848963,
            0,
            0,
        ),
    },
}

OBSERVER_CALLS = 7456
OBSERVER_DIGEST = (
    "71a5ce4a49c4243c1526770ee121632d9ab1695c13479b928c0abbf231182265"
)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_result_fields_and_draw_count(case):
    scenario, architecture, user_class, seed = case
    result, rng = _replicate(scenario, architecture, user_class, seed)
    expected = GOLDEN[case]
    got = {name: getattr(result, name).hex() for name in FLOAT_FIELDS}
    got.update({name: getattr(result, name) for name in INT_FIELDS})
    got["rng_state"] = _pcg_state(rng)
    assert got == expected


def test_observer_call_sequence():
    observer = _RecordingObserver()
    result, _ = _replicate(
        "web-degraded", "redundant", "A", SEEDS[0], observer=observer)
    faults = sum(line.startswith("fault ") for line in observer.lines)
    assert faults == result.fault_events_applied
    assert len(observer.lines) == OBSERVER_CALLS
    assert observer.digest() == OBSERVER_DIGEST

