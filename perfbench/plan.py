"""Seeded operation lists for the three workloads.

The workload seed is the only input; the program under test receives
the generated operations.  Kinds are drawn in fixed blocks that are
shuffled per seed, so every whole block has exactly the same mix
shares whatever the seed, while the order and parameters change.
``random.Random`` seeded with a string is deterministic across runs and
interpreters (it hashes the string with SHA-512, not ``hash()``).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

#: Never run while this benchmark was built or tuned: a later gain claim
#: re-checks its result on this seed.
HELD_OUT_SEED = 7919

# -- campaign: fault-injection campaigns, as ``repro inject`` runs them --
CAMPAIGN_BLOCK = tuple(
    (scenario, architecture)
    for scenario in ("null", "lan-host", "web-degraded")
    for architecture in ("basic", "redundant")
)
#: Smaller than ``repro inject``'s default of 6 replications x 5000 h, so
#: a run holds ~150 campaigns for its percentiles.  Each campaign still
#: starts a pool per user class, so pool start-up weighs more in the
#: engine's shares than it does at the default size (see README).
CAMPAIGN_HORIZON = 1000.0
CAMPAIGN_REPLICATIONS = 4
CAMPAIGN_WORKERS = 2

# -- analytic: a capacity planner's serial evaluation stream -------------
#: A ``+`` slot repeats one of the last RECENT fresh specs of its kind (a
#: memo-cache hit); the others draw a fresh arrival rate (a miss).  Fixed
#: slots make the hit share the same for every seed and run length.
#: The shares are chosen, not measured from a planner's traffic: ranked
#: by cost, a block is three hits (~1 ms), a fresh sweep (~3 ms),
#: four fresh policy comparisons (~12 ms), Table 8 (~17 ms) and a fresh
#: cloud comparison (~95 ms): the median lands inside the policies
#: cluster and the 95th percentile inside the cloud cluster, not on the
#: edge between two clusters, where it would jump with the draw.
ANALYTIC_BLOCK = (
    "table8", "sweep", "sweep+", "policies", "policies", "policies",
    "policies", "policies+", "cloud", "cloud+",
)
RECENT = 8
SWEEP_SERVERS_MAX = 10

# -- server: an open-loop Poisson job stream -----------------------------
SERVER_BLOCK = (
    ("sweep",) * 4 + ("policies",) * 2 + ("cloud",) * 2 + ("campaign",) * 2
)
SERVER_SWEEP_SERVERS_MAX = 8
SERVER_CAMPAIGN_HORIZON = 100.0
SERVER_CAMPAIGN_REPLICATIONS = 4
SERVER_CAMPAIGN_SCENARIOS = ("null", "lan-host", "web-degraded")

#: Arrival rates are drawn from this range (requests/s); every value in
#: it is a valid, non-saturated input for all three analytic models.
RATE_RANGE = (50.0, 150.0)


def _rate(rng):
    return round(rng.uniform(*RATE_RANGE), 3)


def _blocks(rng, block):
    while True:
        kinds = list(block)
        rng.shuffle(kinds)
        yield from kinds


def campaign_ops(seed):
    """Endless campaign operations: one scenario, both user classes."""
    rng = random.Random(f"campaign:{seed}")
    for scenario, architecture in _blocks(rng, CAMPAIGN_BLOCK):
        yield {
            "kind": "campaign",
            "scenario": scenario,
            "architecture": architecture,
            "seed": rng.randrange(2**31),
        }


def analytic_ops(seed):
    """Endless analytic operations sharing one memo cache."""
    rng = random.Random(f"analytic:{seed}")
    recent = {"sweep": [], "policies": [], "cloud": []}
    for slot in _blocks(rng, ANALYTIC_BLOCK):
        kind = slot.rstrip("+")
        if kind == "table8":
            yield {"kind": "table8"}
            continue
        seen = recent[kind]
        if slot.endswith("+") and seen:
            yield dict(rng.choice(seen))
            continue
        op = {"kind": kind, "arrival_rate": _rate(rng)}
        if kind == "sweep":
            op["figure"] = rng.choice(("11", "12"))
            op["servers_max"] = SWEEP_SERVERS_MAX
        seen.append(op)
        del seen[:-RECENT]
        yield dict(op)


def server_ops(seed, rate, seconds):
    """The open-loop job stream offered over *seconds* at *rate* jobs/s.

    A Poisson stream conditioned on its count: ``round(rate * seconds)``
    arrival times drawn uniformly over the window, so every seed offers
    the same number of jobs.  Each op carries its scheduled send time
    ``at`` (seconds from the stream start) and the POST body ``spec``.
    """
    rng = random.Random(f"server:{seed}")
    ops = []
    count = round(rate * seconds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds = _blocks(rng, SERVER_BLOCK)
    for at in times:
        kind = next(kinds)
        if kind == "sweep":
            spec = {"figure": rng.choice(("11", "12")),
                    "arrival_rate": _rate(rng),
                    "servers_max": SERVER_SWEEP_SERVERS_MAX}
        elif kind == "campaign":
            spec = {"scenario": rng.choice(SERVER_CAMPAIGN_SCENARIOS),
                    "horizon": SERVER_CAMPAIGN_HORIZON,
                    "replications": SERVER_CAMPAIGN_REPLICATIONS,
                    "seed": rng.randrange(2**31)}
        else:
            spec = {"arrival_rate": _rate(rng)}
        ops.append({"kind": kind, "spec": spec, "at": round(at, 6)})
    return ops


def take(generator, count):
    return [next(generator) for _ in range(count)]


def digest(ops):
    """A short content hash of an operation list."""
    canonical = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def mix(ops):
    """``{kind: share}`` of an operation list."""
    counts = Counter(op["kind"] for op in ops)
    return {kind: counts[kind] / len(ops) for kind in sorted(counts)}

