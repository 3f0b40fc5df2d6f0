"""Set-up of one workload in a fresh interpreter, timed in parts.

Usage: ``python3 perfbench/setup_probe.py <campaign|analytic|server>``
with ``src`` on ``PYTHONPATH``.  Prints one JSON line with the parts
once the first operation could start, then exits.  The caller times the
whole child from spawn to that line, interpreter start-up included.
"""

import json
import sys
from time import perf_counter


def main(workload):
    started = perf_counter()
    import repro  # noqa: F401  (the import cost is what is measured)
    from repro import workloads  # noqa: F401

    if workload == "server":
        import repro.cli  # noqa: F401  (what ``repro serve`` imports)
        from repro import server  # noqa: F401
    from repro.engine import EvaluationEngine
    from repro.ta import TravelAgencyModel

    imported = perf_counter()
    TravelAgencyModel(architecture="redundant")
    TravelAgencyModel(architecture="basic")
    modelled = perf_counter()
    if workload == "campaign":
        # Warm the engine pool path: one tiny campaign at workers=2.
        workloads.run_fault_campaigns(
            "null", user_class="A", horizon=10.0, replications=2,
            seed=0, workers=2,
        )
    elif workload == "analytic":
        EvaluationEngine(workers=1)
    pooled = perf_counter()
    print(json.dumps({
        "import_s": imported - started,
        "model_s": modelled - imported,
        "pool_s": pooled - modelled,
    }), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
