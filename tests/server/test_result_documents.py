"""Every workload's server result document, pinned value for value.

``result_documents.json`` holds, for each kind of the
:mod:`repro.workloads` table, the document ``execute_job`` returns for
the default spec and for one non-default spec: the rendered ``text``
and every structured field (sweep ``series``/``cells``, policies and
cloud ``best``, cloud ``ranking``, campaign ``calibrated``/
``campaigns``).  Floats are stored as JSON reprs, which round-trip
exactly.  A workload added to the table fails here until it is pinned.
"""

import json
from pathlib import Path

import pytest

from repro import workloads
from repro.server import execute_job, parse_spec

PINNED = json.loads(
    (Path(__file__).parent / "result_documents.json").read_text()
)


@pytest.mark.parametrize(
    "workload", workloads.WORKLOADS, ids=lambda w: w.kind
)
def test_result_documents_are_pinned(workload):
    cases = [case for case in PINNED if case["kind"] == workload.kind]
    assert [bool(case["spec"]) for case in cases] == [False, True]
    for case in cases:
        spec = parse_spec(workload.kind, case["spec"])
        assert execute_job(workload.kind, spec) == case["result"]
