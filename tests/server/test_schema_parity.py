"""CLI and server validate the shared workload parameters identically.

The cases are generated from the :mod:`repro.workloads` table, so a
workload added to it, or a parameter added to a workload, is covered on
both front ends without a new test.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from repro import workloads
from repro.cli import build_parser, main
from repro.engine import EvaluationEngine
from repro.errors import ValidationError
from repro.server import execute_job, parse_spec

#: server job kind -> the CLI subcommand taking the same parameters
KINDS = {w.kind: (w.command, w.params) for w in workloads.WORKLOADS}

each_workload = pytest.mark.parametrize(
    "workload", workloads.WORKLOADS, ids=lambda w: w.kind
)

SERVER_DOC = Path(__file__).parents[2] / "docs" / "SERVER.md"


def out_of_range(param):
    """A value just outside *param*'s bounds (below, else above)."""
    if param.low is not None:
        if param.type is float and param.low_open:
            return param.low
        return param.low - 1
    return param.high + 1


def above_range(param):
    """A value just above *param*'s upper bound."""
    if param.high_open:
        return param.high
    return param.high + 1


def upper_bound_cases(kinds=KINDS):
    return [
        pytest.param(kind, command, param, id=f"{kind}-{param.name}")
        for kind, (command, params) in kinds.items()
        for param in params
        if param.type in (int, float) and param.high is not None
    ]


def numeric_cases(kinds=KINDS):
    return [
        pytest.param(kind, command, param, id=f"{kind}-{param.name}")
        for kind, (command, params) in kinds.items()
        for param in params
        if param.type in (int, float)
    ]


@pytest.mark.parametrize("kind,command,param", numeric_cases())
class TestBothFrontEndsRejectTheSameValues:
    def test_out_of_range_on_the_cli(self, capsys, kind, command, param):
        argv = [command, param.flag, str(out_of_range(param))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert param.flag in err

    def test_out_of_range_in_a_spec(self, kind, command, param):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec(kind, {param.name: out_of_range(param)})
        assert str(excinfo.value).startswith(param.name)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_on_the_cli(
        self, capsys, kind, command, param, value
    ):
        argv = [command, param.flag, value]
        if param.type is int:
            # argparse's type=int refuses these before validation runs.
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert param.flag in capsys.readouterr().err
        else:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert err.count("\n") == 1
            assert param.flag in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_in_a_spec(self, kind, command, param, value):
        with pytest.raises(ValidationError) as excinfo:
            parse_spec(kind, {param.name: value})
        assert str(excinfo.value).startswith(param.name)


@pytest.mark.parametrize("kind,command,param", upper_bound_cases())
def test_both_front_ends_reject_above_the_upper_bound_before_any_work(
    monkeypatch, capsys, kind, command, param
):
    def no_work(*args, **kwargs):
        pytest.fail(f"{param.name}={above_range(param)} reached an engine")

    monkeypatch.setattr(EvaluationEngine, "__init__", no_work)
    monkeypatch.setattr("repro.engine.executor.ProcessPoolExecutor", no_work)
    value = above_range(param)
    assert main([command, param.flag, str(value)]) == 2
    err = capsys.readouterr().err
    with pytest.raises(ValidationError) as excinfo:
        parse_spec(kind, {param.name: value})
    message = str(excinfo.value)
    assert message.startswith(param.name)
    assert err == f"error: {param.flag}{message[len(param.name):]}\n"
    # The bound itself is accepted.
    if not param.high_open:
        assert parse_spec(kind, {param.name: param.high})[param.name] == (
            param.high
        )


def test_every_size_parameter_has_an_upper_bound():
    for param in (
        workloads.SERVERS, workloads.BUFFER, workloads.BREAKER_THRESHOLD,
        workloads.SERVERS_MAX, workloads.WORKERS, workloads.REPLICATIONS,
        workloads.HORIZON,
    ):
        assert param.high is not None, param.name


def test_a_horizon_past_its_bound_is_a_one_line_error(capsys):
    # One replication's horizon is how long a parallel campaign runs on
    # after a cancel, so an unbounded one could hold a slot for hours.
    with pytest.raises(ValidationError) as excinfo:
        parse_spec("campaign", {"horizon": 1e6})
    message = str(excinfo.value)
    assert message.startswith("horizon ")
    assert "\n" not in message
    assert main(["inject", "--horizon", "1e6"]) == 2
    assert capsys.readouterr().err == (
        "error: --horizon must be a number in (0, 100000], got 1000000.0\n"
    )


@each_workload
def test_cli_defaults_are_the_schema_defaults(workload):
    params = workload.params
    args = vars(build_parser().parse_args([workload.command]))
    assert {p.name: args[p.name] for p in params} == {
        p.name: p.default for p in params
    }
    spec = parse_spec(workload.kind, {})
    server_only = {name for name, _ in workload.server_defaults}
    assert {
        p.name: spec[p.name] for p in params if p.name not in server_only
    } == {p.name: p.default for p in params if p.name not in server_only}


def test_policies_job_text_matches_the_cli_with_policy_keys():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(
        io.StringIO()
    ):
        assert main(
            ["policies", "--max-retries", "1", "--timeout", "0.1"]
        ) == 0
    spec = parse_spec("policies", {"max_retries": 1, "timeout": 0.1})
    assert execute_job("policies", spec)["text"] + "\n" == buffer.getvalue()


@each_workload
def test_the_server_doc_job_table_names_every_param(workload):
    (row,) = [
        line for line in SERVER_DOC.read_text().splitlines()
        if line.startswith(
            f"| `POST /v1/{workload.route}` | `{workload.kind}` |"
        )
    ]
    documented = set(re.findall(r"`(\w+)` \(", row))
    assert {p.name for p in workload.params} <= documented
    assert f"`repro {workload.command}`" in row
