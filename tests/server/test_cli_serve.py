"""CLI tests for ``repro serve`` and the shared int-flag validation."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.server import ServerClient


def one_line_error(capsys, argv, flag):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error:")
    assert flag in err
    return err


class TestServeFlagValidation:
    def test_port_above_range(self, capsys):
        err = one_line_error(capsys, ["serve", "--port", "70000"], "--port")
        assert "0..65535" in err

    def test_port_below_range(self, capsys):
        one_line_error(capsys, ["serve", "--port", "-1"], "--port")

    def test_zero_workers(self, capsys):
        one_line_error(capsys, ["serve", "--workers", "0"], "--workers")

    def test_zero_queue_limit(self, capsys):
        one_line_error(
            capsys, ["serve", "--queue-limit", "0"], "--queue-limit"
        )

    def test_queue_limit_below_workers(self, capsys):
        err = one_line_error(
            capsys,
            ["serve", "--workers", "4", "--queue-limit", "2"],
            "--queue-limit",
        )
        assert "--workers" in err


class TestSharedIntFlagValidation:
    """Every integer flag fails the same way, naming the flag."""

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--servers-max", "0"], "--servers-max"),
        (["chaos", "--injector", "transient", "--faults", "0"], "--faults"),
        (["chaos", "--injector", "transient", "--seed", "-1"], "--seed"),
        (["policies", "--servers", "0"], "--servers"),
        (["policies", "--buffer", "0"], "--buffer"),
        (["policies", "--breaker-threshold", "0"], "--breaker-threshold"),
        (["policies", "--max-retries", "-1"], "--max-retries"),
        (["retries", "--max-retries", "-2"], "--max-retries"),
        (["retries", "--simulate", "0"], "--simulate"),
        (["inject", "--replications", "0"], "--replications"),
        (["slo", "--replications", "0"], "--replications"),
        (["trace-report", "/nonexistent", "--top", "0"], "--top"),
        (["ta", "--reservations", "0"], "--reservations"),
        (["web", "--servers", "0"], "--servers"),
        (["web", "--buffer", "-1"], "--buffer"),
    ])
    def test_bad_value_exits_2_naming_the_flag(self, capsys, argv, flag):
        one_line_error(capsys, argv, flag)

    def test_zero_max_retries_stays_valid(self, capsys):
        assert main(["retries", "--max-retries", "0"]) == 0


class TestSharedFloatFlagValidation:
    """Every float flag fails the same way, naming the flag.

    ``argparse``'s ``type=float`` accepts ``nan`` and ``inf``; the
    shared ``_check_float_flag`` helper rejects both with the same
    one-line error as an out-of-range value.
    """

    @pytest.mark.parametrize("argv,flag", [
        (["web", "--arrival-rate", "0"], "--arrival-rate"),
        (["web", "--service-rate", "-1"], "--service-rate"),
        (["web", "--failure-rate", "nan"], "--failure-rate"),
        (["web", "--repair-rate", "inf"], "--repair-rate"),
        (["web", "--coverage", "1.5"], "--coverage"),
        (["web", "--reconfiguration-rate", "0"], "--reconfiguration-rate"),
        (["web", "--deadline", "0"], "--deadline"),
        (["sweep", "--arrival-rate", "0"], "--arrival-rate"),
        (["chaos", "--injector", "transient", "--arrival-rate", "-5"],
         "--arrival-rate"),
        (["inject", "--horizon", "0"], "--horizon"),
        (["retries", "--persistence", "1.5"], "--persistence"),
        (["retries", "--persistence", "-0.1"], "--persistence"),
        (["policies", "--arrival-rate", "inf"], "--arrival-rate"),
        (["policies", "--service-rate", "0"], "--service-rate"),
        (["policies", "--timeout", "0"], "--timeout"),
        (["policies", "--hedge-delay", "-0.5"], "--hedge-delay"),
        (["policies", "--hedge-delay", "0"], "--hedge-delay"),
        (["policies", "--breaker-reset", "0"], "--breaker-reset"),
        (["slo", "--session-rate", "0"], "--session-rate"),
        (["slo", "--horizon", "nan"], "--horizon"),
        (["slo", "--objective", "1"], "--objective"),
        (["slo", "--objective", "0"], "--objective"),
        (["slo", "--short-window", "0"], "--short-window"),
        (["slo", "--long-window", "-1"], "--long-window"),
        (["slo", "--burn-threshold", "0"], "--burn-threshold"),
        (["serve", "--slo-objective", "1"], "--slo-objective"),
        (["cloud", "--arrival-rate", "0"], "--arrival-rate"),
        (["cloud", "--service-rate", "nan"], "--service-rate"),
        (["cloud", "--zone-availability", "0"], "--zone-availability"),
        (["cloud", "--zone-availability", "1.0001"], "--zone-availability"),
    ])
    def test_bad_value_exits_2_naming_the_flag(self, capsys, argv, flag):
        one_line_error(capsys, argv, flag)


class TestServeBoot:
    # SIGTERM must also shut down cleanly: supervisors send it, and
    # non-interactive shells start background jobs with SIGINT ignored.
    @pytest.mark.parametrize("stop_signal", [signal.SIGINT, signal.SIGTERM])
    def test_serve_binds_ephemeral_port_and_shuts_down(
        self, tmp_path, stop_signal
    ):
        port_file = tmp_path / "port"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--port-file", str(port_file)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists() or not port_file.read_text().strip():
                assert process.poll() is None, (
                    process.communicate()[1].decode()
                )
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            port = int(port_file.read_text())
            client = ServerClient(port=port)
            assert client.healthz()["status"] == "ok"
            job = client.wait(client.submit_probe(hold=0.0)["id"])
            assert job["status"] == "done"
        finally:
            process.send_signal(stop_signal)
            _out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err.decode()
        assert "serving on http://127.0.0.1:" in err.decode()
