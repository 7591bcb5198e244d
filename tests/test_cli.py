"""Command-line behaviour: tables against goldens, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from halp.cli import main
from halp.framing import handshake_frame
from halp.models import build_vgg16
from halp.planner import Role
from test_planner import float_rows_plan_doc, secondary_to_secondary_plan
from tests_property_helpers import steps_before

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


def test_plan_vgg_default_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "plan", "vgg16")
    assert code == 0
    assert out == golden("vgg16_default.txt")


def test_plan_vgg_z1_68_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "plan", "vgg16", "--z1", "68")
    assert code == 0
    assert out == golden("vgg16_optimized.txt")


def test_plan_vgg_optimize_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "plan", "vgg16", "--optimize", "--rate", "42")
    assert code == 0
    assert out == golden("vgg16_optimized.txt")


def test_plan_mobilenet_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "plan", "mobilenet", "--alpha", "1.0", "--rho", "224")
    assert code == 0
    assert out == golden("mobilenet_1.0_224.txt")


def test_plan_mobilenet_160_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "plan", "mobilenet", "--alpha", "1.0", "--rho", "160")
    assert code == 0
    assert out == golden("mobilenet_1.0_160.txt")


def test_plan_infeasible_z1_usage_error(capsys):
    code, _, err = run_cli(capsys, "plan", "vgg16", "--z1", "6")
    assert code == 1
    assert "pooling" in err


def test_plan_json_roundtrips(capsys, tmp_path):
    out_path = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, "plan", "vgg16", "--json", "--out", str(out_path))
    assert code == 0
    from halp.planner import plan_from_json

    plan = plan_from_json(out_path.read_text(), build_vgg16())
    assert plan.z1 == 4
    assert json.loads(out)["model"] == "vgg16"


def test_infer_local_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "infer", "--local", "mobilenet", "--alpha", "0.25", "--rho", "160",
        "--base-width", "8", "--classes", "12", "--seed", "3",
    )
    assert code == 0
    assert "output vector: 12 values" in out


def test_infer_local_prints_what_a_session_of_the_same_seed_computes(capsys):
    """`--local` draws the weights and the input from `--seed`, as a host
    session does."""
    from halp.models import get_model, make_input, make_weights
    from halp.planner import build_plan
    from halp.runtime import run_local_session

    options = {"alpha": 0.25, "rho": 160, "base_width": 8, "classes": 12}
    code, out, _ = run_cli(capsys, "infer", "--local", "mobilenet", "--alpha", "0.25", "--rho",
                           "160", "--base-width", "8", "--classes", "12", "--seed", "7", "--json")
    model = get_model("mobilenet", **options)
    session, _ = run_local_session(model, make_weights(model, 7), build_plan(model),
                                   make_input(model, 7))
    assert code == 0
    assert json.loads(out) == session.tolist()


def test_infer_verify_small_vgg(capsys):
    code, out, _ = run_cli(
        capsys, "infer", "--verify", "vgg16", "--base-width", "8", "--classes", "6",
        "--z1", "68", "--seed", "2",
    )
    assert code == 0
    assert out.startswith("equivalent (max rel err")


def test_infer_verify_runs_the_plan_file_and_exits_3_on_mismatch(capsys, tmp_path, monkeypatch):
    from halp import runtime
    from halp.models import build_vgg16
    from halp.planner import build_plan_vgg, plan_to_json

    plan = build_plan_vgg(build_vgg16(base_width=8, classes=6), 68)
    path = tmp_path / "plan.json"
    path.write_text(plan_to_json(plan))
    ran = []
    real = runtime.run_local_session

    def skewed(model, weights, plan_, x, *args, **kwargs):
        ran.append(plan_)
        out, logs = real(model, weights, plan_, x, *args, **kwargs)
        return out * 1.001, logs

    monkeypatch.setattr(runtime, "run_local_session", skewed)
    code, _, err = run_cli(
        capsys, "infer", "--verify", "vgg16", "--base-width", "8", "--classes", "6",
        "--plan", str(path), "--seed", "2",
    )
    assert code == 3
    assert err.startswith("NOT equivalent: max rel err")
    assert ran == [plan]


def test_infer_requires_a_mode(capsys):
    code, _, err = run_cli(capsys, "infer", "vgg16")
    assert code == 1
    assert "--local" in err


@pytest.mark.parametrize("argv", [
    ["infer", "--local", "--verify", "vgg16", "--base-width", "8", "--classes", "6"],
    ["infer", "--role", "ed1", "--local", "--config", "node.json"],
], ids=["local-and-verify", "role-and-local"])
def test_infer_refuses_two_modes(capsys, argv):
    """No mode silently wins over another; the config is never read."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and "not allowed with argument" in err


def test_infer_verify_refuses_a_plan_for_another_model(capsys, tmp_path):
    """The plan file is validated before any inference, as `simulate` does."""
    from halp.models import build_mobilenet_v1
    from halp.planner import build_plan_mobilenet, plan_to_json

    path = tmp_path / "plan.json"
    path.write_text(plan_to_json(build_plan_mobilenet(build_mobilenet_v1(1.0, 224))))
    code, out, err = run_cli(capsys, "infer", "--verify", "vgg16", "--base-width", "8",
                             "--classes", "6", "--plan", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("plan failed validation:")


def test_infer_host_without_secondaries_times_out(capsys, tmp_path):
    config = tmp_path / "host.json"
    config.write_text(json.dumps({
        "model": "vgg16", "base_width": 8, "classes": 5, "seed": 0,
        "ed1": "127.0.0.1:7697", "ed2": "127.0.0.1:7696", "timeout_s": 0.3,
    }))
    code, _, err = run_cli(capsys, "infer", "--role", "host", "--config", str(config),
                           "vgg16")
    assert code == 2
    assert "cannot reach" in err


def test_infer_secondary_without_host_times_out(capsys, tmp_path):
    config = tmp_path / "ed1.json"
    config.write_text(json.dumps({"listen": "127.0.0.1:7695", "timeout_s": 0.3}))
    code, _, err = run_cli(capsys, "infer", "--role", "ed1", "--config", str(config))
    assert code == 2
    assert err.startswith("session failed: no connection on 127.0.0.1:7695")


@pytest.mark.parametrize("in_use", [False, True], ids=["address_not_on_this_host", "port_in_use"])
def test_infer_secondary_that_cannot_listen_exits_2(capsys, tmp_path, in_use):
    """192.0.2.1 is a documentation address no interface holds; the port in
    use is held by a listening socket of the test's own."""
    import socket

    config = tmp_path / "ed1.json"
    with socket.create_server(("127.0.0.1", 0)) as holder:
        address = f"127.0.0.1:{holder.getsockname()[1]}" if in_use else "192.0.2.1:7000"
        config.write_text(json.dumps({"listen": address, "timeout_s": 0.3}))
        code, out, err = run_cli(capsys, "infer", "--role", "ed1", "--config", str(config))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"session failed: cannot listen on {address}: ")


def _ed1_given_handshake(capsys, tmp_path, port, frame):
    """Run `infer --role ed1` while a host thread sends it the handshake
    `frame`; the CLI's exit code and stderr."""
    import threading

    from halp.transport import TransportError, connect

    config = tmp_path / "ed1.json"
    config.write_text(json.dumps({"listen": f"127.0.0.1:{port}", "timeout_s": 10}))

    def host():
        t = connect(f"127.0.0.1:{port}", timeout=10)
        try:
            t.send(frame)
            t.receive(timeout=10)
        except TransportError:
            pass
        finally:
            t.close()

    th = threading.Thread(target=host)
    th.start()
    code, _, err = run_cli(capsys, "infer", "--role", "ed1", "--config", str(config))
    th.join(timeout=10)
    assert not th.is_alive()
    return code, err


def test_infer_secondary_with_wrong_handshake_plan_exits_2(capsys, tmp_path):
    from halp.models import build_vgg16
    from halp.planner import build_plan, plan_to_json
    from halp.runtime import PROTOCOL_VERSION

    doc = {"protocol": PROTOCOL_VERSION, "model": "mobilenet", "alpha": 0.5, "rho": 160,
           "base_width": 8, "classes": 5, "seed": 0,
           "plan": json.loads(plan_to_json(build_plan(build_vgg16(8, 5), 4)))}
    code, err = _ed1_given_handshake(capsys, tmp_path, 7694, handshake_frame(doc))
    assert code == 2
    assert "does not fit model" in err


def test_infer_secondary_given_another_mobilenet_variants_plan_exits_2(capsys, tmp_path,
                                                                      monkeypatch):
    """The 1.0_160 plan has the 0.50_160 model's geometry, but not its
    channels; the secondary refuses it before drawing any weight."""
    from halp import runtime
    from halp.models import build_mobilenet_v1
    from halp.planner import build_plan, plan_to_json

    draws = []
    monkeypatch.setattr(runtime, "make_weights", lambda *a, **k: draws.append(a))
    doc = {"protocol": runtime.PROTOCOL_VERSION, "model": "mobilenet", "alpha": 0.5,
           "rho": 160, "base_width": 8, "classes": 5, "seed": 0,
           "plan": json.loads(plan_to_json(build_plan(build_mobilenet_v1(1.0, 160, 8, 5))))}
    code, err = _ed1_given_handshake(capsys, tmp_path, 7614, handshake_frame(doc))
    assert code == 2
    assert "does not fit model" in err
    assert draws == []


def test_plan_with_float_rows_exits_before_any_session(capsys, tmp_path, monkeypatch):
    """A VGG-16 plan whose first step reads `"rows": [0.0, ...]` is refused
    where it is read: `--plan` exits 1, and a secondary handed it exits 2
    as a malformed handshake before it draws a weight."""
    from halp import runtime

    doc = float_rows_plan_doc(build_vgg16(base_width=8, classes=5))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "infer", "--verify", "vgg16", "--base-width", "8",
                             "--classes", "5", "--plan", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "cannot read plan" in err

    draws = []
    monkeypatch.setattr(runtime, "make_weights", lambda *a, **k: draws.append(a))
    handshake = {"protocol": runtime.PROTOCOL_VERSION, "model": "vgg16", "alpha": 1.0,
                 "rho": 224, "base_width": 8, "classes": 5, "seed": 0, "plan": doc}
    code, err = _ed1_given_handshake(capsys, tmp_path, 7615, handshake_frame(handshake))
    assert code == 2
    assert "malformed handshake" in err
    assert draws == []


# A secondary stand-in: it accepts the host, reads the handshake, says so on
# stdout, and then either SIGKILLs itself or stays connected and silent.
_FAULTY_SECONDARY = """
import os, signal, socket, sys, time
from halp.transport import SocketTransport

server = socket.create_server(("127.0.0.1", 0))
print(server.getsockname()[1], flush=True)
sock, _ = server.accept()
SocketTransport(sock).receive(timeout=30)
print("handshake", flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
time.sleep(60)
"""

# time a host process may take beyond its `timeout_s` to start, import numpy,
# draw MobileNet 0.25_160 (width 8) and exit
_EXIT_MARGIN_S = 3.0


@pytest.mark.parametrize("fault, timeout_s", [("kill", 10.0), ("stall", 2.0)])
def test_host_process_exits_2_when_its_secondaries_die_or_stall(tmp_path, fault, timeout_s):
    """`halp infer --role host` against two secondaries that take the
    handshake and then die (SIGKILL) or stay connected and silent: the host
    exits 2 with `session failed`, well within `timeout_s` when they die and
    after `timeout_s` but within the margin when they stall."""
    import os
    import signal
    import subprocess
    import sys
    import time

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    secondaries = [
        subprocess.Popen([sys.executable, "-c", _FAULTY_SECONDARY, fault],
                         stdout=subprocess.PIPE, text=True, env=env)
        for _ in range(2)
    ]
    try:
        ports = [int(proc.stdout.readline()) for proc in secondaries]
        config = tmp_path / "host.json"
        config.write_text(json.dumps({
            "model": "mobilenet", "alpha": 0.25, "rho": 160, "base_width": 8, "classes": 5,
            "ed1": f"127.0.0.1:{ports[0]}", "ed2": f"127.0.0.1:{ports[1]}",
            "timeout_s": timeout_s,
        }))
        start = time.monotonic()
        host = subprocess.run(
            [sys.executable, "-m", "halp.cli", "infer", "--role", "host", "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=timeout_s + 30,
        )
        elapsed = time.monotonic() - start
        assert [proc.stdout.readline() for proc in secondaries] == ["handshake\n"] * 2
        if fault == "kill":
            assert [proc.wait(timeout=5) for proc in secondaries] == [-signal.SIGKILL] * 2
    finally:
        for proc in secondaries:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    assert host.returncode == 2, host.stderr
    assert host.stdout == ""
    assert host.stderr.startswith("session failed: ")
    if fault == "kill":
        assert elapsed < timeout_s / 2
    else:
        assert "timed out" in host.stderr
        assert timeout_s <= elapsed < timeout_s + _EXIT_MARGIN_S


def _truncated_first_frame():
    """A valid handshake, then the header and half the payload of the first
    frame the host owes ED1."""
    import numpy as np

    from halp.framing import HEADER, Frame, serialize_frame
    from halp.models import build_vgg16
    from halp.planner import build_plan, plan_to_json
    from halp.runtime import PROTOCOL_VERSION

    plan = build_plan(build_vgg16(8, 5), 4)
    doc = {"protocol": PROTOCOL_VERSION, "model": "vgg16", "alpha": 1.0, "rho": 224,
           "base_width": 8, "classes": 5, "seed": 0, "plan": json.loads(plan_to_json(plan))}
    step = next(s for s in steps_before(plan, 0) if s.receiver is Role.ED1)
    rows = np.zeros((step.rows, step.width, step.channels), dtype=np.float32)
    frame = serialize_frame(Frame.from_rows(0, 0, step.row_start, rows))
    return serialize_frame(handshake_frame(doc)) + frame[: HEADER.size + len(rows.data) // 2]


@pytest.mark.parametrize("case", ["oversized", "truncated"])
def test_infer_secondary_fed_an_oversized_header_exits_2(capsys, tmp_path, case):
    """An oversized header is refused before its payload is read; a frame cut
    short by a peer that then closes ends the session too."""
    import threading
    import time

    from halp.framing import HEADER
    from halp.transport import TransportError, connect

    config = tmp_path / "ed1.json"
    config.write_text(json.dumps({"listen": "127.0.0.1:7693", "timeout_s": 10}))

    def host():
        t = connect("127.0.0.1:7693", timeout=10)
        try:
            if case == "oversized":
                t._sock.sendall(HEADER.pack(0xFFFF, 0, 0, 0xFFFF, 0xFFFF, 0xFFFF))
                t.receive(timeout=10)
            else:
                t._sock.sendall(_truncated_first_frame())
        except TransportError:
            pass
        finally:
            t.close()

    th = threading.Thread(target=host)
    th.start()
    start = time.monotonic()
    code, _, err = run_cli(capsys, "infer", "--role", "ed1", "--config", str(config))
    elapsed = time.monotonic() - start
    th.join(timeout=10)
    assert not th.is_alive()
    assert code == 2
    if case == "oversized":
        assert err.startswith("session failed:") and "cap" in err
    else:
        assert err.startswith("session failed:") and "closed" in err
    assert elapsed < 5.0  # well inside the 10 s timeout


def test_infer_host_event_log_is_the_simulate_json_document(capsys, tmp_path):
    """`--event-log` writes the host's measured timeline as the document
    `halp simulate --json` prints, one interval per op of its compiled list."""
    import threading

    from halp.models import build_mobilenet_v1
    from halp.planner import build_plan_mobilenet
    from halp.runtime import secondary_session

    def serve(role, listen):
        secondary_session({"role": role, "listen": listen, "timeout_s": 20})

    threads = [threading.Thread(target=serve, args=("ed1", "127.0.0.1:7611")),
               threading.Thread(target=serve, args=("ed2", "127.0.0.1:7612"))]
    for t in threads:
        t.start()
    config = tmp_path / "host.json"
    config.write_text(json.dumps({"model": "mobilenet", "alpha": 0.5, "rho": 160,
                                  "base_width": 8, "classes": 5, "seed": 3, "timeout_s": 20,
                                  "ed1": "127.0.0.1:7611", "ed2": "127.0.0.1:7612"}))
    path = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "infer", "--role", "host", "--config", str(config),
                           "--event-log", str(path))
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads)
    assert code == 0 and out.startswith("output vector: 5 values")
    doc = json.loads(path.read_text())
    code, sim_out, _ = run_cli(capsys, "simulate", "mobilenet", "--alpha", "0.5",
                               "--rho", "160", "--json")
    sim = json.loads(sim_out)
    assert doc.keys() == sim.keys()
    assert all(iv.keys() == sim["intervals"][0].keys() for iv in doc["intervals"])
    plan = build_plan_mobilenet(build_mobilenet_v1(0.5, 160, base_width=8, classes=5))
    ops = sum(len(stage) for stage in plan.compiled[Role.HOST])
    assert len(doc["intervals"]) == ops


def test_simulate_vgg_gains(capsys):
    code, out, _ = run_cli(capsys, "simulate", "vgg16", "--z1", "68", "--rate", "42")
    assert code == 0
    gain = float(out.splitlines()[2].split()[1].rstrip("x"))
    assert abs(gain - 1.71) < 0.18
    code, out, _ = run_cli(capsys, "simulate", "vgg16", "--z1", "4", "--rate", "42")
    gain = float(out.splitlines()[2].split()[1].rstrip("x"))
    assert abs(gain - 1.50) < 0.15


def test_simulate_huge_rate_compute_bound(capsys):
    code, out, _ = run_cli(capsys, "simulate", "vgg16", "--z1", "68", "--rate", "1e9")
    assert code == 0
    gain = float(out.splitlines()[2].split()[1].rstrip("x"))
    assert gain > 1.5  # compute-bound ceiling, no comm in the way


def test_simulate_writes_csv(capsys, tmp_path):
    path = tmp_path / "timeline.csv"
    code, _, _ = run_cli(capsys, "simulate", "mobilenet", "--alpha", "0.5",
                         "--rho", "192", "--rate", "42", "--csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "node,kind,layer,start_ms,end_ms"
    assert len(lines) > 50


def test_reliability_standalone_all_fail_below_555(capsys):
    code, out, _ = run_cli(
        capsys, "reliability", "--mode", "standalone", "--channel", "medium",
        "--deadlines", "375,425,475,525,554", "--tasks", "2000", "--seed", "1",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert all(row.split(",")[3] == "1.000000" for row in rows)


def test_reliability_halp_425_zero_fail(capsys):
    code, out, _ = run_cli(
        capsys, "reliability", "--mode", "halp", "--channel", "all",
        "--deadlines", "425", "--tasks", "5000", "--seed", "42",
    )
    assert code == 0
    for row in out.splitlines()[1:]:
        assert float(row.split(",")[3]) <= 0.02


def test_reliability_csv_deterministic(capsys, tmp_path):
    args = ["reliability", "--mode", "both", "--channel", "all",
            "--deadlines", "375,425,600", "--tasks", "1000", "--seed", "9"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--csv", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--csv", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "plan", "resnet")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "reliability", "--channel", "stormy")[0] == 1


def test_simulate_rejects_a_plan_for_another_model(capsys, tmp_path):
    """A plan file is validated against the model before it is simulated,
    in both directions: VGG-16 given a MobileNet plan and the reverse, and
    MobileNet 1.0_224 given the 0.25_224 plan, which has its geometry."""
    from halp.models import build_mobilenet_v1, build_vgg16
    from halp.planner import build_plan_mobilenet, build_plan_vgg, plan_to_json

    cases = [
        (["vgg16"], build_plan_mobilenet(build_mobilenet_v1(1.0, 224))),
        (["mobilenet", "--alpha", "1.0", "--rho", "224"], build_plan_vgg(build_vgg16(), 4)),
        (["mobilenet"], build_plan_mobilenet(build_mobilenet_v1(0.25, 224))),
    ]
    for model_args, plan in cases:
        path = tmp_path / "plan.json"
        path.write_text(plan_to_json(plan))
        code, out, err = run_cli(capsys, "simulate", *model_args, "--plan", str(path))
        assert code == 2, model_args
        assert err.startswith("plan failed validation:")
        assert "gain" not in out


@pytest.mark.parametrize("rate", ["nan", "0", "-5"])
def test_simulate_rejects_a_rate_that_is_not_positive(capsys, rate):
    """No makespan is printed at NaN Mbps, and no traceback at 0 or below."""
    for extra in ([], ["--optimize"]):
        code, out, err = run_cli(capsys, "simulate", "vgg16", "--rate", rate, *extra)
        assert code == 1, (rate, extra)
        assert out == ""
        assert len(err.splitlines()) == 1 and "throughput must be positive" in err


@pytest.mark.parametrize("model, rate", [("vgg16", "0"), ("mobilenet", "0"), ("vgg16", "nan")])
def test_plan_optimize_rejects_a_rate_that_is_not_positive(capsys, model, rate):
    code, out, err = run_cli(capsys, "plan", model, "--optimize", "--rate", rate)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1


def test_simulate_unlimited_rate_is_legal(capsys):
    code, out, _ = run_cli(capsys, "simulate", "vgg16", "--z1", "68", "--rate", "inf")
    assert code == 0
    assert "at inf Mbps" in out


@pytest.mark.parametrize("tasks", ["0", "-3"])
def test_reliability_rejects_fewer_than_one_task(capsys, tasks):
    code, out, err = run_cli(capsys, "reliability", "--tasks", tasks)
    assert code == 1
    assert out == ""
    assert err == "error: need at least one task\n"


def test_reliability_empty_catalog_exits_1(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text('{"entries": []}')
    code, out, err = run_cli(capsys, "reliability", "--catalog", str(path))
    assert (code, out, err) == (1, "", "error: catalog must not be empty\n")


@pytest.mark.parametrize("deadline", ["nan", "0", "-1"])
def test_reliability_rejects_a_deadline_that_is_not_positive(capsys, deadline):
    code, out, err = run_cli(capsys, "reliability", "--deadlines", f"375,{deadline}")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "deadline must be positive" in err


def test_reliability_unlimited_deadline_is_legal(capsys):
    code, out, _ = run_cli(capsys, "reliability", "--deadlines", "inf", "--tasks", "10")
    assert code == 0
    assert out.splitlines()[1].startswith("inf,standalone,poor,0.000000,")


def test_simulate_reads_the_calibration_file_once(capsys, tmp_path, monkeypatch):
    """The timing and the channel come from one read, also when --optimize
    prices its search with the same timing."""
    from halp import cli

    path = tmp_path / "calibration.json"
    path.write_text(json.dumps({"mac_rate": 4.69e9, "overhead_s": 0.0765,
                                "channel": {"lo_mbps": 30, "hi_mbps": 60}}))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out, _ = run_cli(capsys, "simulate", "vgg16", "--optimize", "--calibration", str(path))
    assert code == 0 and "gain:" in out
    assert opened == [str(path)]


def test_simulate_draws_the_channel_rate_from_the_seed(capsys, tmp_path):
    """Without --rate, the run sees one draw from the calibration file's
    channel, seeded by --seed: the same lines as --rate at that draw."""
    import numpy as np

    from halp.simulate import ChannelModel

    path = tmp_path / "calibration.json"
    path.write_text(json.dumps({"mac_rate": 4.69e9, "overhead_s": 0.0765,
                                "channel": {"lo_mbps": 30, "hi_mbps": 60}}))
    rate = ChannelModel(30, 60).draw(np.random.default_rng(3))
    drawn = run_cli(capsys, "simulate", "vgg16", "--calibration", str(path), "--seed", "3")
    fixed = run_cli(capsys, "simulate", "vgg16", "--calibration", str(path), "--rate", repr(rate))
    assert drawn == fixed and drawn[0] == 0
    assert f"at {rate:g} Mbps" in drawn[1]


def test_a_plan_that_needs_a_secondary_to_secondary_link_runs_nowhere(capsys, tmp_path):
    """The plan that ownership implies for a host band of [2, 4) at layer 1
    moves rows from ED1 to ED2 and back, but no node has that link:
    validation names both steps, and simulating it and running it in
    process both exit 2 with the same lines."""
    from halp.planner import plan_to_json, validate_plan

    model = build_vgg16(8, 10)
    plan = secondary_to_secondary_plan(model)
    steps = [f"step before layer {layer}: {sender} -> {receiver} rows {rows} "
             "needs a secondary-to-secondary link"
             for layer, sender, receiver, rows in [(1, "ed1", "ed2", "[3, 111)"),
                                                   (2, "ed2", "ed1", "[4, 110)")]]
    assert validate_plan(plan, model) == steps

    path = tmp_path / "plan.json"
    path.write_text(plan_to_json(plan))
    model_args = ("vgg16", "--base-width", "8", "--classes", "10", "--plan", str(path))
    for argv in (("simulate", *model_args), ("infer", *model_args, "--verify")):
        assert run_cli(capsys, *argv) == (
            2, "", "\n  ".join(["plan failed validation:", *steps]) + "\n")


def test_a_closed_stdout_exits_2_without_a_traceback():
    """`halp simulate mobilenet --json | head -1`: the reader leaves after the
    first line. The pipe holds one page of the 30 KB document, so the
    command is still writing when the reader closes it."""
    import fcntl
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "halp.cli", "simulate", "mobilenet", "--json"],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with os.fdopen(read_end, "rb", buffering=0) as reader:
        assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (2, b"")


@pytest.mark.parametrize("role, config", [
    ("host", {"model": "mobilenet", "alpha": 0.25, "rho": 160, "base_width": 8, "classes": 5,
              "ed1": "127.0.0.1:7698", "ed2": "127.0.0.1:7699", "timeout_s": 0.3}),
    ("ed1", {"listen": "127.0.0.1:7698", "timeout_s": 0.3}),
])
def test_an_unwritable_event_log_exits_1_before_the_session(capsys, tmp_path, monkeypatch,
                                                            role, config):
    """The `--event-log` path is opened before the node dials or listens,
    so a node never runs, or serves, a session whose trace it cannot keep."""
    from halp import transport

    opened = []
    monkeypatch.setattr(transport, "connect", lambda *a, **k: opened.append(a))
    monkeypatch.setattr(transport, "listen_one", lambda *a, **k: opened.append(a))
    path = tmp_path / "node.json"
    path.write_text(json.dumps(config))
    log = tmp_path / "no-such-directory" / "trace.json"
    code, out, err = run_cli(capsys, "infer", "--role", role, "--config", str(path),
                             "--event-log", str(log))
    assert (code, out, opened) == (1, "", [])
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {log}: ")
