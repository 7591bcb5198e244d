"""Command-line entry point: partition tables, inference, schedule
simulation, and the reliability sweep.

Exit codes: 0 success, 1 usage error, 2 runtime/transport error (also a
closed stdout), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import models as model_lib
from .fields import COUNT, NUMBER, check, parse
from .planner import (
    PlanError,
    build_plan,
    optimize_plan,
    plan_from_json,
    plan_to_json,
    render_mobilenet_table,
    render_vgg_table,
    validate_plan,
)
from .runtime import (
    ConfigError,
    SessionError,
    host_session,
    load_config,
    secondary_session,
    verify_equivalence,
)
from .selector import ChannelState, Mode, load_catalog, reliability_csv, run_reliability
from .simulate import ChannelModel, TimingModel, default_timing, simulate, standalone_time
from .transport import TransportError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

EQUIVALENCE_TOLERANCE = 1e-5


def _add_model_args(parser, optional_model=False):
    if optional_model:
        parser.add_argument("model", nargs="?", choices=["vgg16", "mobilenet"],
                            help="ignored with --role (the node config decides)")
    else:
        parser.add_argument("model", choices=["vgg16", "mobilenet"])
    parser.add_argument("--alpha", type=float, default=1.0, help="MobileNet width multiplier")
    parser.add_argument("--rho", type=int, default=224, help="MobileNet input resolution")
    parser.add_argument("--base-width", type=int, default=0, help="stem width override (testing)")
    parser.add_argument("--classes", type=int, default=1000)


class _Failure(Exception):
    """A failure whose message `main` prints to stderr as it stands, then
    exits with `code`: a usage error (1) unless given."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _build_model(args):
    try:
        return model_lib.get_model(
            args.model, alpha=args.alpha, rho=args.rho,
            base_width=args.base_width, classes=args.classes,
        )
    except ValueError as exc:  # no such MobileNet variant, or an option of another kind or range
        raise _Failure(f"error: {exc}") from None


def _seed(text: str) -> int:
    """`--seed`'s type: an int >= 0 (`COUNT`, a config's rule); argparse lets
    its `_Failure` pass, so a refusal is one line naming the flag."""
    try:
        return check(int(text), COUNT, "--seed")
    except ValueError:  # not an int, or below 0
        raise _Failure(f"error: --seed must be {COUNT[0]}, got {text!r}") from None


def _write(path: str, text: str) -> None:
    """Write an output flag's file; a path that cannot be written is a usage failure."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(f"error: cannot write {path}: {exc.strerror or exc}") from None


def _check_rate(rate: float) -> None:
    """A `--rate` must be a positive number of Mbps; `inf` is an unlimited
    link, NaN is refused."""
    if not rate > 0:
        raise _Failure(f"error: throughput must be positive, got {rate} Mbps")


def _calibration(args, model_name: str) -> tuple[TimingModel, ChannelModel | None]:
    """The timing and the optional `channel` block of `--calibration`, from
    one read of the file; the shipped timing and no channel without one."""
    if not args.calibration:
        return default_timing(model_name), None
    try:
        with open(args.calibration) as fh:
            doc = parse(fh.read())
        timing = TimingModel(doc.get("mac_rate", NUMBER), doc.get("overhead_s", NUMBER))
        channel = doc.object("channel", None)
        if channel is not None:
            lo, hi = channel.get("lo_mbps", NUMBER), channel.get("hi_mbps", NUMBER, None)
            channel = ChannelModel(lo, hi)
    except (OSError, ValueError) as exc:  # also not JSON, or a field of another kind or range
        raise _Failure(f"error: cannot read calibration: {exc}") from None
    return timing, channel


def _plan_for(args, model, rate: float | None = None, timing: TimingModel | None = None):
    """The plan file, else the `--optimize` search at `rate` priced by
    `timing` (read from `--calibration` when not given), else the default
    plan; validated against `model`."""
    if getattr(args, "plan", None):
        try:
            with open(args.plan) as fh:
                plan = plan_from_json(fh.read(), model)
        except PlanError as exc:  # it reads, but names another model or a band it cannot have
            raise _invalid([str(exc)]) from None
        except (OSError, ValueError) as exc:
            raise _Failure(f"error: cannot read plan: {type(exc).__name__}: {exc}") from None
    elif getattr(args, "optimize", False):
        if timing is None:
            timing, _ = _calibration(args, model.name)
        plan = optimize_plan(model, timing, rate)
    else:
        plan = build_plan(model, args.z1)
    problems = validate_plan(plan, model)
    if problems:
        raise _invalid(problems)
    return plan


def _invalid(problems: list[str]) -> _Failure:
    return _Failure("\n  ".join(["plan failed validation:", *problems]), EXIT_RUNTIME)


def cmd_plan(args) -> None:
    model = _build_model(args)
    if args.optimize:
        _check_rate(args.rate)
    plan = _plan_for(args, model, args.rate)
    if args.out:
        _write(args.out, plan_to_json(plan))
    if args.json:
        print(plan_to_json(plan))
    else:
        render = render_vgg_table if model.name == "vgg16" else render_mobilenet_table
        print(render(plan, model), end="")


def cmd_infer(args) -> None:
    from .models import make_input, make_weights
    from .runtime import monolithic_infer

    if args.role:
        if not args.config:
            raise _Failure("infer --role needs --config")
        config = load_config(args.config, args.role)
        if args.event_log:
            _write(args.event_log, "")  # an unwritable path fails before the session, not after
        if args.role == "host":
            out, trace = host_session(config)
            _print_vector(out, args)
        else:
            trace = secondary_session(config)
        if args.event_log:
            _write(args.event_log, trace.to_json())
        return

    if args.model is None:
        raise _Failure("infer --local/--verify needs a model")
    model = _build_model(args)
    if args.verify:
        err, _ = verify_equivalence(model, _plan_for(args, model), args.seed)
        if err > EQUIVALENCE_TOLERANCE:
            raise _Failure(
                f"NOT equivalent: max rel err {err:.2e} > {EQUIVALENCE_TOLERANCE}", EXIT_VERIFY
            )
        print(f"equivalent (max rel err {err:.2e} <= {EQUIVALENCE_TOLERANCE})")
        return
    # --local: monolithic inference
    weights = make_weights(model, args.seed)
    out = monolithic_infer(model, weights, make_input(model, args.seed))
    _print_vector(out, args)


def _print_vector(out: np.ndarray, args) -> None:
    if args.json:
        print(json.dumps(out.tolist()))
    else:
        top = np.argsort(out)[::-1][:5]
        print(f"output vector: {out.size} values")
        for i in top:
            print(f"  class {i}: {out[i]:.6f}")


def cmd_simulate(args) -> None:
    model = _build_model(args)
    timing, channel = _calibration(args, model.name)
    # a throughput distribution may come from the calibration file; an explicit
    # --rate wins, and the default is the measured 42 Mbps average
    if args.rate is not None:
        _check_rate(args.rate)
        planned = rate = args.rate
    elif channel is not None:
        planned = channel.lo_mbps  # what --optimize plans for; the run sees one draw
        rate = channel.draw(np.random.default_rng(args.seed))
    else:
        planned = rate = 42.0
    plan = _plan_for(args, model, planned, timing)
    timeline = simulate(plan, model, timing, rate)
    t_alone = standalone_time(model, timing)
    makespan_ms = timeline.makespan * 1e3
    gain = t_alone / timeline.makespan
    if args.csv:
        _write(args.csv, timeline.to_csv())
    if args.json:
        print(timeline.to_json())
    else:
        print(f"standalone: {t_alone * 1e3:.1f} ms")
        print(f"makespan:   {makespan_ms:.1f} ms at {timeline.rate_mbps:g} Mbps")
        print(f"gain:       {gain:.2f}x")


def cmd_reliability(args) -> None:
    try:
        catalog = load_catalog(args.catalog)
    except (OSError, ValueError) as exc:  # also not JSON, or not a catalog
        raise _Failure(f"cannot load catalog: {type(exc).__name__}: {exc}") from None
    channels = list(ChannelState) if args.channel == "all" else [ChannelState[args.channel.upper()]]
    modes = list(Mode) if args.mode == "both" else [Mode(args.mode)]
    results = {}
    try:
        deadlines = [float(d) for d in args.deadlines.split(",")]
        for mode in modes:
            for channel in channels:
                points = run_reliability(catalog, deadlines, channel, args.tasks, args.seed, mode)
                results[(mode.value, channel.name.lower())] = points
    except ValueError as exc:  # an empty catalog, a deadline not > 0, or fewer than one task
        raise _Failure(f"error: {exc}") from None
    text = reliability_csv(results)
    if args.csv:
        _write(args.csv, text)
    print(text, end="")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="halp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="emit a partition plan (table or JSON)")
    _add_model_args(p)
    p.add_argument("--z1", type=int, default=4, help="VGG entry overlap rows")
    p.add_argument("--optimize", action="store_true", help="search for the best z1")
    p.add_argument("--rate", type=float, default=42.0, help="Mbps used by --optimize")
    p.add_argument("--calibration", help="timing calibration JSON")
    p.add_argument("--json", action="store_true", help="print plan JSON instead of the table")
    p.add_argument("--out", help="also write plan JSON to this path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("infer", help="run inference (local, verify, or as a node)")
    _add_model_args(p, optional_model=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--local", action="store_true", help="monolithic on this process")
    mode.add_argument("--verify", action="store_true", help="run both paths, assert equivalence")
    mode.add_argument("--role", choices=["host", "ed1", "ed2"], help="socket deployment role")
    p.add_argument("--config", help="node config JSON (for --role)")
    p.add_argument("--plan", help="plan JSON path")
    p.add_argument("--z1", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--event-log",
                   help="write the node's measured timeline, in the JSON of simulate --json")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("simulate", help="simulate the pipeline schedule")
    _add_model_args(p)
    p.add_argument("--z1", type=int, default=4)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--plan", help="plan JSON path")
    p.add_argument("--rate", type=float, default=None,
                   help="link throughput in Mbps (default 42, or the calibration file's channel)")
    p.add_argument("--calibration", help="timing calibration JSON")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--csv", help="write the timeline CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reliability", help="Monte-Carlo failure/reliability sweep")
    p.add_argument("--catalog", help="catalog JSON (default: shipped)")
    p.add_argument("--mode", choices=["standalone", "halp", "both"], default="both")
    p.add_argument("--channel", choices=["poor", "medium", "good", "all"], default="all")
    p.add_argument("--deadlines", default="375,425,475,555,700,1000,1400,1800")
    p.add_argument("--tasks", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--csv", help="write the CSV here")
    p.set_defaults(func=cmd_reliability)
    return parser


def main(argv=None) -> int:
    """Run one command; the one place that turns a failure into its stderr
    message and exit code."""
    try:
        args = build_parser().parse_args(argv)  # a `--seed` refused by its type: a `_Failure`
        args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return EXIT_OK
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _Failure as exc:
        message, code = str(exc), exc.code
    except PlanError as exc:
        message, code = f"infeasible plan: {exc}", EXIT_USAGE
    except ConfigError as exc:  # also a bad model option, z1 or plan file in a host config
        message, code = f"cannot read config: {exc}", EXIT_USAGE
    except (SessionError, TransportError) as exc:
        message, code = f"session failed: {exc}", EXIT_RUNTIME
    except BrokenPipeError:  # the reader of stdout left, as `| head` does: no message
        if sys.stdout is sys.__stdout__:  # not a test's capture: exit's own flush must not fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
