"""Every input document is read by `halp.fields`. A generated sweep sets
each field of each kind of document to each wrong kind the field refuses,
and checks that the refusal is a `FieldError` whose message starts with
the field's path. A table of CLI cases per kind of document checks the
exit code and the single stderr line (a failed validation's heading adds
one), also for refusals of values rather than kinds, which the objects
built from the fields make."""

import copy
import hashlib
import json
import math
import re
from argparse import Namespace

import pytest

from halp import cli, runtime
from halp.fields import PAIR, FieldError, Fields
from halp.framing import HANDSHAKE_LAYER, Frame, handshake_frame
from halp.models import build_vgg16, get_model
from halp.planner import Role, build_plan_vgg, plan_from_json, plan_to_json
from halp.selector import load_catalog
from test_cli import _ed1_given_handshake, run_cli
from test_planner import derived_plan_doc, float_rows_plan_doc

# Each wrong value the sweep tries, by the JSON text that writes it.
WRONG = {"x": "x", "true": True, "1.5": 1.5, "2.0": 2.0, "NaN": math.nan,
         "Infinity": math.inf, "null": None, "[]": [], "{}": {}}
# The wrong values each kind of field accepts; the sweep skips them. A
# `pair_item` is one int of a pair, and its refusal names the pair; an
# `unknown` field is a key its object may not hold.
ACCEPTS = {
    "int": set(), "count": set(), "positive_int": set(), "address": set(), "pair": set(),
    "pair_item": set(), "unknown": set(), "number": {"1.5", "2.0", "Infinity"},
    "duration": {"1.5", "2.0"}, "string": {"x"}, "object": {"{}"}, "list": {"[]"},
}
MISSING = object()

HOST_CONFIG = {"model": "mobilenet", "alpha": 0.25, "rho": 160, "base_width": 8, "classes": 5,
               "seed": 3, "z1": 4, "ed1": "127.0.0.1:7698", "ed2": "127.0.0.1:7699",
               "timeout_s": 0.3}
ENTRY = {"name": "x", "alpha": 1.0, "rho": 224, "t_standalone_ms": 500, "t_halp_ms": 300,
         "top1_accuracy": 0.7}
PLAN_MODEL = build_vgg16(8, 10)
BASES = {
    "plan": json.loads(plan_to_json(build_plan_vgg(PLAN_MODEL, 68))),
    "host_config": HOST_CONFIG,
    "secondary_config": {"listen": "127.0.0.1:7698", "timeout_s": 0.3},
    "handshake": runtime._session_doc(HOST_CONFIG, *runtime._resolve(HOST_CONFIG),
                                      HOST_CONFIG["seed"]),
    "catalog": {"entries": [ENTRY]},
    "calibration": {"mac_rate": 4.69e9, "overhead_s": 0.0765,
                    "channel": {"lo_mbps": 26, "hi_mbps": 52}},
    "vgg16_options": {"alpha": 1.0, "rho": 224, "base_width": 8, "classes": 10},
    "mobilenet_options": {"alpha": 0.25, "rho": 160, "base_width": 8, "classes": 10},
}


def _read_calibration(doc, files):
    path = files / "calibration.json"
    path.write_text(json.dumps(doc))
    cli._calibration(Namespace(calibration=str(path)), "vgg16")


def _read_catalog(doc, files):
    path = files / "catalog.json"
    path.write_text(json.dumps(doc))
    load_catalog(str(path))


def _read_host_config(doc, _):
    runtime._session_options(doc, ("ed1", "ed2"))
    runtime._resolve(doc)


# kind of document -> a call that reads it, raising on a refusal
READERS = {
    "plan": lambda doc, _: plan_from_json(json.dumps(doc), PLAN_MODEL),
    "host_config": _read_host_config,
    "secondary_config": lambda doc, _: runtime._session_options(doc, ("listen",), seed=False),
    "handshake": lambda doc, _: runtime.read_handshake(handshake_frame(doc), Role.ED1),
    "catalog": _read_catalog,
    "calibration": _read_calibration,
    "vgg16_options": lambda doc, _: get_model("vgg16", **doc),
    "mobilenet_options": lambda doc, _: get_model("mobilenet", **doc),
}

_OPTIONS = [(("alpha",), "number", ()), (("rho",), "int", ()), (("base_width",), "count", (-3,)),
            (("classes",), "positive_int", (0, -5))]

# the index of the last layer of each kind of document that holds a plan
_LAST = {"plan": len(BASES["plan"]["layers"]) - 1,
         "handshake": len(BASES["handshake"]["plan"]["layers"]) - 1}

# kind of document -> (path, kind, required, wrong values beyond WRONG)
LEAVES = {
    "plan": [
        (("model",), "string", True, ()),
        (("z1",), "int", True, ()),
        (("layers",), "list", True, ()),
        (("layers", 0), "object", False, ()),
        (("layers", 0, "host_rows"), "int", True, ()),
        (("layers", 0, "host"), "pair", True, ([0, 1, 2],)),
        (("layers", 0, "host", 0), "pair_item", True, (0.0,)),
        (("layers", 0, "host", 1), "pair_item", True, (False,)),
        # every layer is read by its own path, the last as the first
        (("layers", _LAST["plan"]), "object", False, ()),
        (("layers", _LAST["plan"], "host_rows"), "int", True, ()),
        (("layers", _LAST["plan"], "host"), "pair", True, ([0, 1, 2],)),
        (("layers", _LAST["plan"], "host", 0), "pair_item", True, (0.0,)),
        (("layers", _LAST["plan"], "host", 1), "pair_item", True, (False,)),
    ],
    "host_config": [
        (("model",), "string", True, ()),
        (("ed1",), "address", True, ("127.0.0.1", "127.0.0.1:port", "127.0.0.1:65536")),
        (("ed2",), "address", True, ("127.0.0.1:",)),
        (("timeout_s",), "duration", False, (0, -1)),
        (("seed",), "count", False, (-1,)),
        *[(path, kind, False, extra) for path, kind, extra in _OPTIONS],
        (("z1",), "int", False, (68.0,)),
        (("plan_path",), "string", False, (0, 7, "")),
    ],
    "secondary_config": [
        (("listen",), "address", True, ("127.0.0.1",)),
        (("timeout_s",), "duration", False, (0,)),
    ],
    "handshake": [
        (("protocol",), "int", True, (1.0, "1")),
        (("model",), "string", True, ()),
        *[(path, kind, True, extra) for path, kind, extra in _OPTIONS],
        (("seed",), "count", True, (-1,)),
        (("plan",), "object", True, ()),
        (("plan", "model"), "string", True, ()),
        (("plan", "z1"), "int", True, ()),
        (("plan", "layers"), "list", True, ()),
        (("plan", "layers", 0), "object", False, ()),
        (("plan", "layers", 0, "host_rows"), "int", True, ()),
        (("plan", "layers", 0, "host"), "pair", True, ()),
        (("plan", "layers", 0, "host", 0), "pair_item", True, (0.0,)),
        (("plan", "layers", 0, "host", 1), "pair_item", True, (False,)),
        (("plan", "layers", _LAST["handshake"], "host_rows"), "int", True, ()),
        (("plan", "layers", _LAST["handshake"], "host"), "pair", True, ([0, 1, 2],)),
    ],
    "catalog": [
        (("entries",), "list", True, ()),
        (("entries", 0), "object", False, ()),
        (("entries", 0, "name"), "string", True, (5,)),
        (("entries", 0, "alpha"), "number", True, ()),
        (("entries", 0, "rho"), "int", True, ()),
        *[(("entries", 0, key), "number", True, ())
          for key in ("t_standalone_ms", "t_halp_ms", "top1_accuracy")],
        (("entries", 0, "note"), "unknown", False, ()),  # an entry holds no other field
    ],
    "calibration": [
        (("mac_rate",), "number", True, ()),
        (("overhead_s",), "number", True, ()),
        (("channel",), "object", False, (5,)),
        (("channel", "lo_mbps"), "number", True, ()),
        (("channel", "hi_mbps"), "number", False, ()),
    ],
    "vgg16_options": [(path, kind, False, extra) for path, kind, extra in _OPTIONS],
    "mobilenet_options": [(path, kind, False, extra) for path, kind, extra in _OPTIONS],
}


def path_name(path):
    """The test's own spelling of a path: `layers[0].host`."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _cases():
    for doc_kind, leaves in LEAVES.items():
        for path, kind, required, extra in leaves:
            named = path[:-1] if kind == "pair_item" else path
            values = [(text, value) for text, value in WRONG.items() if text not in ACCEPTS[kind]]
            values += [(json.dumps(value), value) for value in extra]
            values += [("missing", MISSING)] if required else []
            for text, value in values:
                yield pytest.param(doc_kind, path, value, path_name(named),
                                   id=f"{doc_kind}-{path_name(path)}-{text}")


def _edit(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One directory for the documents a reader takes as a file."""
    return tmp_path_factory.mktemp("documents")


@pytest.mark.parametrize("doc_kind", sorted(BASES))
def test_each_base_document_is_read(doc_kind, files):
    """The sweep edits documents that read without a refusal."""
    READERS[doc_kind](copy.deepcopy(BASES[doc_kind]), files)


@pytest.mark.parametrize("doc_kind, path, value, named", list(_cases()))
def test_each_wrong_kind_of_each_field_is_refused_by_its_path(doc_kind, path, value, named,
                                                              files):
    doc = copy.deepcopy(BASES[doc_kind])
    _edit(doc, path, value)
    with pytest.raises(Exception) as info:
        READERS[doc_kind](doc, files)
    # a config's, a handshake's or the CLI's error wraps the reader's
    error = info.value if isinstance(info.value, FieldError) else info.value.__context__
    assert isinstance(error, FieldError), repr(info.value)
    assert str(error).startswith(f"{named} must be ") or str(error) == f"{named} is missing"
    assert named in str(info.value)


def test_a_handshake_of_another_protocol_version_is_not_read_further():
    doc = copy.deepcopy(BASES["handshake"])
    doc["protocol"], doc["seed"] = 1, "x"
    with pytest.raises(runtime.SessionError, match=r"^ed1: handshake protocol 1, this node"):
        runtime.read_handshake(handshake_frame(doc), Role.ED1)


# an edit of a handshake's plan that reads -> the start of the problem it makes
UNFIT_PLANS = {
    "another_model": (lambda plan: plan.update(model="MobileNet_v1_1.0_160"),
                      "plan is for model 'MobileNet_v1_1.0_160', not 'MobileNet_v1_0.25_160'"),
    "another_layer_count": (lambda plan: plan["layers"].pop(),
                            "plan has 26 layers, model has 27 spatial layers"),
    "no_ed1_rows": (lambda plan: plan["layers"][0]["host"].__setitem__(0, 0),
                    "layer 0: host band [0, 41) leaves no rows for a secondary"),
    "secondary_to_secondary": (lambda plan: plan["layers"][1].update(host=[1, 2]),
                               "step before layer 1: ed1 -> ed2 rows [1, 39) needs a "),
}


@pytest.mark.parametrize("role", [Role.ED1, Role.ED2])
@pytest.mark.parametrize("edit", sorted(UNFIT_PLANS))
def test_a_handshake_whose_plan_does_not_fit_its_model_is_refused_as_such(edit, role):
    """A plan that reads but does not fit, refused as `read_plan` derives it
    or as `validate_plan` checks it, fails the secondary with the one
    problem, not as a malformed handshake."""
    doc = copy.deepcopy(BASES["handshake"])
    change, problem = UNFIT_PLANS[edit]
    change(doc["plan"])
    refusal = f"^{role.value}: handshake plan does not fit model: {re.escape(problem)}"
    with pytest.raises(runtime.SessionError, match=refusal):
        runtime.read_handshake(handshake_frame(doc), role)


def test_a_path_names_keys_and_indexes():
    doc = {"a": [{"b": {"c": [1, 2.5]}}]}
    with pytest.raises(FieldError, match=r"^a\[0\]\.b\.c must be a pair of ints, got \[1, 2\.5\]$"):
        Fields(doc).objects("a")[0].object("b").get("c", PAIR)
    with pytest.raises(FieldError, match="^the document must be an object, got 'x'$"):
        Fields("x")


@pytest.mark.parametrize("name", ["vgg16", "mobilenet"])
def test_an_int_alpha_reads_as_the_float(name):
    assert get_model(name, 1, 160) == get_model(name, 1.0, 160)


# --- the CLI: one stderr line and the documented exit code -----------------

_TIMING = {"mac_rate": 4.69e9, "overhead_s": 0.0765}


def _plan_edit(edit):
    doc = json.loads(plan_to_json(build_plan_vgg(PLAN_MODEL, 4)))
    edit(doc)
    return doc


def _host(**change):
    config = {"model": "mobilenet", "ed1": "127.0.0.1:7698", "ed2": "127.0.0.1:7699",
              "timeout_s": 0.3}
    return {**config, **change}


# Deeper than the JSON parser recurses; no reader may end in a RecursionError.
DEEP = "[" * 100_000 + "]" * 100_000
TOO_DEEP = "FieldError: the document is nested too deeply"

# Files a case names by placeholder: None is a path with no file.
FILES = {
    "MISSING": None,
    "DEEP": DEEP,
    "DEEP_RATE": f'{{"mac_rate": {"[" * 500 + "]" * 500}, "overhead_s": 0}}',
    "CHANNEL": {**_TIMING, "channel": {"lo_mbps": 26, "hi_mbps": 52}},
    "NOT_A_PLAN": {"model": "vgg16"},
    "FLOAT_ROWS_PLAN": float_rows_plan_doc(build_vgg16(base_width=8)),
    "SHORT_ROWS_PLAN": _plan_edit(lambda d: d["layers"][0].update(host=[1])),
    "THREE_ROWS_PLAN": _plan_edit(lambda d: d["layers"][0]["host"].append(999)),
    "NO_ED1_ROWS_PLAN": _plan_edit(lambda d: d["layers"][0].update(host=[0, 113])),
    # the layout plan files had before they held only the host bands
    "OLD_FORMAT_PLAN": derived_plan_doc(build_plan_vgg(PLAN_MODEL, 4)),
}
_VGG8 = ("vgg16", "--base-width", "8", "--classes", "10")

# (argv, the document FILE holds (None: no file), exit code, stderr start)
CLI_CASES = {
    # model options
    "plan-alpha": (["plan", "mobilenet", "--alpha", "0.3"], None, 1, "error: alpha must be"),
    "plan-rho": (["plan", "mobilenet", "--rho", "100"], None, 1, "error: rho must be"),
    "simulate-rho": (["simulate", "mobilenet", "--rho", "100"], None, 1, "error: "),
    "infer-local-rho": (["infer", "mobilenet", "--local", "--rho", "100"], None, 1, "error: "),
    "simulate-vgg-negative-width": (["simulate", "vgg16", "--base-width", "-3"], None, 1,
                                    "error: base_width must be an int >= 0, got -3"),
    "simulate-vgg-no-classes": (["simulate", "vgg16", "--classes", "0"], None, 1,
                                "error: classes must be an int >= 1, got 0"),
    "simulate-mobilenet-negative-width": (
        ["simulate", "mobilenet", "--alpha", "0.25", "--rho", "160", "--base-width", "-3"],
        None, 1, "error: base_width must be"),
    "plan-negative-classes": (["plan", "vgg16", "--classes", "-5"], None, 1, "error: classes"),
    # seeds: the rule of a config's `seed`, checked before any weight is drawn
    **{f"{name}-seed-{text}": ([*argv, "--seed", text], None, 1,
                               f"error: --seed must be an int >= 0, got '{text}'\n")
       for name, argv in [("local", ["infer", "mobilenet", "--local"]),
                          ("verify", ["infer", "mobilenet", "--verify"]),
                          ("simulate", ["simulate", "mobilenet", "--calibration", "CHANNEL"]),
                          ("reliability", ["reliability", "--tasks", "10"])]
       for text in ("-1", "x")},
    # output paths
    **{f"{name}-unwritable": ([*argv, flag, "UNWRITABLE"], None, 1, "error: cannot write ")
       for name, argv, flag in [("plan", ["plan", *_VGG8], "--out"),
                                ("simulate", ["simulate", *_VGG8], "--csv"),
                                ("reliability", ["reliability", "--tasks", "10"], "--csv")]},
    # calibrations
    "simulate-no-calibration": (["simulate", "vgg16", "--calibration", "MISSING"], None, 1,
                                "error: cannot read calibration: "),
    "optimize-no-calibration": (["plan", "vgg16", "--optimize", "--calibration", "MISSING"],
                                None, 1, "error: cannot read calibration: "),
    "simulate-calibration-without-keys": (["simulate", "vgg16", "--calibration", "FILE"], {}, 1,
                                          "error: cannot read calibration: mac_rate is missing"),
    "simulate-channel-without-lo": (
        ["simulate", "vgg16", "--calibration", "FILE"], {**_TIMING, "channel": {"hi_mbps": 52}},
        1, "error: cannot read calibration: channel.lo_mbps is missing"),
    "simulate-channel-not-an-object": (["simulate", "vgg16", "--calibration", "FILE"],
                                       {**_TIMING, "channel": 5}, 1,
                                       "error: cannot read calibration: channel must be"),
    "simulate-channel-lo-not-a-number": (
        ["simulate", "vgg16", "--calibration", "FILE"], {**_TIMING, "channel": {"lo_mbps": "a"}},
        1, "error: cannot read calibration: channel.lo_mbps must be a number"),
    "simulate-channel-lo-a-bool": (
        ["simulate", "vgg16", "--calibration", "FILE"], {**_TIMING, "channel": {"lo_mbps": True}},
        1, "error: cannot read calibration: channel.lo_mbps must be a number, got True"),
    "simulate-channel-lo-above-hi": (
        ["simulate", "vgg16", "--calibration", "FILE"],
        {**_TIMING, "channel": {"lo_mbps": 60, "hi_mbps": 30}}, 1,
        "error: cannot read calibration: a drawn throughput needs"),
    "simulate-rate-a-bool": (["simulate", "vgg16", "--calibration", "FILE"],
                             {"mac_rate": True, "overhead_s": 0}, 1,
                             "error: cannot read calibration: mac_rate must be a number"),
    "simulate-nan-rate": (["simulate", "vgg16", "--calibration", "FILE"],
                          {"mac_rate": math.nan, "overhead_s": 0.001}, 1,
                          "error: cannot read calibration: mac_rate must be a number, got nan"),
    "simulate-inf-overhead": (["simulate", "vgg16", "--calibration", "FILE"],
                              {"mac_rate": 4.69e9, "overhead_s": math.inf}, 1,
                              "error: cannot read calibration: mac_rate must be positive and"),
    "simulate-nan-overhead": (["simulate", "vgg16", "--calibration", "FILE"],
                              {"mac_rate": 4.69e9, "overhead_s": math.nan}, 1,
                              "error: cannot read calibration: overhead_s must be a number"),
    "simulate-deep-calibration": (["simulate", "vgg16", "--calibration", "DEEP"], None, 1,
                                  "error: cannot read calibration: the document is nested too"),
    "simulate-rate-a-long-string": (
        ["simulate", *_VGG8, "--calibration", "FILE"], {**_TIMING, "mac_rate": "x" * 1_000_000},
        1, f"error: cannot read calibration: mac_rate must be a number, got "
           f"'{'x' * 37}...{'x' * 38}'\n"),
    "simulate-rate-a-deep-list": (["simulate", *_VGG8, "--calibration", "DEEP_RATE"], None, 1,
                                  "error: cannot read calibration: mac_rate must be a number, "
                                  "got [[[[[...]]]]]\n"),
    "optimize-nan-rate": (["plan", "vgg16", "--optimize", "--calibration", "FILE"],
                          {"mac_rate": math.nan, "overhead_s": 0.001}, 1,
                          "error: cannot read calibration: mac_rate must be a number"),
    # plan files
    "simulate-no-plan": (["simulate", "vgg16", "--plan", "MISSING"], None, 1,
                         "error: cannot read plan: FileNotFoundError: "),
    "simulate-plan-without-keys": (["simulate", "vgg16", "--plan", "FILE"], {}, 1,
                                   "error: cannot read plan: FieldError: layers is missing"),
    "simulate-plan-with-short-rows": (
        ["simulate", *_VGG8, "--plan", "SHORT_ROWS_PLAN"], None, 1,
        "error: cannot read plan: FieldError: layers[0].host must be a pair of ints, got [1]"),
    "infer-plan-with-short-rows": (["infer", *_VGG8, "--plan", "SHORT_ROWS_PLAN", "--verify"],
                                   None, 1, "error: cannot read plan: "),
    "simulate-plan-with-three-rows": (["simulate", *_VGG8, "--plan", "THREE_ROWS_PLAN"], None, 1,
                                      "error: cannot read plan: FieldError: layers[0].host must"),
    "simulate-deep-plan": (["simulate", *_VGG8, "--plan", "DEEP"], None, 1,
                           f"error: cannot read plan: {TOO_DEEP}"),
    "simulate-old-format-plan": (
        ["simulate", *_VGG8, "--plan", "OLD_FORMAT_PLAN"], None, 1,
        "error: cannot read plan: FieldError: layers[0].host is missing\n"),
    "simulate-plan-leaving-ed1-no-rows": (
        ["simulate", *_VGG8, "--plan", "NO_ED1_ROWS_PLAN"], None, 2,
        "plan failed validation:\n  layer 0: host band [0, 113) leaves no rows for a secondary"),
    # catalogs
    "catalog-entry-without-fields": (["reliability", "--catalog", "FILE"],
                                     {"entries": [{"name": "x"}]}, 1,
                                     "cannot load catalog: FieldError: entries[0].alpha is"),
    "catalog-without-entries": (["reliability", "--catalog", "FILE"], {"foo": 1}, 1,
                                "cannot load catalog: FieldError: entries is missing"),
    "catalog-deep": (["reliability", "--catalog", "DEEP"], None, 1,
                     f"cannot load catalog: {TOO_DEEP}"),
    "catalog-not-an-object": (["reliability", "--catalog", "FILE"], [1], 1,
                              "cannot load catalog: FieldError: the document must be an object"),
    "catalog-latencies-strings": (
        ["reliability", "--catalog", "FILE"],
        {"entries": [{**ENTRY, "t_standalone_ms": "500", "t_halp_ms": "300"}]}, 1,
        "cannot load catalog: FieldError: entries[0].t_standalone_ms must be a number"),
    "catalog-bools": (["reliability", "--catalog", "FILE"],
                      {"entries": [{**ENTRY, "t_halp_ms": True, "top1_accuracy": True}]}, 1,
                      "cannot load catalog: FieldError: entries[0].t_halp_ms must be a number"),
    "catalog-nan-latency": (["reliability", "--catalog", "FILE"],
                            {"entries": [{**ENTRY, "t_halp_ms": math.nan}]}, 1,
                            "cannot load catalog: FieldError: entries[0].t_halp_ms"),
    "catalog-name-alpha-rho": (
        ["reliability", "--catalog", "FILE", "--tasks", "10"],
        {"entries": [{**ENTRY, "name": 5, "alpha": "x", "rho": None}]}, 1,
        "cannot load catalog: FieldError: entries[0].name must be a non-empty string, got 5"),
    # node configs
    "host-config-without-model": (["infer", "--role", "host", "--config", "FILE"],
                                  {"ed1": "127.0.0.1:7698", "ed2": "127.0.0.1:7699"}, 1,
                                  "cannot read config: FieldError: model is missing"),
    "secondary-config-without-listen": (["infer", "--role", "ed1", "--config", "FILE"],
                                        {"timeout_s": 1}, 1,
                                        "cannot read config: listen is missing"),
    "secondary-config-not-an-object": (["infer", "--role", "ed2", "--config", "FILE"], [1], 1,
                                       "cannot read config: the document must be an object"),
    "role-without-config": (["infer", "--role", "ed1"], None, 1, "infer --role needs --config"),
    "secondary-listen-without-port": (["infer", "--role", "ed1", "--config", "FILE"],
                                      {"listen": "127.0.0.1"}, 1,
                                      "cannot read config: listen must be host:port"),
    "secondary-timeout-a-string": (
        ["infer", "--role", "ed2", "--config", "FILE"],
        {"listen": "127.0.0.1:7698", "timeout_s": "1"}, 1,
        "cannot read config: timeout_s must be a positive finite number, got '1'"),
    "config-missing": (["infer", "--role", "host", "--config", "MISSING"], None, 1,
                       "cannot read config: [Errno 2]"),
    "host-config-deep": (["infer", "--role", "host", "--config", "DEEP"], None, 1,
                         "cannot read config: the document is nested too deeply"),
    "secondary-config-deep": (["infer", "--role", "ed1", "--config", "DEEP"], None, 1,
                              "cannot read config: the document is nested too deeply"),
    "config-not-json": (["infer", "--role", "ed1", "--config", "FILE"], '{"listen": ', 1,
                        "cannot read config: Expecting value"),
    **{f"host-{name}": (["infer", "--role", "host", "--config", "FILE"], _host(**change), 1,
                        f"cannot read config: {message}")
       for name, change, message in [
           ("bad-alpha", {"alpha": 0.3}, "ValueError: alpha must be one of"),
           ("missing-plan", {"plan_path": "MISSING"}, "FileNotFoundError: "),
           ("deep-plan", {"plan_path": "DEEP"}, TOO_DEEP),
           ("malformed-plan", {"plan_path": "NOT_A_PLAN"}, "FieldError: layers is missing"),
           ("infeasible-z1", {"model": "vgg16", "z1": 6}, "PlanError: "),
           ("timeout-a-string", {"timeout_s": "0.3"}, "timeout_s must be a positive"),
           ("timeout-zero", {"timeout_s": 0}, "timeout_s must be a positive finite number"),
           ("ed1-without-port", {"ed1": "127.0.0.1"}, "ed1 must be host:port"),
           ("ed2-port-not-a-number", {"ed2": "127.0.0.1:port"}, "ed2 must be host:port"),
           ("seed-a-string", {"seed": "3"}, "seed must be an int >= 0, got '3'"),
           ("plan-with-float-rows",
            {"model": "vgg16", "base_width": 8, "plan_path": "FLOAT_ROWS_PLAN"},
            "FieldError: layers[0].host must be a pair of ints"),
           ("classes-a-float", {"classes": 2.5}, "FieldError: classes must be an int >= 1"),
           ("width-a-bool", {"base_width": True}, "FieldError: base_width must be an int"),
           ("rho-a-float", {"rho": 224.0}, "FieldError: rho must be an int, got 224.0"),
           ("alpha-a-bool", {"alpha": True}, "FieldError: alpha must be a number, got True"),
           ("z1-a-float", {"model": "vgg16", "base_width": 8, "z1": 68.0},
            "FieldError: z1 must be an int, got 68.0"),
           ("plan-path-0", {"plan_path": 0}, "FieldError: plan_path must be a non-empty"),
           ("plan-path-empty", {"plan_path": ""}, "FieldError: plan_path must be a non-empty"),
           ("plan-path-a-list", {"plan_path": []}, "FieldError: plan_path must be"),
           ("plan-path-7", {"plan_path": 7}, "FieldError: plan_path must be a non-empty"),
       ]},
    # a plan file that reads but does not fit fails as every node refuses it, before any dial
    "host-plan-leaving-ed1-no-rows": (
        ["infer", "--role", "host", "--config", "FILE"],
        _host(model="vgg16", base_width=8, classes=10, plan_path="NO_ED1_ROWS_PLAN"), 2,
        "session failed: host: plan does not fit model: layer 0: host band [0, 113) leaves"),
}


@pytest.mark.parametrize("argv, doc, code, start", list(CLI_CASES.values()), ids=list(CLI_CASES))
def test_a_refused_document_exits_with_one_line_and_its_code(capsys, tmp_path, argv, doc, code,
                                                             start):
    paths = {"MISSING": str(tmp_path / "missing.json"),
             "UNWRITABLE": str(tmp_path / "no-such-directory" / "out")}
    for name, content in {**FILES, "FILE": doc}.items():
        if content is not None:
            (tmp_path / f"{name}.json").write_text(
                content if isinstance(content, str) else json.dumps(content))
            paths[name] = str(tmp_path / f"{name}.json")
    if isinstance(doc, dict):  # a host config names its plan file by placeholder
        plan_path = doc.get("plan_path")
        if isinstance(plan_path, str) and plan_path in paths:
            (tmp_path / "FILE.json").write_text(json.dumps({**doc, "plan_path": paths[plan_path]}))
    got, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv])
    assert (got, out) == (code, "")
    # a refused value is shown cut, however long or deep it is; a failed
    # validation adds one indented line per problem
    lines = 1 + start.count("\n  ")
    assert len(err.splitlines()) == lines and len(err) < 400 and err.startswith(start), err[:400]


def test_a_handshake_nested_too_deeply_exits_2_as_a_malformed_handshake(capsys, tmp_path):
    raw = ("[" * 60_000 + "]" * 60_000).encode()  # too deep for `handshake_frame` to dump
    frame = Frame(layer=HANDSHAKE_LAYER, sender=0, row_start=0, row_count=len(raw) // 4,
                  width=1, channels=1, payload=raw)
    code, err = _ed1_given_handshake(capsys, tmp_path, 7616, frame)
    assert code == 2
    assert err == ("session failed: ed1: malformed handshake: "
                   "FieldError('the document is nested too deeply')\n")


def test_the_handshake_embeds_the_plan_document_as_plan_to_json_writes_it():
    model, plan = runtime._resolve(HOST_CONFIG)
    doc = runtime._session_doc(HOST_CONFIG, model, plan, HOST_CONFIG["seed"])
    assert doc["plan"] == json.loads(plan_to_json(plan))
    # the handshake bytes of protocol 2, whose plan holds only the host bands
    payload = handshake_frame(doc).payload
    assert hashlib.sha256(payload).hexdigest() == (
        "5586e1da4f0a4348c0ea5ae57eb657fd43519f29cfac1fce750127879c6bcaa7")
