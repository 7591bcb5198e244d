"""Byte-level pins on the planner, simulator and reliability outputs.

The digests were recorded once, from the code before the schedule was
compiled into one op list, and are never re-recorded: a refactor that
changes one byte of these outputs fails here, where the approximate
makespan checks elsewhere would let it through. The plan digests are of
each plan's whole derivation (`derived_plan_doc`, the layout plan files
had until they held only the host bands); the plan files themselves have
their own pins, recorded when that format began.
"""

import hashlib
import json
import math

import pytest

from halp.cli import build_parser, main
from halp.models import build_mobilenet_v1, build_vgg16
from halp.planner import build_plan_mobilenet, build_plan_vgg, plan_to_json
from halp.selector import ChannelState, Mode, load_catalog, run_reliability
from halp.simulate import default_timing, fit_vgg_timing, simulate
from test_planner import derived_plan_doc

# the four plans behind tests/golden: VGG-16 at z1 = 4 and 68, MobileNet 1.0 at 224 and 160
PINNED = {
    "vgg16_z4": (
        "70d7c77096cda0d89063b3b8ad5817adb2542d8c59313aac027c961453adeb25",
        "80e3844fdaee0fb09998c756f4cfd9bcdd38691e6cfe7f59ab1632e1966de544",
    ),
    "vgg16_z68": (
        "923cb97d8c6792d4b12ee447991094eb8bb6c0f4faed2408cbaa2d2d6534e7ea",
        "624a418ccef45d23d900466f7e5067a23ad5f22287d735ab2f19e8128090119b",
    ),
    "mobilenet_1.0_224": (
        "634fc21aefae91bd6fb83c26223ac83ece3ba4b6bff7a317e538e7e69d165e68",
        "b80f5dcb9f4f3d7dd575ed8cc2d0473d219c915d150b82dba0b4f9c6ca205e0c",
    ),
    "mobilenet_1.0_160": (
        "12dd44544f7b880cf5f2ea7829b2051c2998c7e1e4cf2b9a9f3497addfd78e2b",
        "836b508dfcf8c4ef281a7969dab71f132fcfe59935b9fca766e7f38fe3624a2a",
    ),
}
RELIABILITY_CSV = "35d114f2b65590e744115baed7593c84067c88d3fd32fdd8f5408b261d11ff91"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_plan(name):
    if name.startswith("vgg16"):
        model = build_vgg16()
        return model, build_plan_vgg(model, int(name.split("_z")[1]))
    model = build_mobilenet_v1(1.0, int(name.split("_")[-1]))
    return model, build_plan_mobilenet(model)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_plan_json_bytes_pinned(name):
    _, plan = golden_plan(name)
    assert sha256(json.dumps(derived_plan_doc(plan), indent=2)) == PINNED[name][0]


# `plan_to_json` of the same four plans: the model, z1 and each layer's host band
PLAN_FILES = {
    "vgg16_z4": "22db7ea21c81cefce1c5101e57b2933d816dc3afadd4f86b94847cfaa543612f",
    "vgg16_z68": "d133cfff419ca934801700ba938d9ee7fedf91d970e561af87f53174ec92fa54",
    "mobilenet_1.0_224": "db677c544cc3c4aed3d61e507d5625fd5e8f1f2612dc8b4702cfca7f3581cec1",
    "mobilenet_1.0_160": "9a9de68a8550464d5a8cb016e50d9945d90c33ce48aebdcd83ad9d8f66af4719",
}


@pytest.mark.parametrize("name", sorted(PLAN_FILES))
def test_plan_file_bytes_pinned(name):
    _, plan = golden_plan(name)
    assert sha256(plan_to_json(plan)) == PLAN_FILES[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulated_timeline_csv_bytes_pinned(name):
    model, plan = golden_plan(name)
    timeline = simulate(plan, model, default_timing(model.name), 42.0)
    assert sha256(timeline.to_csv()) == PINNED[name][1]


def test_default_reliability_csv_bytes_pinned(capsys):
    assert main(["reliability"]) == 0
    assert sha256(capsys.readouterr().out) == RELIABILITY_CSV


# `Timeline.to_json()` of the same four plans at 10 Mbps, 42 Mbps and unlimited
# links (`math.inf`, the rate a host fit uses for in-process runs). The JSON keeps
# every float at full `repr` precision, where the CSV above rounds to 1 ns.
TIMELINE_JSON = {
    "vgg16_z4": (
        "0046c979d78f29e6b04b83106188750c35585e941dfa7dce40700334aa3d8f08",
        "ba6d1c4fe09180263681542f22a54c2aff7155eeb8ad6fa432986bd028017a1b",
        "d8dd8f043b47e8785b2bef3a783e33b51d5373f0bcf7a357f0f52f01d1fe74e8",
    ),
    "vgg16_z68": (
        "47020b3f900a67a9406c7ba21c1e6fee948509b430bdd4d0434b6e3a5c0f2414",
        "3be60bdd6c5e3291dc226ac20b4052a402f90ca0b529e16f0ea3660a95c44fc5",
        "04a28a2dd2203d877e25d14751e4aa90a0cc4521727923c64a189de746e8c5a4",
    ),
    "mobilenet_1.0_224": (
        "e41b19a2ccd584d62c8a545e866c80a91810132526ecbab86fa220bdaa7e0de5",
        "fac48453e6215c9fb2964b498130c7da8c69d23ac6844e7539cb44ebe07d9be2",
        "2e83256620d9fe6c2e463068a9e02effef3f426a22c1cd871728379b4d77120e",
    ),
    "mobilenet_1.0_160": (
        "df37d66748ce50865af562f10387dedace3763ffeb7e55909a904559f3f76213",
        "0f7a95a803f6a97dc39650f80c3df598dce8ad650d498c213d1df4026c5c53ce",
        "e1c6dfe9879e4a10fa7d277fc9a90bf03d4efa990965c1371ceb470f47086247",
    ),
}
TIMELINE_JSON_RATES = (10.0, 42.0, math.inf)


@pytest.mark.parametrize("rate", TIMELINE_JSON_RATES)
@pytest.mark.parametrize("name", sorted(TIMELINE_JSON))
def test_simulated_timeline_json_bytes_pinned(name, rate):
    model, plan = golden_plan(name)
    timeline = simulate(plan, model, default_timing(model.name), rate)
    assert sha256(timeline.to_json()) == TIMELINE_JSON[name][TIMELINE_JSON_RATES.index(rate)]


# Full-precision pins of the control-plane results, recorded once before the
# best-first fit and the per-entry reliability scan; never re-recorded. The CSV
# pin above rounds the reliability figures to 6 decimals and omits the mean
# accuracy; here every field of every `ReliabilityPoint` is kept, at the CLI
# defaults (8 deadlines, 10000 tasks, seed 42).
RELIABILITY_POINTS = {
    ("standalone", "POOR"): "93ade731d8502c68f233bc3d752db7ca69df37525acf327e301a110d2039434d",
    ("standalone", "MEDIUM"): "93ade731d8502c68f233bc3d752db7ca69df37525acf327e301a110d2039434d",
    ("standalone", "GOOD"): "93ade731d8502c68f233bc3d752db7ca69df37525acf327e301a110d2039434d",
    ("halp", "POOR"): "5a5f01d5235781e2455e0d1465fa232f515cb4528e7b0818fa6ea8174706b8f6",
    ("halp", "MEDIUM"): "4f1441eefd988affd82a7e654f6914498ed9dae6623c75dbef9deb5993b02d26",
    ("halp", "GOOD"): "3d6680178d93a0c781429b5d9694edd97d618650528dc9b1751ec9d205204b3b",
}


@pytest.mark.parametrize("mode, channel", sorted(RELIABILITY_POINTS))
def test_reliability_points_repr_pinned(mode, channel):
    defaults = build_parser().parse_args(["reliability"])
    deadlines = [float(d) for d in defaults.deadlines.split(",")]
    points = run_reliability(load_catalog(), deadlines, ChannelState[channel],
                             defaults.tasks, defaults.seed, Mode(mode))
    assert sha256(repr(points)) == RELIABILITY_POINTS[mode, channel]


# `repr((timing, report))` of the VGG-16 fit; the values are np.float64, whose
# repr names the type, so a fit that returns a plain float fails here too
VGG_FIT = {
    10.0: "00d122596f65c9140769c71f29c7abb25f4751e125c67e4969d521818c30c415",
    25.0: "b12a5f650825d6d57d2017e2084a83f0a6e95eec04a89916e63a38d2921caece",
    42.0: "62c52cb396803b2402ac7b2fae3906b76e7ae94a02a2dd4646547c8da01ed75f",
    60.0: "379c7a2fbd6358028114420a2d51c0093010f80e8f42a51fab1a9cb624ad91c6",
    100.0: "141e14104157eaddab6f7fe2dbe067461751b2cb1e9b88912d3b865f448b005e",
    math.inf: "814b08ff514b51b75dde936352a257a49dfde4cddf1aa40a8ed1cc3ac59e8222",
}


@pytest.mark.parametrize("rate", sorted(VGG_FIT))
def test_vgg_fit_repr_pinned(rate):
    assert sha256(repr(fit_vgg_timing(build_vgg16(), rate))) == VGG_FIT[rate]
