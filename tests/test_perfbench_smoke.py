import inspect
import subprocess
import sys
import types
from pathlib import Path

from torustwist import certify, inertia

from test_tristram import _fixture

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_accepts_what_the_library_renders():
    # runs every benchmark workload at tiny sizes, untraced and traced; its
    # output checks re-derive each certificate from the rendered JSON
    res = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr[-3000:]
    assert res.stdout.splitlines()[-1] == "smoke: ok"


def test_perfbench_hooks_name_the_library_as_it_is():
    # perfbench traces the library by patching the attributes its PATCHES
    # name, and records args[2] of each `inertia_mp` call as the mp rung's
    # bits: a rename or a reordered signature would change a metric quietly.
    # spans.py is compiled from its text, so nothing is written beside it
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    for module, attribute, *_ in spans.PATCHES:
        assert hasattr(module, attribute), (module.__name__, attribute)
    assert list(inspect.signature(certify.inertia_mp).parameters)[2] == "prec"


def test_the_precision_rung_is_reached_through_its_module_attribute(
        monkeypatch):
    # perfbench times the precision rung by patching `certify.inertia_mp`;
    # a caller that bound the rung locally would zero `certify.mp_rung.*`
    # without a failure anywhere else.  `_fixture(2)` needs the 128-bit rung
    seen = []
    rung = certify.inertia_mp

    def recording(enclosure_fn, n, prec, nullity):
        seen.append(prec)
        return rung(enclosure_fn, n, prec, nullity)

    monkeypatch.setattr(certify, "inertia_mp", recording)
    res = inertia(_fixture(2))
    assert (res.n_plus, res.n_zero, res.n_minus) == (2, 0, 2)
    assert seen == [128]
