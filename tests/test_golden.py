"""Golden outputs: ``latkit.cli.main`` on committed inputs must give the
pinned exit code, stdout (without its ``# time_compute:`` line) and stderr,
byte for byte.

The inputs under ``tests/golden/inputs`` are instances of the benchmark
corpus at seed 1 and small hand-written files, ``HAND_INPUTS`` of
``tests/golden/pin.py``, which wrote them and ``pins.json``.  These pins are
the one statement of what ``latkit`` prints: a deliberate output change is
re-pinned there and nowhere else.  The calls are ``basis`` plain, with
``--trace`` and with ``--verify``, and ``minima`` and ``decompose`` at the
corpus bound, with ``--verify``, and at half that bound.  The hand-written
files with more rows than their dimension run under ``basis`` only.
"""

import json
from pathlib import Path

import pytest

from golden.pin import run

GOLDEN = Path(__file__).resolve().parent / "golden"
PINS = json.loads((GOLDEN / "pins.json").read_text())


def test_pins_cover_every_command():
    for command in ("basis", "minima", "decompose"):
        assert len({c["input"] for c in PINS if c["command"] == command}) \
            >= 10
    assert {"half.lat", "coarse.lat", "joined.lat", "rank2_half.lat",
            "cross.lat", "mixed.lat", "axes.lat"} <= {
                c["input"] for c in PINS if c["command"] == "decompose"}
    assert {"mixed.lat", "pool.lat", "intlines.lat", "rebuilds.lat",
            "z3.lat", "half_z2.lat", "axes.lat", "repeats.lat"} <= {
                c["input"] for c in PINS
                if c["command"] == "basis" and c["options"] == ["--trace"]}
    assert any(c["command"] == "decompose" and c["exit"] == 4 for c in PINS)


@pytest.mark.parametrize(
    "pin", PINS,
    ids=["-".join([c["input"], c["command"], *c["options"]]).replace("/", ":")
         for c in PINS])
def test_output_matches_pin(pin):
    path = GOLDEN / "inputs" / pin["input"]
    got = run([pin["command"], str(path), *pin["options"]])
    assert got == (pin["exit"], pin["stdout"], pin["stderr"])
