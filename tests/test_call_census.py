"""Python-level calls per simulated cycle on the busy path.

CPython cannot specialize away a call, nor a name shadowed by a
descriptor on its type, so the per-instruction path of both models
keeps a name read once per dynamic instruction a plain attribute and
does one line of work in line (DESIGN §4.15).  The census counts
``sys.setprofile`` "call" events over cycles 10,000-40,000 of 181.mcf,
after a warm-up, and is deterministic: the same count on every host
and on Python 3.9 and 3.11 (32.85 per cycle; 44.84 before the rule).
"""

from __future__ import annotations

import sys
from functools import cached_property

import pytest

from repro.fast.simulator import FastSimulator
from repro.isa.instructions import Instr
from repro.isa.opcodes import OpSpec, lookup
from repro.workloads import build

CALLS_PER_CYCLE_MAX = 34
HOT_NAMES = ("name", "length", "is_control")


def test_calls_per_busy_cycle():
    workload = build("181.mcf", scale=1)
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config
    )
    sim.run(10_000)
    start = sim.tm.cycle
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.run(40_000)
    finally:
        sys.setprofile(previous)
    cycles = sim.tm.cycle - start
    assert cycles == 30_000
    assert calls / cycles <= CALLS_PER_CYCLE_MAX, calls / cycles


@pytest.mark.parametrize("cls", [Instr, OpSpec])
def test_hot_names_are_plain_attributes(cls):
    for name in HOT_NAMES:
        for klass in cls.__mro__:
            assert not isinstance(vars(klass).get(name),
                                  (property, cached_property)), (klass, name)


def test_hot_attributes_are_derived_once():
    movsb = lookup("MOVSB")
    plain, rep = Instr(movsb), Instr(movsb, rep=True)
    assert (plain.name, plain.length, plain.is_control) == ("MOVSB", 1, False)
    assert rep.length == 2
    # One dict layout for every Instr, and the derived names stay out of
    # equality, hashing and repr.
    assert list(vars(plain)) == list(vars(rep))
    assert plain == Instr(movsb) and hash(plain) == hash(Instr(movsb))
    assert "length" not in repr(plain)
    assert lookup("JZ").is_control and lookup("JZ").length == 3
