"""Python-level calls per simulated cycle on the busy path.

CPython cannot specialize away a call, nor a name shadowed by a
descriptor on its type, so the per-instruction path of both models
keeps a name read once per dynamic instruction a plain attribute and
does one line of work in line (DESIGN §4.15).  The census counts
``sys.setprofile`` "call" events and is deterministic: the same count
on every host and on Python 3.9 and 3.11.  Two rows:

* 181.mcf, cycles 10,000-40,000 after a warm-up: 30.25 per cycle
  (44.84 before the rule, 32.85 with the FM's mode-bit properties and
  every device's tick);
* a whole ``linux_boot_slice(sleep_ticks=20)`` run, per busy (not
  idle) cycle: 44.36 (50.74 with those properties and ticks).
"""

from __future__ import annotations

import sys
from functools import cached_property

import pytest

from repro.fast.simulator import FastSimulator
from repro.isa.instructions import Instr
from repro.isa.opcodes import OpSpec, lookup
from repro.workloads import build, linux_boot_slice

CALLS_PER_CYCLE_MAX = 31
BOOT_CALLS_PER_BUSY_CYCLE_MAX = 45
HOT_NAMES = ("name", "length", "is_control")


def _simulator(workload):
    return FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config
    )


def _count_calls(run) -> int:
    """``sys.setprofile`` "call" events while *run* runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def test_calls_per_busy_cycle():
    sim = _simulator(build("181.mcf", scale=1))
    sim.run(10_000)
    start = sim.tm.cycle
    calls = _count_calls(lambda: sim.run(40_000))
    cycles = sim.tm.cycle - start
    assert cycles == 30_000
    assert calls / cycles <= CALLS_PER_CYCLE_MAX, calls / cycles


def test_boot_calls_per_busy_cycle():
    sim = _simulator(linux_boot_slice(sleep_ticks=20))
    calls = _count_calls(lambda: sim.run(1_000_000))
    assert sim.fm.bus.shutdown_requested
    busy = sim.tm.cycle - sim.tm.idle_cycles
    assert busy == 22_504
    assert calls / busy <= BOOT_CALLS_PER_BUSY_CYCLE_MAX, calls / busy


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
