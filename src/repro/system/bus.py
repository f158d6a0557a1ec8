"""I/O bus: routes IN/OUT port accesses to devices and fans out time.

Also owns the power port: an ``OUT 0x40`` from software requests system
shutdown, which is how FastOS signals "workload finished" to the
simulator harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.system.console import Console
from repro.system.devices import Device
from repro.system.disk import Disk
from repro.system.interrupt_controller import InterruptController
from repro.system.memory import PhysicalMemory
from repro.system.timer import Timer

PORT_POWER = 0x40


class IOBus:
    """Port-mapped I/O bus with attached devices."""

    def __init__(self):
        self._ports: Dict[int, Device] = {}
        self.devices: List[Device] = []
        # The devices whose class overrides the no-op Device.tick (the
        # test Device.ticks_until_irq makes): the only ones tick visits.
        self._ticked: List[Device] = []
        self.shutdown_requested = False
        self.shutdown_code = 0

    def attach(self, device: Device) -> None:
        for port in device.ports():
            if port in self._ports:
                raise ValueError("port %#x already claimed" % port)
            self._ports[port] = device
        self.devices.append(device)
        if type(device).tick is not Device.tick:
            self._ticked.append(device)

    def read(self, port: int) -> int:
        device = self._ports.get(port)
        if device is None:
            return 0
        return device.read_port(port) & 0xFFFFFFFF

    def write(self, port: int, value: int) -> None:
        if port == PORT_POWER:
            self.shutdown_requested = True
            self.shutdown_code = value & 0xFFFFFFFF
            return
        device = self._ports.get(port)
        if device is not None:
            device.write_port(port, value)

    def tick(self, units: int) -> None:
        """Advance all device clocks by *units* (driver-defined unit)."""
        # A device on the base class's no-op tick has no clock to move.
        for device in self._ticked:
            device.tick(units)

    def snapshot(self):
        return (
            self.shutdown_requested,
            self.shutdown_code,
            tuple(device.snapshot() for device in self.devices),
        )

    def restore(self, state) -> None:
        self.shutdown_requested, self.shutdown_code, device_states = state
        for device, dev_state in zip(self.devices, device_states):
            device.restore(dev_state)


def build_standard_system(
    memory_size: int = 16 * 1024 * 1024,
    timer_interval: int = 10000,
    disk_image: Optional[bytes] = None,
    console_input: bytes = b"",
    disk_timing_model=None,
):
    """Wire up the standard machine: memory + PIC + timer + console + disk.

    Returns ``(memory, bus, intctrl, timer, console, disk)``.
    """
    memory = PhysicalMemory(memory_size)
    bus = IOBus()
    intctrl = InterruptController()
    timer = Timer(intctrl, interval=timer_interval)
    console = Console(intctrl)
    disk = Disk(intctrl, memory, image=disk_image,
                timing_model=disk_timing_model)
    if console_input:
        console.feed(console_input)
    for device in (intctrl, timer, console, disk):
        bus.attach(device)
    return memory, bus, intctrl, timer, console, disk
