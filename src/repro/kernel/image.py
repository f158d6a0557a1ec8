"""FastOS bootable-image builder.

Assembles the kernel unit, RLE-compresses it into a payload, assembles
the boot unit (BIOS + decompressor), lays out user programs and the
boot-info block, and returns a single :class:`ProgramImage` the
functional model can load and boot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.isa.assembler import assemble
from repro.isa.program import ProgramImage
from repro.kernel import layout as L
from repro.kernel.sources import (
    KernelConfig,
    boot_source,
    kernel_source,
    linux24_config,
    linux26_config,
    windowsxp_config,
)


OP_END = 0
OP_LITERAL = 1
OP_RUN = 2
_MIN_RUN = 8
_MAX_LEN = 0xFFFF
# A run of _MIN_RUN.._MAX_LEN equal bytes; a longer run continues as the
# next match.
_RUN_RE = re.compile(rb"(.)\1{%d,%d}" % (_MIN_RUN - 1, _MAX_LEN - 1), re.DOTALL)


def rle_compress(data: bytes) -> bytes:
    """Literal/run encoding of the kernel payload.

    Format: a sequence of ops -- ``01 <len16> <bytes>`` copies a literal
    block, ``02 <len16> <value>`` expands a run, ``00`` terminates.
    Literal blocks keep the boot-time decompressor's inner loop long and
    predictable (the flat middle phase of Figure 6); runs of >= 8 equal
    bytes (the kernel's zeroed data) compress as runs.
    """
    out = bytearray()
    lit_start = 0
    for match in _RUN_RE.finditer(data):
        start, end = match.span()
        _flush_literal(out, data, lit_start, start)
        out.append(OP_RUN)
        out += (end - start).to_bytes(2, "little")
        out.append(data[start])
        lit_start = end
    _flush_literal(out, data, lit_start, len(data))
    out.append(OP_END)
    return bytes(out)


def _flush_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    while start < end:
        chunk = min(_MAX_LEN, end - start)
        out.append(OP_LITERAL)
        out += chunk.to_bytes(2, "little")
        out += data[start : start + chunk]
        start += chunk


def rle_decompress(data: bytes) -> bytes:
    """Reference decoder (the BIOS does this in FastISA at boot)."""
    out = bytearray()
    i = 0
    while True:
        op = data[i]
        if op == OP_END:
            return bytes(out)
        length = int.from_bytes(data[i + 1 : i + 3], "little")
        if op == OP_LITERAL:
            out += data[i + 3 : i + 3 + length]
            i += 3 + length
        elif op == OP_RUN:
            out += bytes([data[i + 3]]) * length
            i += 4
        else:
            raise ValueError("bad op %d at %d" % (op, i))


@dataclass
class UserProgram:
    """One user-mode workload program.

    ``source`` is FastISA assembly, assembled at the user virtual base.
    Execution starts at ``entry`` (a label; defaults to the first byte).
    """

    name: str
    source: str
    entry: Optional[str] = None

    def assemble(self):
        program = assemble(self.source, base=L.VBASE)
        entry = program.symbols[self.entry] if self.entry else L.VBASE
        return program, entry - L.VBASE


class ImageError(ValueError):
    pass


def build_os_image(
    programs: Sequence[UserProgram],
    config: Optional[KernelConfig] = None,
    disk_image: Optional[bytes] = None,
) -> Tuple[ProgramImage, KernelConfig]:
    """Build a bootable FastOS image running *programs*.

    Returns ``(image, config)``; the image's symbols include the kernel
    symbols (prefixed ``k.``) and boot symbols (prefixed ``b.``).
    """
    config = config or linux24_config()
    if not programs:
        raise ImageError("at least one user program is required")
    if len(programs) > L.MAX_PROCS:
        raise ImageError("at most %d processes supported" % L.MAX_PROCS)

    kernel = assemble(kernel_source(config), base=L.KERNEL_BASE)
    if L.KERNEL_BASE + len(kernel.data) > L.PT_BASE:
        raise ImageError(
            "kernel too large: %d bytes overlaps page tables" % len(kernel.data)
        )
    payload = rle_compress(kernel.data)
    payload_end = L.PAYLOAD_BASE + len(payload)

    boot = assemble(boot_source(config, payload_end), base=0)

    image = ProgramImage(name="fastos-" + config.name, entry=L.RESET_VECTOR)
    image.add_segment(0, boot.data)
    image.add_segment(L.PAYLOAD_BASE, payload)

    # Boot info block.
    info = bytearray(4 + L.BI_STRIDE * len(programs))
    info[0:4] = len(programs).to_bytes(4, "little")
    for i, user in enumerate(programs):
        assembled, entry_off = user.assemble()
        if len(assembled.data) > L.USER_PHYS_STRIDE:
            raise ImageError(
                "program %r too large (%d bytes)" % (user.name, len(assembled.data))
            )
        phys = L.USER_PHYS_BASE + i * L.USER_PHYS_STRIDE
        image.add_segment(phys, assembled.data)
        off = 4 + i * L.BI_STRIDE
        info[off : off + 4] = phys.to_bytes(4, "little")
        info[off + 4 : off + 8] = len(assembled.data).to_bytes(4, "little")
        info[off + 8 : off + 12] = entry_off.to_bytes(4, "little")
    image.add_segment(L.BOOTINFO, bytes(info))

    for name, addr in kernel.symbols.items():
        image.symbols["k." + name] = addr
    for name, addr in boot.symbols.items():
        image.symbols["b." + name] = addr
    return image, config


def boot_system(
    programs: Sequence[UserProgram],
    config: Optional[KernelConfig] = None,
    disk_image: Optional[bytes] = None,
    functional_config=None,
    memory_size: int = 16 * 1024 * 1024,
):
    """Convenience: build an image and a functional model ready to run.

    Returns ``(functional_model, console)``.
    """
    from repro.functional.model import FunctionalModel
    from repro.system.bus import build_standard_system

    memory, bus, _intctrl, _timer, console, _disk = build_standard_system(
        memory_size=memory_size, disk_image=disk_image
    )
    image, _config = build_os_image(programs, config=config)
    model = FunctionalModel(memory=memory, bus=bus, config=functional_config)
    model.load(image)
    return model, console


__all__ = [
    "ImageError",
    "KernelConfig",
    "UserProgram",
    "boot_system",
    "build_os_image",
    "linux24_config",
    "linux26_config",
    "rle_compress",
    "rle_decompress",
    "windowsxp_config",
]
