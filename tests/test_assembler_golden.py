"""Golden assembler outputs: every source the simulator assembles.

Each case pins a SHA-256 over what :func:`assemble` returns -- load
base, image bytes, the sorted symbol table and the instruction count --
for the FastOS kernel and boot units of every kernel configuration
(each boot unit at its real payload end), every registered workload
program, both boot slices, the FastFuzz programs of the ``fuzz
--smoke`` seeds, and the RLE payload of each kernel.  The table was
written by the two-pass assembler the single-pass one replaced, so an
edit to the assembler that moves any byte, symbol or count fails here.

Regenerate (only for an intended change to a source, never to the
assembler) with ``PYTHONPATH=src python tests/test_assembler_golden.py``.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.fuzz.cli import SMOKE_GENERATOR, SMOKE_ITERATIONS, SMOKE_SEED
from repro.fuzz.generator import generate_program
from repro.isa.assembler import assemble
from repro.kernel import layout as L
from repro.kernel.image import rle_compress
from repro.kernel.sources import (
    boot_source,
    kernel_source,
    linux24_config,
    linux26_config,
    windowsxp_config,
)
from repro.workloads import build, linux_boot_slice, workload_names

CONFIGS = {
    "linux24": linux24_config,
    "linux26": linux26_config,
    "windowsxp": windowsxp_config,
}


def _program_digest(program) -> str:
    h = hashlib.sha256()
    h.update(repr((program.base, program.instruction_count,
                   sorted(program.symbols.items()))).encode())
    h.update(program.data)
    return h.hexdigest()


@lru_cache(maxsize=None)
def _kernel(config: str):
    return assemble(kernel_source(CONFIGS[config]()), base=L.KERNEL_BASE)


def _boot(config: str):
    payload_end = L.PAYLOAD_BASE + len(rle_compress(_kernel(config).data))
    return assemble(boot_source(CONFIGS[config](), payload_end), base=0)


def _user(workload):
    (program,) = workload.programs
    return assemble(program.source, base=L.VBASE)


def _fuzz(seed: int):
    program = generate_program(seed, SMOKE_GENERATOR)
    return assemble(program.source(), base=program.base)


def _cases():
    """Case name -> a thunk returning the digest to pin."""
    cases = {}
    for config in CONFIGS:
        cases["kernel-" + config] = (
            lambda c=config: _program_digest(_kernel(c)))
        cases["boot-" + config] = lambda c=config: _program_digest(_boot(c))
        cases["rle-" + config] = lambda c=config: hashlib.sha256(
            rle_compress(_kernel(c).data)).hexdigest()
    for name in workload_names():
        cases["workload-" + name] = (
            lambda n=name: _program_digest(_user(build(n, scale=1))))
    for ticks in (20, 600):
        cases["boot-slice-%d" % ticks] = (
            lambda t=ticks: _program_digest(_user(linux_boot_slice(t))))
    for seed in range(SMOKE_SEED, SMOKE_SEED + SMOKE_ITERATIONS):
        cases["fuzz-%d" % seed] = lambda s=seed: _program_digest(_fuzz(s))
    return cases


GOLDEN = {
    'boot-linux24': '41845773a3f86731b245b425721501a0fc98bb46b0c75dd08d9bb75da8f39f84',
    'boot-linux26': 'f0aa0483795a6381b71131b2d43a02f211ff46526e23c6ad15b5aba9799f5d8a',
    'boot-slice-20': 'cef2cb747a6ac010ac9e3ab5e9ef8f6a622beec200b0a34e57c47ee24d78a005',
    'boot-slice-600': 'fb99f507ef09abdc5263e1b4259b4c6e1894fec11f2011b970f979d2f211d9f3',
    'boot-windowsxp': 'e9ab9427e3162f3ffe9fe0cf1aff59a7d4d117f07c49da83a6a402d11be8e355',
    'fuzz-20070601': '1661a808f22cd7f99507e94c8058848aa673f6fe08e5e977a1cf3e51f779a762',
    'fuzz-20070602': '259dfe81d2f4c4d6fe82ff25a7f71683b971c85eea72ccd3a733eea4c619e0c8',
    'fuzz-20070603': '3e7c14ce7772bce3628e9aaa3f5358d8d8ef2a2ec5bf64bc9bfeb199bc1525f1',
    'fuzz-20070604': '0ff8f746cf86cf0ddd6c98247dc70c7fb854a703f3040634cb1c38687372cf21',
    'fuzz-20070605': 'f1197537982133c0b56c6cd279f658bc534b213b733e68e154d935f8abc313ce',
    'fuzz-20070606': '3336f78659e665ed29bc44017e1eb281d1273e792e585895e6201f9646133c3c',
    'fuzz-20070607': 'e7ce6498ce6d17edcbe7026a948304451df72a5ded7d76f5c9a40a0bbbcecc40',
    'fuzz-20070608': '8816d85d4f687e13471258bb0973438ee01b122ea8f392077eb315b52042b625',
    'fuzz-20070609': '162ac2ad1d566fd5c510fa7c1349082a427f6c1ba423b66c2d46c302bb21d252',
    'fuzz-20070610': '4d6c37af2e82cb758e0a0802e0abd03b640f39d415b95a094fee3a5238ae4274',
    'fuzz-20070611': '7754d287fafd0bc0edd35970f750ec966f28f26b2fa060a988d73577cf6b31f0',
    'fuzz-20070612': '94871b602c102199f9b12a193157555801803db2a0a5abc021b5837f1a63bd86',
    'fuzz-20070613': 'cf5fdf868a9a87fa7a783a6d8238fd96b7c82bf87c68515272e8079ffcd4a20f',
    'fuzz-20070614': 'ebed6d370659f33074ddc014ffffc387e95bec30f8b12b981a3bd3e6624652ba',
    'fuzz-20070615': '201481023c6ba62c896b66e67761bdb50c6ffa91a40f13f51af39316242de19e',
    'fuzz-20070616': '90c52a47fa63cc7d83fd4f6f3210c248a494e06a1249ecd06b11301bade2ba7c',
    'fuzz-20070617': '0753958b2651c690ac67a9b47813f65296bf9ff130583746078bccf5c9006c38',
    'fuzz-20070618': 'd43e9793259505d192bb82b59fd772564daadb8e89d34140b8ec9095ce19abb2',
    'fuzz-20070619': 'b5376c8558a50cebc144a3ad7ee6348314e636e13758d31a3e641e434e299582',
    'fuzz-20070620': '1e5101b27c48d8f02d66aa6eed3be31ebe21cda9bbb4e111d2493008f68e5e36',
    'fuzz-20070621': '5351edb8f484424d12f3ad73a126367e8e9e1a40e3a6973fb42cff15e9ea5129',
    'fuzz-20070622': 'b4d23dfb56c999a343a0be710b932ed9d5e4149d086509a98afd7702191d60d0',
    'fuzz-20070623': 'c9a4e3c1b88a4f347e5b0e598b49d9be15d5b6d536ea2c8016298b557ebf1c39',
    'fuzz-20070624': 'c1c2c918991a9b72a1211462cc966745ffbfbbcc44b4a79cd8df395224aaa94f',
    'fuzz-20070625': '919c7cbbdc58e9160566f5c440fe983124f23e35a69126bf78a1b25362e29af9',
    'fuzz-20070626': '3b7788e1d459c5770a7fd30c53d26b5e3907cd952d5cb5b311faf62d9f5e5639',
    'fuzz-20070627': '2860dd8b915cbc3699529b84caeb969919828c45765c53cadf6d71cbe0e6bd8a',
    'fuzz-20070628': '60ee982cc3f88b9839c7c17c19ceb37321b6e709d7667f9a457b2b16029f9178',
    'fuzz-20070629': 'bc24376cb7d4b4cc3d930ad6bcd31ab44949447633548c9f2278346904d8824c',
    'fuzz-20070630': 'a169c97eded5907379c1b86d30b546d9141c90a8c9f4c194ca878c2d80821dbe',
    'fuzz-20070631': '1fcaa79644abb9dab66fd474b005c970c6939b9475ee56ae8c6a67e1accd2f4b',
    'fuzz-20070632': 'e0165d94b7f3d2eb25f9850c2b939131292a57392c3a96604b0327c087d1ba4e',
    'fuzz-20070633': 'bee1eb8d39145b580d6461ab86f07bf478524701bbcd3b74574441e5dc75cf6d',
    'fuzz-20070634': '093061c875ae2b88b46170c091ba05b1c7b5ad5f445b09e337b183c6cba7adae',
    'fuzz-20070635': 'dc7a4a154f99e064f7b09e81a2fe2b809db14e99917dbe434afa5dddbeb9d8dd',
    'fuzz-20070636': '7c011595703e5844d06ff73465c07664d72cfe6fdaa6771ce19114dd60bde22d',
    'fuzz-20070637': 'a13ac7ecd6eec045f7c17d9fa7bbc23dfa1b0683c3421a34068b2cd4ce97aae5',
    'fuzz-20070638': '2d4757b7696b1a3f22a40b09e46b4453b9590fa77b8e7165b12201ec1a5774e6',
    'fuzz-20070639': '9d8ddfecdd05f3624cc7a72dce901fd838c8b5f1de61a3eecccfdfa9fd930283',
    'fuzz-20070640': '75035acafb7b11ef668ea06a873b991f7dd67a79488f3080fa2a1e139ae60edc',
    'kernel-linux24': 'a3726ccbab72864401c636d0a099b9c33dc9c822deb5187e37e1df2bf4d7ce20',
    'kernel-linux26': 'ef31d23f47b3bed6bb1b646387095a18ae9733b1ff4da45c375ec1181646d516',
    'kernel-windowsxp': '3283f572c8deb363e96f8bd5d827e50c0c0e276e520a536e7db4f031e5445ea6',
    'rle-linux24': '24279298ce8d303f4bbd90e99843d3165bd96d518cddb22d2873531db0001171',
    'rle-linux26': '1470794227f266818930434de1eddfd93b944eb1c23ec9fc3efb2a6d9cc280be',
    'rle-windowsxp': '067d98c1f8cd8f0b6b2cb50818139879c3d3644d7c30066381907666a8d734e5',
    'workload-164.gzip': 'ad3615eaf671f832faf1d7e24d9640a0b4ddacbcbc877cb6ab6fe9e0b8ca38e9',
    'workload-175.vpr': 'be20458aa9a9dfe3987e0ab40396fe6fdd1a0997843d0a97e160f269af9b1a6f',
    'workload-176.gcc': '902da4566f5340939cd7b01b2912402e95aaf572084b3601b7dbcd7c6fed791e',
    'workload-181.mcf': '9b444a314eb9fd37c3de5fbe5e7e1232b1af9736952ceb630e1c729755204903',
    'workload-186.crafty': '1d5dffff4f1ffb75bd0b733db4504f3851c2c6fbe6698547492322bfbc7719b4',
    'workload-197.parser': '45ff39c9e3e7b0f11ee1563576555eef3fe047440b7febcbe7731b36e42c8cc2',
    'workload-252.eon': '58874e4ec4cb7791b9a4d355d8ac21409e75e9f5acd9b24790c9a899f13240ae',
    'workload-253.perlbmk': '59e7d2737f2d03a4c828962533a182e0d503792ec1988154661114ac1266ef22',
    'workload-254.gap': '5e346c4fb4cd203581d0cdb576afa038182ec804d4a5c2957c60c614340fdba8',
    'workload-255.vortex': '908df55fcb9acb7795a60745240825c872637ba6c91abeedca4304601e9c0c91',
    'workload-256.bzip2': 'ec1e5224a999f752caf7ab25fa593e53f556ceb07511f541864dbeab29f6e455',
    'workload-300.twolf': 'e907211629547f18f6364b36371c2f418674faf184b0f3830d6c0a66956074d7',
    'workload-linux-2.4': '5f15540ee94635240daa1ff4592462f89266b87d8fd88c9020527dc4e08e3d45',
    'workload-linux-2.6': '5f15540ee94635240daa1ff4592462f89266b87d8fd88c9020527dc4e08e3d45',
    'workload-mysql': '0cf3842eaaaa7844aacdbaa3114892b6f7cd8d15acf3f4f7ff4b18b6dd72ef73',
    'workload-sweep3d': 'bbda3952cfe34b602b29ad691fb01924a41dec12106be27c92f689011a951333',
    'workload-windows-xp': '5f15540ee94635240daa1ff4592462f89266b87d8fd88c9020527dc4e08e3d45',
}


CASES = _cases()


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_assembled_output_matches_golden(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        print("    %r: %r," % (case, CASES[case]()))
    print("}")
