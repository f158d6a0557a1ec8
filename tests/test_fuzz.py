"""FastFuzz itself: generator determinism and termination, the oracle
matrix on clean simulators, campaign byte-determinism, and the
mutation smoke test -- an intentionally injected semantics bug must be
caught by the matrix and shrunk to a tiny repro."""

import pytest

from repro.fuzz.cli import SMOKE_GENERATOR, SMOKE_ORACLE, SMOKE_SEED, fuzz_campaign
from repro.fuzz.corpus import load_repro, write_repro
from repro.fuzz.generator import GeneratorConfig, generate_program
from repro.fuzz.oracle import (
    ORACLE_CELLS,
    OracleConfig,
    run_golden,
    run_matrix,
)
from repro.fuzz.shrinker import instruction_count, shrink
from repro.isa.opcodes import OPCODES


class TestGenerator:
    def test_same_seed_is_byte_identical(self):
        for seed in (1, 7, 42, 20070601):
            assert (generate_program(seed).source()
                    == generate_program(seed).source())

    def test_different_seeds_differ(self):
        sources = {generate_program(seed).source() for seed in range(1, 21)}
        assert len(sources) >= 18  # near-certain distinctness

    def test_every_atom_kind_reachable(self):
        kinds = set()
        for seed in range(1, 120):
            kinds |= {a.kind for a in generate_program(seed).atoms}
        expected = {kind for kind, _w in GeneratorConfig().weights}
        assert kinds >= expected | {"seed-regs"}

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_programs_terminate_by_construction(self, seed):
        program = generate_program(seed, SMOKE_GENERATOR)
        _arch, status = run_golden(program.source(), program.base,
                                   OracleConfig(max_instructions=120_000))
        assert status == "ok", "seed %d did not power off" % seed


class TestOracleMatrix:
    def test_matrix_has_nine_cells(self):
        # 2 engines x 2 feeds x 2 irq modes, plus the superblocks-off
        # replay-pinning cell.
        assert len(ORACLE_CELLS) == 9
        assert len({c.label for c in ORACLE_CELLS}) == 9
        assert sum(1 for c in ORACLE_CELLS if c.blocks == "off") == 1
        assert {c.engine for c in ORACLE_CELLS} == {"legacy", "compiled"}

    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_clean_simulators_agree(self, seed):
        program = generate_program(seed, SMOKE_GENERATOR)
        outcome = run_matrix(program.source(), program.base, seed=seed,
                             config=SMOKE_ORACLE)
        assert outcome.golden_status == "ok"
        assert outcome.ok, "\n".join(str(d) for d in outcome.divergences)


class TestCampaignDeterminism:
    def test_same_seed_same_output(self, capsys, tmp_path):
        def once():
            failures = fuzz_campaign(
                SMOKE_SEED, 6, generator=SMOKE_GENERATOR,
                oracle=SMOKE_ORACLE, corpus_dir=str(tmp_path),
            )
            return failures, capsys.readouterr().out

        first = once()
        second = once()
        assert first == second  # byte-identical summaries
        assert first[0] == 0  # main is clean: no divergences
        assert list(tmp_path.iterdir()) == []  # no repros written


class TestCorpusFiles:
    def test_write_load_roundtrip(self, tmp_path):
        source = "main:\n    MOVI R1, 0\n    OUT 0x40, R1\n    HALT\n"
        path = write_repro(tmp_path, source, 0x1000, 77,
                           divergences=["stats: a vs b on cycles (1 vs 2)"],
                           listing="0x1000: MOVI R1, 0")
        repro = load_repro(path)
        assert repro.seed == 77
        assert repro.base == 0x1000
        assert repro.notes == ["stats: a vs b on cycles (1 vs 2)"]
        assert source.rstrip() in repro.source
        # Content-addressed: rewriting the same program is idempotent.
        assert write_repro(tmp_path, source, 0x1000, 77) == path
        assert len(list(tmp_path.glob("repro-*.s"))) == 1


def _xor_corruptor(fm, tm, cell):
    """The injected bug: XOR/XORI results are off by one bit, but only
    in trace-buffer couplings -- exactly the class of feed-dependent
    semantics drift the oracle matrix exists to catch."""
    if cell.feed != "tb":
        return
    for name in ("XOR", "XORI"):
        value = OPCODES[name].value
        original = fm._dispatch[value]

        def corrupted(instr, res, _orig=original, _fm=fm):
            _orig(instr, res)
            regs = _fm.state.regs
            regs[instr.dst] = (regs[instr.dst] ^ 1) & 0xFFFFFFFF

        fm._dispatch[value] = corrupted


class TestMutationSmoke:
    """The acceptance bar from the issue: an intentionally injected
    semantics bug is caught and shrunk to a <= 12-instruction repro."""

    def test_injected_bug_caught_and_shrunk(self):
        oracle = OracleConfig(max_cycles=400_000, max_instructions=120_000,
                              mutator=_xor_corruptor)

        def is_failing(candidate):
            return not run_matrix(candidate.source(), candidate.base,
                                  seed=candidate.seed, config=oracle).ok

        found = None
        for seed in range(1, 40):
            program = generate_program(seed, SMOKE_GENERATOR)
            if is_failing(program):
                found = program
                break
        assert found is not None, "no generated program executed an XOR"

        small, stats = shrink(found, is_failing, max_evals=120)
        assert stats.atoms_after <= stats.atoms_before
        assert instruction_count(small) <= 12
        final = run_matrix(small.source(), small.base, seed=small.seed,
                           config=oracle)
        assert not final.ok
        # The divergence names a trace-buffer cell against the lock-step
        # reference of the same interrupt mode.
        assert any("/tb/" in d.cell for d in final.divergences)
