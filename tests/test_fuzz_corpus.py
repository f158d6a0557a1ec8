"""Replay the fuzz regression corpus through the full oracle matrix.

Every ``tests/corpus/repro-*.s`` file is a shrunk program that once
exposed a divergence (under a real bug or an injected fault).  Each
replay must now come back clean: all nine matrix cells agree -- the
eight canonical engine x feed x irq couplings and the superblocks-off
ninth cell -- and the instruction-mode column matches the golden
functional-only run.  A failure here means a previously-fixed (or
deliberately injected) divergence has returned for real.
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import iter_corpus
from repro.fuzz.oracle import ORACLE_CELLS, OracleConfig, run_matrix

CORPUS_DIR = Path(__file__).parent / "corpus"
REPROS = list(iter_corpus(CORPUS_DIR))

# Corpus entries are shrunk (a handful of instructions), so tight
# budgets keep the full-matrix replay cheap.
REPLAY_CONFIG = OracleConfig(max_cycles=600_000, max_instructions=200_000)

# The same matrix with the FastWatch invariant fabric armed in every
# cell: any firing is a divergence, so replaying the corpus also pins
# the fabric's false-positive rate at zero across all nine couplings.
WATCHED_CONFIG = OracleConfig(max_cycles=600_000, max_instructions=200_000,
                              invariants=True)


def test_corpus_is_seeded():
    assert len(REPROS) >= 5, "the shipped corpus must stay non-trivial"


def test_replay_covers_the_nine_cell_matrix():
    # run_matrix defaults to ORACLE_CELLS, so every replay below runs
    # the full matrix -- including the superblocks-off ninth cell.
    assert len(ORACLE_CELLS) == 9
    assert any(cell.blocks == "off" for cell in ORACLE_CELLS)


@pytest.mark.parametrize("repro", REPROS, ids=lambda r: r.name)
def test_corpus_replays_clean(repro):
    outcome = run_matrix(repro.source, repro.base, seed=repro.seed,
                         config=REPLAY_CONFIG)
    assert outcome.golden_status == "ok", (
        "%s: golden run %s" % (repro.name, outcome.golden_status))
    assert outcome.ok, "%s diverged:\n%s" % (
        repro.name, "\n".join(str(d) for d in outcome.divergences))


@pytest.mark.parametrize("repro", REPROS, ids=lambda r: r.name)
def test_corpus_replays_clean_with_invariants(repro):
    outcome = run_matrix(repro.source, repro.base, seed=repro.seed,
                         config=WATCHED_CONFIG)
    assert outcome.ok, "%s diverged with invariants armed:\n%s" % (
        repro.name, "\n".join(str(d) for d in outcome.divergences))
    total = sum(c.invariant_firings for c in outcome.cells.values())
    assert total == 0, (
        "%s: %d false-positive invariant firing(s)" % (repro.name, total))
