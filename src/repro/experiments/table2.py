"""Table 2: fraction of a Virtex4 LX200 consumed by the default FAST
timing model at issue widths 1, 2, 4 and 8.

The paper's key observation is the *flatness*: ~32.8 % of user logic
and 50-51.2 % of block RAMs regardless of width, because wider targets
are simulated with more host cycles over the same structures rather
than with wider hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.harness import finish_experiment, format_table
from repro.host.resources import ResourceReport, estimate_resources
from repro.timing.core import TimingConfig, TimingModel
from repro.timing.feed import NullFeed

PAPER_TABLE2 = {
    1: (32.84, 50.0),
    2: (32.76, 51.2),
    4: (32.81, 51.2),
    8: (32.87, 51.2),
}

ISSUE_WIDTHS = (1, 2, 4, 8)


@dataclass
class Table2Row:
    issue_width: int
    user_logic_pct: float
    bram_pct: float
    paper_logic_pct: float
    paper_bram_pct: float


def build_timing_model(width: int) -> TimingModel:
    return TimingModel(NullFeed(), config=TimingConfig.with_issue_width(width))


def compute() -> List[Table2Row]:
    rows = []
    for width in ISSUE_WIDTHS:
        tm = build_timing_model(width)
        report: ResourceReport = estimate_resources(tm)
        paper = PAPER_TABLE2[width]
        rows.append(
            Table2Row(
                issue_width=width,
                user_logic_pct=100 * report.user_logic_fraction,
                bram_pct=100 * report.bram_fraction,
                paper_logic_pct=paper[0],
                paper_bram_pct=paper[1],
            )
        )
    return rows


def main() -> str:
    rows = compute()
    table = format_table(
        ["Issue", "UserLogic%", "BRAM%", "paper Logic%", "paper BRAM%"],
        [
            (
                r.issue_width,
                "%.2f" % r.user_logic_pct,
                "%.1f" % r.bram_pct,
                "%.2f" % r.paper_logic_pct,
                "%.1f" % r.paper_bram_pct,
            )
            for r in rows
        ],
    )
    return finish_experiment(
        "table2", "Table 2: Virtex4 LX200 resources vs issue width\n" + table
    )


if __name__ == "__main__":
    print(main())
