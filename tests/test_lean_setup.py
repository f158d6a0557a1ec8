"""The simulator's set-up path loads no FastLint pass.

The compiled engine's schedule needs only the dataflow graph
(:mod:`repro.analysis.graph`); ``repro.analysis`` resolves its other
exports on first use, so building and running a simulator -- bare or
with the full observer stack armed -- never imports a lint pass.  The
check runs in a fresh interpreter so that no other test's imports can
mask a regression.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

_CHILD = """
import json, sys
from repro.fast.simulator import FastSimulator
from repro.observability import FastScope
from repro.observability.triggers import rob_occupancy, trace_buffer_occupancy
from repro.workloads import build

workload = build("181.mcf")
for armed in (False, True):
    sim = FastSimulator.from_programs(
        workload.programs, kernel_config=workload.kernel_config)
    if armed:
        scope = FastScope(sim, pulse_path=sys.argv[1])
        scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
        scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    assert sim.run(max_cycles=3000).timing.cycles > 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("repro.analysis"))))
"""


def test_simulator_setup_loads_no_lint_pass(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "pulse.jsonl")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == ["repro.analysis", "repro.analysis.graph"]


def test_package_exports_resolve_on_first_use():
    import repro.analysis as analysis
    from repro.analysis import Severity, extract_graph, lint_microcode
    from repro.analysis.diagnostics import Severity as defined

    assert Severity is defined
    assert callable(extract_graph) and callable(lint_microcode)
    assert sorted(analysis._EXPORTS) == sorted(analysis.__all__)
    for name in analysis.__all__:
        assert getattr(analysis, name) is not None
