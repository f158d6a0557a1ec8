"""FastLint pass 1: timing-graph extraction and structural rules."""

import json
import warnings

import pytest

from repro.analysis import Severity, extract_graph, lint_timing_graph
from repro.timing.connector import Connector
from repro.timing.core import DEFAULT_ISSUE_WIDTHS, build_default_core
from repro.timing.module import DuplicateModuleNameWarning, Module


def build_chain(latency_ab=1, latency_ba=1, bind_all=True):
    """root -> {a, b} with a -> b and b -> a connectors."""
    root = Module("root")
    a = root.add_child(Module("a"))
    b = root.add_child(Module("b"))
    ab = Connector("a2b", min_latency=latency_ab)
    ba = Connector("b2a", min_latency=latency_ba)
    if bind_all:
        ab.bind_endpoints(producer=a, consumer=b)
        ba.bind_endpoints(producer=b, consumer=a)
    root.add_child(ab)
    root.add_child(ba)
    return root, a, b, ab, ba


# -- the default cores are clean -----------------------------------------


@pytest.mark.parametrize("width", DEFAULT_ISSUE_WIDTHS)
def test_default_cores_lint_clean(width):
    report = lint_timing_graph(build_default_core(width))
    assert report.clean, report.format()
    assert len(report) == 0


def test_default_core_graph_structure():
    core = build_default_core(2)
    graph = extract_graph(core)
    names = [conn.name for _p, conn in graph.connectors]
    assert names == ["fetch2decode", "decode2dispatch"]
    assert all(edge.bound for edge in graph.edges)
    # decode2dispatch crosses from the front end to the back end.
    decode_edge = graph.edges[1]
    assert decode_edge.producer is core.frontend
    assert decode_edge.consumer is core.backend
    assert graph.path_of(core.backend) == "timing_model/backend"


# -- TG001: dangling connectors ------------------------------------------


def test_dangling_connector_detected():
    root, _a, _b, ab, _ba = build_chain(bind_all=False)
    report = lint_timing_graph(root)
    rules = report.rules()
    assert rules.count("TG001") == 2
    assert all(d.severity == Severity.ERROR for d in report.by_rule("TG001"))
    assert "root/a2b" in {d.location for d in report.by_rule("TG001")}


def test_half_bound_connector_detected():
    root, a, _b, ab, ba = build_chain(bind_all=False)
    ab.bind_endpoints(producer=a)  # no consumer
    ba.bind_endpoints(producer=_b_producer(root), consumer=a)
    report = lint_timing_graph(root)
    messages = [d.message for d in report.by_rule("TG001")]
    assert any("no consumer bound" in m for m in messages)


def _b_producer(root):
    return root.find("b")


def test_rebinding_endpoint_raises():
    _root, a, b, ab, _ba = build_chain()
    with pytest.raises(ValueError):
        ab.bind_endpoints(producer=b)
    # Rebinding the same module is idempotent, not an error.
    ab.bind_endpoints(producer=a)


# -- TG002: zero-latency cycles ------------------------------------------


def test_zero_latency_cycle_detected():
    root, _a, _b, _ab, _ba = build_chain(latency_ab=0, latency_ba=0)
    report = lint_timing_graph(root)
    diags = report.by_rule("TG002")
    assert len(diags) == 1
    assert diags[0].severity == Severity.ERROR
    assert "a2b" in diags[0].message and "b2a" in diags[0].message


def test_cycle_with_latency_is_fine():
    root, *_rest = build_chain(latency_ab=0, latency_ba=1)
    assert not lint_timing_graph(root).by_rule("TG002")


def test_zero_latency_self_loop_detected():
    root = Module("root")
    a = root.add_child(Module("a"))
    loop = Connector("loop", min_latency=0)
    loop.bind_endpoints(producer=a, consumer=a)
    root.add_child(loop)
    diags = lint_timing_graph(root).by_rule("TG002")
    assert len(diags) == 1


# -- TG003: duplicate names ----------------------------------------------


def test_duplicate_sibling_name_warns_and_errors():
    root = Module("root")
    root.add_child(Module("dup"))
    with pytest.warns(DuplicateModuleNameWarning):
        root.add_child(Module("dup"))
    diags = lint_timing_graph(root).by_rule("TG003")
    assert [d.severity for d in diags] == [Severity.ERROR]
    assert diags[0].location == "root/dup"


def test_duplicate_cross_branch_name_warns():
    root = Module("root")
    left = root.add_child(Module("left"))
    right = root.add_child(Module("right"))
    left.add_child(Module("l1"))
    right.add_child(Module("l1"))
    diags = lint_timing_graph(root).by_rule("TG003")
    assert [d.severity for d in diags] == [Severity.WARNING]
    assert "find('l1')" in diags[0].message or "l1" in diags[0].message


# -- TG004: throughput mismatch ------------------------------------------


def test_throughput_mismatch_detected():
    root = Module("root")
    a = root.add_child(Module("a"))
    b = root.add_child(Module("b"))
    wide_in = Connector("wide_in", input_throughput=4, output_throughput=1)
    wide_in.bind_endpoints(producer=a, consumer=b)
    root.add_child(wide_in)
    diags = lint_timing_graph(root).by_rule("TG004")
    assert len(diags) == 1
    assert diags[0].severity == Severity.WARNING
    assert "input_throughput=4" in diags[0].message


# -- TG005: endpoint outside the tree ------------------------------------


def test_endpoint_not_in_tree_detected():
    root = Module("root")
    a = root.add_child(Module("a"))
    orphan = Module("orphan")  # never added to the tree
    conn = Connector("a2orphan").bind_endpoints(producer=a, consumer=orphan)
    root.add_child(conn)
    diags = lint_timing_graph(root).by_rule("TG005")
    assert len(diags) == 1
    assert diags[0].severity == Severity.ERROR
    assert "orphan" in diags[0].message


# -- the shared ``lint --json`` report document ---------------------------


def test_lint_json_mode_is_sorted_and_parsable(capsys):
    from repro.analysis.cli import main as lint_main

    exit_code = lint_main(["--json", "--pass", "graph",
                           "--pass", "microcode"])
    out = capsys.readouterr().out
    document = json.loads(out)
    assert exit_code == 0
    diagnostics = document["diagnostics"]
    # The microcode pass's INFO notes keep the sort check non-vacuous.
    assert diagnostics
    keys = [(d["rule"], d["location"], d["message"], d["hint"])
            for d in diagnostics]
    assert keys == sorted(keys)
    assert document["summary"]["infos"] == len(diagnostics)
