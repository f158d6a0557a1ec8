"""Dataflow-graph extraction over a timing-model Module tree.

The paper's Bluespec compiler sees the timing model as a graph of
modules joined by FIFOs and statically rejects malformed structure; our
Python Module/Connector tree has no compiler, so FastLint extracts the
same graph explicitly.  A :class:`TimingGraph` combines

* the *hierarchy* (every module, by slash-separated path), and
* the *dataflow* edges (producer module -> Connector -> consumer
  module) declared via :meth:`repro.timing.connector.Connector.
  bind_endpoints`.

Beyond linting, the graph is the substrate of the compiled tick
engine (:mod:`repro.timing.schedule`): its consumer-first evaluation
order is well defined only when the graph has no zero-latency cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.timing.connector import Connector
from repro.timing.module import Module


@dataclass(frozen=True)
class Edge:
    """One dataflow edge: *producer* pushes through *connector* to
    *consumer*.  Endpoint fields are ``None`` while unbound."""

    connector: Connector
    producer: Optional[Module]
    consumer: Optional[Module]

    @property
    def latency(self) -> int:
        return self.connector.min_latency

    @property
    def bound(self) -> bool:
        return self.producer is not None and self.consumer is not None


class TimingGraph:
    """The extracted module hierarchy plus dataflow edges."""

    def __init__(self, root: Module):
        self.root = root
        # First path wins for each distinct module object; duplicate
        # *names* are recorded separately for the TG003 rule.
        self.paths: Dict[int, str] = {}
        self.modules: List[Tuple[str, Module]] = []
        self.connectors: List[Tuple[str, Connector]] = []
        for path, module in root.walk_paths():
            self.modules.append((path, module))
            self.paths.setdefault(id(module), path)
            if isinstance(module, Connector):
                self.connectors.append((path, module))
        self.edges: List[Edge] = [
            Edge(conn, conn.producer, conn.consumer)
            for _path, conn in self.connectors
        ]

    # -- lookups ---------------------------------------------------------

    def path_of(self, module: Optional[Module]) -> str:
        """Path of *module* inside the tree, or a marker if external."""
        if module is None:
            return "<unbound>"
        return self.paths.get(id(module), "<not-in-tree:%s>" % module.name)

    def contains(self, module: Module) -> bool:
        return id(module) in self.paths

    def duplicate_paths(self) -> Dict[str, int]:
        """Tree paths used by more than one module (statistics collide)."""
        counts: Dict[str, int] = {}
        for path, _module in self.modules:
            counts[path] = counts.get(path, 0) + 1
        return {path: n for path, n in counts.items() if n > 1}

    def duplicate_names(self) -> Dict[str, List[str]]:
        """Module names used in more than one place (find() is ambiguous)."""
        by_name: Dict[str, List[str]] = {}
        for path, module in self.modules:
            by_name.setdefault(module.name, []).append(path)
        return {name: paths for name, paths in by_name.items() if len(paths) > 1}

    # -- dataflow structure ----------------------------------------------

    def endpoint_modules(self) -> List[Module]:
        """Distinct modules participating in at least one edge, in
        deterministic first-seen order."""
        seen: Dict[int, Module] = {}
        for edge in self.edges:
            for module in (edge.producer, edge.consumer):
                if module is not None:
                    seen.setdefault(id(module), module)
        return list(seen.values())

    def successors(self, min_latency: Optional[int] = None) -> Dict[int, List[Edge]]:
        """Adjacency ``id(producer) -> [edges]``; optionally only edges
        whose connector latency equals *min_latency*."""
        adj: Dict[int, List[Edge]] = {}
        for edge in self.edges:
            if not edge.bound:
                continue
            if min_latency is not None and edge.latency != min_latency:
                continue
            adj.setdefault(id(edge.producer), []).append(edge)
        return adj

    def zero_latency_cycles(self) -> List[List[Edge]]:
        """Cycles in which every connector has ``min_latency == 0``.

        In a cycle-driven schedule such a loop never makes progress: an
        item pushed this cycle is poppable this same cycle, so module
        evaluation order becomes load-bearing (combinational loop /
        livelock).  Returns one representative edge list per cycle.
        """
        adj = self.successors(min_latency=0)
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {}
        cycles: List[List[Edge]] = []

        def visit(node: Module, stack: List[Edge]) -> None:
            color[id(node)] = GRAY
            for edge in adj.get(id(node), ()):
                nxt = edge.consumer
                state = color.get(id(nxt), WHITE)
                if state == GRAY:
                    if nxt is node:  # self-loop
                        cycles.append([edge])
                        continue
                    # Unwind the stack back to where the cycle starts.
                    cycle = [edge]
                    for prior in reversed(stack):
                        cycle.append(prior)
                        if prior.producer is nxt:
                            break
                    cycles.append(list(reversed(cycle)))
                elif state == WHITE:
                    stack.append(edge)
                    visit(nxt, stack)
                    stack.pop()
            color[id(node)] = BLACK

        for module in self.endpoint_modules():
            if color.get(id(module), WHITE) == WHITE:
                visit(module, [])
        return cycles

    def describe_cycle(self, cycle: List[Edge]) -> str:
        """Human-readable ``a -[conn]-> b -[conn]-> a`` rendering."""
        if not cycle:
            return "<empty cycle>"
        parts = [self.path_of(cycle[0].producer)]
        for edge in cycle:
            parts.append("-[%s]->" % edge.connector.name)
            parts.append(self.path_of(edge.consumer))
        return " ".join(parts)


def extract_graph(root: Module) -> TimingGraph:
    """Extract the dataflow graph of the Module tree rooted at *root*."""
    return TimingGraph(root)
