"""Graph-level analysis of thermal circuits via networkx.

These helpers are not needed to reproduce the paper's numbers, but they make
the compact models inspectable: export a circuit as a weighted graph, compute
the effective (Thevenin) resistance between two nodes, and enumerate the
dominant heat paths — the paper's "path 1 / path 2 / path 3" of Fig. 1(b)
fall out of :func:`dominant_paths` on Model A's network.

networkx is imported by the two helpers that build graphs, so solving a
circuit never needs it installed or pays for loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import NetworkError
from .circuit import ThermalCircuit
from .elements import GROUND, NodeId

if TYPE_CHECKING:
    import networkx as nx


def to_networkx(circuit: ThermalCircuit) -> nx.MultiGraph:
    """Export a circuit as a multigraph with ``resistance`` edge weights."""
    import networkx as nx

    graph = nx.MultiGraph()
    graph.add_node(GROUND)
    graph.add_nodes_from(circuit.nodes)
    for r in circuit.resistors:
        graph.add_edge(r.node_a, r.node_b, resistance=r.resistance, label=r.label)
    return graph


def effective_resistance(
    circuit: ThermalCircuit, node_a: NodeId, node_b: NodeId = GROUND
) -> float:
    """Thevenin thermal resistance between two nodes, K/W.

    Injects 1 W at ``node_a``, extracts it at ``node_b`` and reads the
    temperature difference — the standard two-point resistance.
    """
    if node_a == node_b:
        raise NetworkError("effective resistance of a node to itself is zero")
    probe = ThermalCircuit()
    for r in circuit.resistors:
        probe.add_resistor(r.node_a, r.node_b, r.resistance, label=r.label)
    probe.add_source(node_a, 1.0, label="probe+")
    if node_b != GROUND:
        probe.add_source(node_b, -1.0, label="probe-")
    solution = probe.solve()
    return solution[node_a] - solution[node_b]


def dominant_paths(
    circuit: ThermalCircuit, source: NodeId, limit: int = 3
) -> list[tuple[list[NodeId], float]]:
    """The ``limit`` lowest-resistance simple paths from ``source`` to ground.

    Each path's figure of merit is the *series* sum of its edge resistances
    (parallel edges between the same node pair are merged first).  Returns
    ``(path, series_resistance)`` tuples, best first.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_node(GROUND)
    graph.add_nodes_from(circuit.nodes)
    for r in circuit.resistors:
        if graph.has_edge(r.node_a, r.node_b):
            existing = graph[r.node_a][r.node_b]["resistance"]
            merged = 1.0 / (1.0 / existing + 1.0 / r.resistance)
            graph[r.node_a][r.node_b]["resistance"] = merged
        else:
            graph.add_edge(r.node_a, r.node_b, resistance=r.resistance)
    if source not in graph:
        raise NetworkError(f"no node {source!r} in the circuit")
    paths = nx.shortest_simple_paths(graph, source, GROUND, weight="resistance")
    out: list[tuple[list[NodeId], float]] = []
    for path in paths:
        total = sum(
            graph[a][b]["resistance"] for a, b in zip(path, path[1:])
        )
        out.append((list(path), total))
        if len(out) >= limit:
            break
    return out
