"""The netlist's stdlib topological sort against networkx's."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.sta import GateNetlist


@st.composite
def netlists(draw):
    """A random single-input-cell DAG, its instances added in a random
    order (loads often before their drivers) with some undriven and
    some primary-input roots."""
    count = draw(st.integers(min_value=1, max_value=40))
    inputs = [None] * count
    for rank in range(count):
        # Rank r reads a primary input or an earlier rank's output.
        inputs[rank] = draw(st.integers(min_value=-2, max_value=rank - 1))
    insertion = draw(st.permutations(range(count)))
    netlist = GateNetlist()
    netlist.add_primary_input("pi")
    for rank in insertion:
        source = inputs[rank]
        net = ("pi" if source == -2 else "floating" if source == -1
               else f"n{source}")
        netlist.add_instance(f"u{rank}", "fast", net, f"n{rank}")
    return netlist


def _networkx_order(netlist):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    for inst in netlist.instances.values():
        graph.add_node(inst.name)
    for inst in netlist.instances.values():
        for load in netlist.loads_of(inst.output_net):
            graph.add_edge(inst.name, load.name)
    return list(nx.topological_sort(graph))


@settings(max_examples=150, deadline=None)
@given(netlists())
def test_order_matches_networkx(netlist):
    # An undriven input fails validation; declared a primary input,
    # the same netlist sorts.
    floating = any(inst.input_net == "floating"
                   for inst in netlist.instances.values())
    if floating:
        with pytest.raises(AnalysisError, match="no driver"):
            netlist.topological_instances()
        netlist.add_primary_input("floating")
    order = [inst.name for inst in netlist.topological_instances()]
    assert order == _networkx_order(netlist)


def test_loop_behind_a_valid_prefix_is_reported():
    netlist = GateNetlist()
    netlist.add_primary_input("a")
    netlist.add_instance("u0", "fast", "a", "b")
    netlist.add_instance("u1", "fast", "d", "c")
    netlist.add_instance("u2", "fast", "c", "d")
    with pytest.raises(AnalysisError,
                       match=r"^combinational loop: u2 -> u1 -> u2$"):
        netlist.validate()
