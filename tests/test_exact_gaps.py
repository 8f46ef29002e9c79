"""Event levels that are adjacent floats.

An edge spans an inter-event gap exactly when it covers both of the gap's
end levels, so no gap is too narrow to decide: every path (validation,
the sweep, its invariant check, and the naive oracle) must accept graphs
whose critical levels sit one float apart.  Splits at 0.3 and 0.5 cover
both directions in which the float midpoint of such a gap rounds.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebound import (
    GenParams,
    ReebGraph,
    ReebVertex,
    VertexKind,
    assign_all,
    essential_subgraph,
    random_reeb,
    validate,
)
from reebound.errors import MalformedGraph
from reebound.graph import EdgeLabel, ReebEdge

from _fixtures import (
    adjacent_saddles_graph,
    center_below_saddle_graph,
    squeezed,
)
from _oracles import naive_assign

LEVELS = [0.3, 0.5]
ADJACENT_EXPECTED = {"e0": 1, "a": 2, "b": 2, "c": 3, "d": 3}


def _assignments(g):
    sub = essential_subgraph(g, prevalidated=True)
    checked = assign_all(sub, check=True).assigned
    return checked, naive_assign(sub).assigned


@pytest.mark.parametrize("s", LEVELS)
def test_adjacent_saddles_accepted(s):
    g = adjacent_saddles_graph(s)
    assert validate(g).ok
    checked, naive = _assignments(g)
    assert checked == naive == ADJACENT_EXPECTED


@pytest.mark.parametrize("s", LEVELS)
def test_center_below_saddle_accepted(s):
    g = center_below_saddle_graph(s)
    assert validate(g).ok
    checked, naive = _assignments(g)
    assert checked == naive == {"e0": 1, "e1": 1}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), saddles=st.integers(1, 20),
       pbias=st.floats(0, 1), ibias=st.floats(0, 1),
       center=st.sampled_from([0.25, 0.3, 0.5, 0.75])
       | st.floats(0.05, 0.95))
def test_nextafter_chain_property(seed, saddles, pbias, ibias, center):
    g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                              parallel_edge_bias=pbias,
                              inessential_bias=ibias))
    expected = assign_all(essential_subgraph(g, prevalidated=True)).assigned
    squeezed_g = squeezed(g, center)
    assert validate(squeezed_g).ok
    checked, naive = _assignments(squeezed_g)
    assert checked == naive == expected


def test_subgraph_edge_to_missing_vertex_is_malformed():
    with pytest.raises(MalformedGraph):
        ReebGraph(
            (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),),
            (ReebEdge("e0", "b", "ghost", EdgeLabel.ESSENTIAL),),
            0.0, 1.0)
