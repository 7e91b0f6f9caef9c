from __future__ import annotations

import bisect
import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from avoidkit import graphs
from avoidkit.generate import (
    circulant,
    complete,
    complete_bipartite,
    configuration_model,
    cycle,
    heawood,
    petersen,
    random_regular_simple,
)
from avoidkit.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    GraphParseError,
    Multigraph,
    basic_profile,
    common_neighbors,
    graph_from_edges,
    is_connected,
    parse_graph,
)
from conftest import distance_capped


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=30, unique=True)) if all_pairs else []
    return graph_from_edges(n, edges)


def test_petersen_profile(pet):
    prof = basic_profile(pet)
    assert (prof.n, prof.edge_count, prof.regular_degree, prof.connected) == (10, 15, 3, True)


def test_graph_rejects_loops_and_parallels():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (1, 0)])
    g = graph_from_edges(3, [(0, 1), (1, 0)], dedupe=True)
    assert g.duplicate_edges_dropped == 1 and g.edge_count == 1


def test_graph_validates_adjacency():
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))  # asymmetric
    # a triangle with its rows listed backwards: the same edges as the
    # sorted one, but a digest and detector inputs of its own
    with pytest.raises(ValueError, match="adjacency of vertex 0 is not increasing"):
        Graph(3, ((2, 1), (2, 0), (1, 0)))
    assert Graph(3, ((1, 2), (0, 2), (0, 1))).digest() == "7c0343f77a3c54a7"


def per_neighbour_fault(n, adjacency):
    """The reference for Graph's checks: the first fault's message in
    vertex order, then neighbour order, found with five separate tests, or
    None."""
    if len(adjacency) != n:
        return "adjacency length must equal n"
    for v, nbrs in enumerate(adjacency):
        for i, u in enumerate(nbrs):
            if u == v:
                return f"loop at vertex {v}"
            if not 0 <= u < n:
                return f"vertex {u} out of range"
            if u in nbrs[:i]:
                return f"parallel edges at vertex {v}"
            if i and u < nbrs[i - 1]:
                return f"adjacency of vertex {v} is not increasing"
            if v not in adjacency[u]:
                return f"asymmetric edge ({v},{u})"
    return None


@st.composite
def faulty_adjacencies(draw):
    """A simple graph's sorted adjacency with up to four planted faults:
    loops, repeated neighbours, ids outside 0..n-1, arcs one end does not
    list back (added or removed) and shuffled rows.  A planted neighbour
    goes into its row's sorted place or at a drawn position, which may
    also leave the row unsorted.  Sometimes a row is added or dropped too."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    rows = [sorted(row) for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["loop", "repeat", "range", "one-way", "drop-arc", "shuffle"]))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        row = rows[v]
        planted = None
        if kind == "loop":
            planted = v
        elif kind == "repeat" and row:
            planted = draw(st.sampled_from(row))
        elif kind == "range":
            planted = draw(st.sampled_from([-1, -n, n, n + 3]))
        elif kind == "one-way":
            planted = draw(st.integers(min_value=0, max_value=n - 1))
        elif kind == "drop-arc" and row:
            row.remove(draw(st.sampled_from(row)))
        elif kind == "shuffle":
            rows[v] = list(draw(st.permutations(row)))
        if planted is not None:
            if draw(st.booleans()):
                bisect.insort(row, planted)
            else:
                row.insert(draw(st.integers(min_value=0, max_value=len(row))), planted)
    resize = draw(st.sampled_from([0] * 8 + [-1, 1]))
    rows = rows[:resize] if resize < 0 else rows + [[]] * resize
    return n, tuple(map(tuple, rows))


@given(faulty_adjacencies())
def test_graph_reports_the_per_neighbour_first_fault(case):
    n, adjacency = case
    want = per_neighbour_fault(n, adjacency)
    if want is None:
        assert Graph(n, adjacency).adjacency == adjacency
    else:
        with pytest.raises(ValueError) as err:
            Graph(n, adjacency)
        assert str(err.value) == want


def test_parse_round_trip(pet):
    assert parse_graph(pet.to_text()).adjacency == pet.adjacency
    assert parse_graph(pet.to_text()).digest() == pet.digest()


def test_parse_errors_name_lines():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("nonsense\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("3 1\n0 zero\n")
    with pytest.raises(GraphParseError, match="loop at line 3"):
        parse_graph("3 2\n0 1\n2 2\n")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph("3 1\n0 7\n")


def test_parse_rejects_lines_past_the_declared_edges():
    with pytest.raises(GraphParseError, match="extra line 3 after the header's 1 edge line"):
        parse_graph("3 1\n0 1\n1 2\n")
    with pytest.raises(GraphParseError, match="extra line 5 .*'x'"):
        parse_graph("3 1\n0 1\n\n \nx\n")
    # a malformed edge line comes first in file order
    with pytest.raises(GraphParseError, match="malformed edge at line 2"):
        parse_graph("3 1\n0 x\n1 2\n")
    assert parse_graph("3 1\n0 1\n\n  \n").edge_count == 1  # trailing blank lines stay allowed


def test_parse_counts_duplicates():
    g = parse_graph("3 3\n0 1\n1 2\n1 0\n")
    assert g.duplicate_edges_dropped == 1
    assert g.edge_count == 2


def test_parse_size_limits():
    assert parse_graph(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    with pytest.raises(GraphParseError, match=f"{MAX_VERTICES + 1} vertices exceed the limit .* at line 1"):
        parse_graph(f"{MAX_VERTICES + 1} 0\n")
    with pytest.raises(GraphParseError, match=f"{MAX_EDGES + 1} edges exceed the limit .* at line 1"):
        parse_graph(f"2 {MAX_EDGES + 1}\n0 1\n")


def test_graph_from_edges_size_limits(monkeypatch):
    with pytest.raises(ValueError, match="vertices exceed the limit"):
        graph_from_edges(MAX_VERTICES + 1, [])
    monkeypatch.setattr(graphs, "MAX_EDGES", 3)
    assert graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)], dedupe=True).edge_count == 3
    with pytest.raises(ValueError, match="more than 3 edges"):
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize("build,args,what", [
    (cycle, (MAX_VERTICES + 1,), "vertices"),
    (complete, (1415,), "edges"),  # 1,000,405 edges
    (complete_bipartite, (1, MAX_VERTICES), "vertices"),
    (complete_bipartite, (1000, 1001), "edges"),
    (circulant, (MAX_VERTICES + 2, [1]), "vertices"),
    (circulant, (MAX_VERTICES, range(1, 12)), "edges"),
    (configuration_model, (MAX_VERTICES + 2, 2, 0), "vertices"),
    (configuration_model, (1000, 2001, 0), "edges"),
    (random_regular_simple, (MAX_VERTICES + 2, 2, 0), "vertices"),
    (random_regular_simple, (2002, 1001, 0), "edges"),
], ids=["cycle-n", "complete-m", "bipartite-n", "bipartite-m", "circulant-n", "circulant-m",
        "configuration-n", "configuration-m", "random-regular-n", "random-regular-m"])
def test_families_check_size_before_building(build, args, what):
    with pytest.raises(ValueError, match=f"{what} exceed the limit"):
        build(*args)


def test_digest_is_stable(pet):
    # Frozen value; any change to the canonical text format must be deliberate.
    assert pet.digest() == "223b9bae4baa1733"


def test_digest_serialises_the_graph_once(monkeypatch):
    serialised = []
    text_chunks = Graph.text_chunks

    def counted(self):
        serialised.append(self)
        return text_chunks(self)

    monkeypatch.setattr(Graph, "text_chunks", counted)
    g, same = petersen(), petersen()
    assert g.digest() == g.digest() == "223b9bae4baa1733"
    assert len(serialised) == 1
    assert same.digest() == g.digest() and len(serialised) == 2  # one per instance
    assert g == same and hash(g) == hash(same)  # the kept value is not a field


PINNED_HOSTS = {
    "petersen": petersen,
    "heawood": heawood,
    "C9(1,2)": lambda: circulant(9, [1, 2]),
    "C10": lambda: cycle(10),
    "rr5-n64": lambda: random_regular_simple(64, 5, 0, connected_required=True)[0],
    "rr3-n250": lambda: random_regular_simple(250, 3, 0, connected_required=True)[0],
    "C10000": lambda: cycle(10_000),  # three pieces of `text_chunks`
    "n=0": lambda: Graph(0, ()),
}


@pytest.mark.parametrize("name", PINNED_HOSTS)
def test_digest_hashed_in_pieces_is_the_digest_of_the_whole_text(name):
    g = PINNED_HOSTS[name]()
    text = "".join([f"{g.n} {g.edge_count}\n", *(f"{u} {v}\n" for u, v in g.edges())])
    assert g.to_text() == text
    assert g.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_digest_of_a_100000_vertex_cycle_stays_below_2_mib():
    """Hashed as one text, the digest peaked at 15.6 MiB here; a piece of
    4,096 vertices' lines at a time keeps it near 0.3 MiB."""
    g = cycle(100_000)
    gc.collect()
    tracemalloc.start()
    try:
        g.digest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_distance_capped_on_cycle():
    g = cycle(8)
    assert distance_capped(g, 0, 4, 10) == 4
    assert distance_capped(g, 0, 4, 3) == 3  # cap acts as a sentinel
    assert distance_capped(g, 2, 2, 5) == 0


@given(random_graphs(), st.data())
def test_distance_symmetry_and_triangle(g, data):
    if g.n < 3:
        return
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    w = data.draw(st.integers(0, g.n - 1))
    cap = 2 * g.n
    duv = distance_capped(g, u, v, cap)
    assert duv == distance_capped(g, v, u, cap)
    duw = distance_capped(g, u, w, cap)
    dwv = distance_capped(g, w, v, cap)
    if duw < cap and dwv < cap:
        assert duv <= duw + dwv


@given(random_graphs())
def test_text_round_trip(g):
    back = parse_graph(g.to_text())
    assert back.adjacency == g.adjacency


def test_common_neighbors(pet):
    assert common_neighbors(pet, 0, 2) == (1,)
    with pytest.raises(ValueError):
        common_neighbors(pet, 3, 3)


def test_is_connected():
    assert is_connected(cycle(5))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_multigraph_counts():
    mg = Multigraph(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
    assert mg.loop_count() == 1
    assert mg.multi_edge_count() == 1
    assert not mg.is_simple()
    support = mg.simple_support()
    assert support.edges() == [(0, 1), (1, 2)]


@st.composite
def random_multigraphs(draw):
    # few vertices and many slots, so loops and repeated pairs are common
    n = draw(st.integers(min_value=1, max_value=8))
    slots = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    return Multigraph(n, draw(st.lists(slots, max_size=40)))


@given(random_multigraphs())
def test_census_matches_the_separate_counts(mg):
    loops, multi, support = mg.census()
    assert (loops, multi) == (mg.loop_count(), mg.multi_edge_count())
    assert support == mg.simple_support()
    # the dedupe build of the non-loop slots is the support's definition
    reference = graph_from_edges(mg.n, ((u, v) for u, v in mg.edges if u != v), dedupe=True)
    assert support == reference and support.duplicate_edges_dropped == multi
    assert mg.is_simple() == (loops == multi == 0)
