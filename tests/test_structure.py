from __future__ import annotations

import pytest

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
from avoidkit.graphs import common_neighbors, graph_from_edges
from avoidkit.structure import (
    S1,
    admissibility_verdict,
    admits_K22,
    classify_scenario,
    closed_neighborhood_duplicates,
    codegrees,
    contains_H3tilde,
    contains_Hd,
    is_square_free,
    radius2_set,
    require_engine_applicable,
)
from conftest import distance_capped


# Reference detectors: the pairwise scans the co-degree pass replaced.

def ref_contains_Hd(g, d):
    for a in range(g.n):
        for b in g.adjacency[a]:
            if b > a and len(common_neighbors(g, a, b)) >= d - 1:
                return (a, b)
    return None


def ref_contains_H3tilde(g):
    for a in range(g.n):
        for b in range(a + 1, g.n):
            cn = common_neighbors(g, a, b)
            if len(cn) < 3:
                continue
            for x in range(len(cn)):
                for y in range(x + 1, len(cn)):
                    if g.has_edge(cn[x], cn[y]):
                        return (a, b, cn[x], cn[y])
    return None


def ref_is_square_free(g):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cn = common_neighbors(g, u, v)
            if len(cn) >= 2:
                return (u, cn[0], v, cn[1])
    return None


def _supports():
    """Simple supports of configuration-model graphs, d in 3..6, small n."""
    for d in (3, 4, 5, 6):
        for n in range(d + 1, 31):
            if n * d % 2:
                continue
            for seed in range(12):
                yield d, configuration_model(n, d, 1000 * n + seed).simple_support()


def _named_hosts():
    # the last two hold their obstruction at (0, 1) beside a vertex of degree
    # above d: H_4 with maximum degree 5, and H~_3 with maximum degree 4
    return [(5, complete(6)), (3, petersen()), (3, heawood()),
            (3, complete_bipartite(3, 3)), (4, circulant(9, [1, 2])),
            (4, graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5)])),
            (3, graph_from_edges(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (0, 5)]))]


def test_codegrees_count_common_neighbors(pet, s3b_host):
    for g in (pet, s3b_host, complete(6), circulant(9, [1, 2])):
        cg = codegrees(g)
        expected = {(u, v): len(common_neighbors(g, u, v))
                    for u in range(g.n) for v in range(u + 1, g.n)}
        assert dict(cg) == {p: c for p, c in expected.items() if c}


def test_detectors_match_pairwise_reference():
    hits = {"H3": 0, "C4": 0, "Hd": 0}
    for d, g in [*_named_hosts(), *_supports()]:
        got = contains_H3tilde(g)
        assert got == ref_contains_H3tilde(g)
        hits["H3"] += got is not None
        got = is_square_free(g)
        assert got == ref_is_square_free(g)
        hits["C4"] += got is not None
        for dd in range(2, d + 2):
            got = contains_Hd(g, dd)
            assert got == ref_contains_Hd(g, dd), (d, dd, g.adjacency)
            hits["Hd"] += got is not None
    # the sweep must exercise both outcomes of every detector
    assert all(count > 50 for count in hits.values()), hits


def test_h3tilde_visits_pairs_in_sorted_order():
    # (0,1) has 3 independent common neighbours; (2,3) and (11,12) each have
    # an adjacent pair among theirs.  (11,12) meets its first 2-path at
    # centre 4, so it is counted before (0,1) and (2,3); the witness must
    # still come from the lexicographically first qualifying pair.  The
    # pendant edge (13,15) gives vertex 13 degree 4, so the second host
    # takes the co-degree path instead of keying neighbourhoods.
    for pendant in ([], [(13, 15)]):
        g = graph_from_edges(15 + len(pendant), [
            (0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7),
            (2, 8), (2, 9), (2, 10), (3, 8), (3, 9), (3, 10), (8, 9),
            (4, 11), (4, 12), (13, 11), (13, 12), (14, 11), (14, 12), (13, 14), *pendant,
        ])
        assert [p for p, c in codegrees(g).items() if c >= 3] == [(11, 12), (0, 1), (2, 3)]
        assert contains_H3tilde(g) == ref_contains_H3tilde(g) == (2, 3, 8, 9)
        assert is_square_free(g) == ref_is_square_free(g) == (0, 5, 1, 6)
        assert contains_Hd(g, 3) == ref_contains_Hd(g, 3) == (8, 9)


def test_contains_hd_on_k5():
    # K_5 is 4-regular and any edge has 3 common neighbors
    assert contains_Hd(complete(5), 4) == (0, 1)


def test_contains_hd_absent(pet, circ9):
    assert contains_Hd(pet, 3) is None
    assert contains_Hd(circ9, 4) is None


def test_h3tilde_on_k4_plus():
    # K_{2,3} with one edge inside the size-3 part, completed arbitrarily
    g = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
    assert contains_H3tilde(g) == (0, 1, 2, 3)


def test_h3tilde_absent_on_k33(k33, pet):
    # K_{3,3}: pairs share 3 neighbors but no two of them are adjacent
    assert contains_H3tilde(k33) is None
    assert contains_H3tilde(pet) is None


def test_square_free(pet, hea):
    assert is_square_free(pet) is None
    assert is_square_free(hea) is None
    wit = is_square_free(complete_bipartite(2, 2))
    u, c1, v, c2 = wit
    assert u != v and c1 != c2
    g = complete_bipartite(2, 2)
    assert g.has_edge(u, c1) and g.has_edge(c1, v) and g.has_edge(v, c2) and g.has_edge(c2, u)


def test_admits_k22(s6_host):
    assert admits_K22(s6_host, 0, 1) == (2, 3, 4, 5)
    assert admits_K22(cycle(8), 0, 2) is None
    with pytest.raises(ValueError):
        admits_K22(cycle(8), 0, 1)


def test_admits_k22_k33_same_part(k33):
    assert admits_K22(k33, 0, 1) is None


def test_classify_scenarios(pet, k33, s3b_host, s6_host):
    assert classify_scenario(k33, 0, 1).tag == "S2"
    assert classify_scenario(s3b_host, 0, 1).tag == "S3b"
    assert classify_scenario(s6_host, 0, 1).tag == "S6"
    for a in range(pet.n):
        for b in range(pet.n):
            if a != b and not pet.has_edge(a, b):
                assert classify_scenario(pet, a, b).tag == "S4"
    with pytest.raises(ValueError):
        classify_scenario(pet, 0, 1)


def test_classify_s1_is_distance_at_least_4(pet, k33, s3b_host, s6_host):
    """b's radius-2 set is every vertex within distance 2 of b, and the S1
    decision, made against that set as the cubic engine makes it or
    without it, agrees with a capped BFS on every pair at distance >= 2 of
    seven cubic hosts."""
    rr3 = [random_regular_simple(n, 3, seed, connected_required=True)[0] for n, seed in ((100, 3), (250, 0))]
    for g in (pet, k33, s3b_host, s6_host, *rr3):
        tables = [radius2_set(g, b) for b in range(g.n)]
        for b in range(g.n):
            assert tables[b] == {v for v in range(g.n) if distance_capped(g, b, v, 3) <= 2}
        far = 0
        for a in range(g.n):
            for b in range(g.n):
                if a != b and not g.has_edge(a, b):
                    scenario = classify_scenario(g, a, b, tables[b])
                    assert scenario == classify_scenario(g, a, b)
                    assert (scenario is S1) == (distance_capped(g, a, b, 4) >= 4), (a, b)
                    far += scenario is S1
        assert far > 0 if g in rr3 else far == 0


def test_classify_witness_consistency(s3b_host, s6_host, hea):
    sc = classify_scenario(s3b_host, 0, 1)
    c1, c2 = sc.witness
    assert s3b_host.has_edge(c1, c2)
    assert set(sc.witness) == set(common_neighbors(s3b_host, 0, 1))
    sc6 = classify_scenario(s6_host, 0, 1)
    a1, a2, b1, b2 = sc6.witness
    for x in (a1, a2):
        for y in (b1, b2):
            assert s6_host.has_edge(x, y)
    # Heawood has girth 6: distance-2 pairs are S4, distance-3 pairs S5 or S1
    tags = {classify_scenario(hea, a, b).tag
            for a in range(14) for b in range(14)
            if a != b and not hea.has_edge(a, b)}
    assert "S4" in tags and "S5" in tags
    for a in range(14):
        for b in range(14):
            if a == b or hea.has_edge(a, b):
                continue
            tag = classify_scenario(hea, a, b).tag
            dist = distance_capped(hea, a, b, 5)
            if tag == "S5":
                assert dist == 3
            if tag == "S1":
                assert dist >= 4


def test_closed_neighborhood_duplicates():
    assert closed_neighborhood_duplicates(complete(4)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert closed_neighborhood_duplicates(petersen()) == []
    # two triangles on interleaved labels: the pairs of both groups, merged in order
    two_triangles = graph_from_edges(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    assert closed_neighborhood_duplicates(two_triangles) == [(0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5)]


def test_verdicts(pet, hea, circ9, k33, ag23):
    assert admissibility_verdict(cycle(7)).engine == "cycle"
    v = admissibility_verdict(pet)
    assert v.engine == "cubic" and v.also_squarefree and v.obstruction is None
    assert v.checks == (("cubic", None), ("squarefree", None))
    assert admissibility_verdict(circ9).engine == "regular"
    assert admissibility_verdict(k33).engine == "cubic"
    assert admissibility_verdict(hea).engine == "cubic"
    v = admissibility_verdict(ag23)
    assert v.engine == "squarefree" and not v.also_squarefree and v.obstruction is None
    v = admissibility_verdict(circ9)
    assert not v.also_squarefree and v.checks[1] == ("squarefree", "contains a 4-cycle (0, 2, 1, 8)")


def test_verdict_none_with_obstruction():
    # K_4 is 3-regular but too small; K_5 contains H_4
    v = admissibility_verdict(complete(5))
    assert v.engine == "none" and not v.also_squarefree
    assert v.obstruction == "regular: contains H_4 at pair (0, 1); squarefree: contains a 4-cycle (0, 2, 1, 3)"
    with pytest.raises(ValueError):
        admissibility_verdict(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_require_engine_applicable(pet, circ9, ag23):
    require_engine_applicable(pet, "cubic")
    require_engine_applicable(circ9, "regular")
    require_engine_applicable(ag23, "squarefree")
    require_engine_applicable(cycle(6), "cycle")
    with pytest.raises(ValueError, match="H_4"):
        require_engine_applicable(complete(5), "regular")
    with pytest.raises(ValueError, match="4-cycle"):
        require_engine_applicable(complete_bipartite(3, 3), "squarefree")
    with pytest.raises(ValueError, match="unknown engine"):
        require_engine_applicable(pet, "teleport")


def test_random_cubic_hosts_classify_cleanly():
    # every classified tag must re-satisfy its defining predicate
    for seed in range(6):
        g, _ = random_regular_simple(14, 3, seed, connected_required=True)
        if contains_H3tilde(g) is not None:
            continue
        for a in range(g.n):
            for b in range(g.n):
                if a == b or g.has_edge(a, b):
                    continue
                sc = classify_scenario(g, a, b)
                cn = common_neighbors(g, a, b)
                if sc.tag == "S2":
                    assert len(cn) == 3
                elif sc.tag == "S3a":
                    assert len(cn) == 2 and not g.has_edge(*sc.witness)
                elif sc.tag == "S3b":
                    assert len(cn) == 2 and g.has_edge(*sc.witness)
                elif sc.tag == "S6":
                    assert len(cn) <= 1 and admits_K22(g, a, b) is not None
                elif sc.tag == "S4":
                    assert len(cn) == 1 and admits_K22(g, a, b) is None
                elif sc.tag == "S5":
                    assert distance_capped(g, a, b, 4) == 3 and not cn
                else:
                    assert distance_capped(g, a, b, 4) >= 4
