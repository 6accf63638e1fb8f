"""Hand-checkable oracle: routes and customer cones on a 13-AS tree.

The topology (``fixtures/as-rel.txt``, CAIDA serial-1 format) is small
enough to work out every answer on paper, so the assertions below are
derived from the Gao–Rexford rules and the path-based cone definition,
not from the engine's own output. Every AS has a unique best route per
route class, so the answers hold under either tie-break policy.
"""

from pathlib import Path

import pytest

from repro.bgp.policy import RouteClass
from repro.bgp.propagation import propagate, propagate_all
from repro.core.cone import cones_from_suffixes, transit_suffix
from repro.net.aspath import ASPath
from repro.topology.model import ASGraph

AS_REL = Path(__file__).parent / "fixtures" / "as-rel.txt"
LEAVES = (6, 7, 8, 9, 10, 11, 12, 13)


def read_as_rel(path):
    """An :class:`ASGraph` from ``a|b|rel`` lines: ``-1`` means ``a``
    provides transit to ``b``, ``0`` means the two peer."""
    graph = ASGraph()
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        left, right, rel = (int(field) for field in line.split("|")[:3])
        for asn in (left, right):
            if asn not in graph:
                graph.add_as(asn)
        if rel == -1:
            graph.add_p2c(left, right)
        elif rel == 0:
            graph.add_p2p(left, right)
        else:
            raise ValueError(f"unknown relationship in {line!r}")
    return graph


@pytest.fixture(scope="module")
def tree():
    return read_as_rel(AS_REL)


def test_reader_builds_the_tree(tree):
    assert sorted(tree.asns()) == list(range(1, 14))
    assert tree.customers_of(1) == {2, 3, 4, 5}
    assert tree.relationship(2, 3) == "p2p"
    assert tree.relationship(5, 13) == "p2c"
    assert tree.relationship(13, 5) == "c2p"


@pytest.mark.parametrize("tiebreak", ["asn", "hash"])
class TestRoutesTowardAS6:
    @pytest.mark.parametrize("asn,path,route_class", [
        (2, (2, 6), RouteClass.CUSTOMER),
        (1, (1, 2, 6), RouteClass.CUSTOMER),
        (3, (3, 2, 6), RouteClass.PEER),
        (7, (7, 2, 6), RouteClass.PROVIDER),
        (8, (8, 3, 2, 6), RouteClass.PROVIDER),
        (4, (4, 1, 2, 6), RouteClass.PROVIDER),
        (5, (5, 1, 2, 6), RouteClass.PROVIDER),
        (13, (13, 5, 1, 2, 6), RouteClass.PROVIDER),
    ])
    def test_hand_derived_route(self, tree, tiebreak, asn, path, route_class):
        route = propagate(tree, 6, tiebreak=tiebreak)[asn]
        assert route.path == path
        assert route.route_class is route_class

    def test_every_as_reaches_the_origin(self, tree, tiebreak):
        assert set(propagate(tree, 6, tiebreak=tiebreak)) == set(range(1, 14))


def test_no_path_crosses_two_peer_links(tree):
    outcome = propagate_all(tree, origins=tree.asns())
    checked = 0
    for routes in outcome.routes.values():
        for route in routes.values():
            hops = zip(route.path, route.path[1:])
            labels = [tree.relationship(a, b) for a, b in hops]
            assert labels.count("p2p") <= 1, route.path
            checked += 1
    assert checked == 13 * 13


def test_path_based_cones_from_leaf_vps(tree):
    """Cones over the paths that leaf VPs see toward every origin:
    the peer links 2–3 and 4–5 end every transit suffix, so no
    mid-tier AS holds a peer's customers."""
    outcome = propagate_all(tree, origins=tree.asns(), keep=LEAVES)
    suffixes = [
        transit_suffix(ASPath(route.path), tree)
        for routes in outcome.routes.values()
        for route in routes.values()
    ]
    cones = cones_from_suffixes(suffixes)
    assert cones[1] == set(range(1, 14))
    assert cones[2] == {2, 6, 7}
    assert cones[3] == {3, 8, 9}
    assert cones[4] == {4, 10, 11}
    assert cones[5] == {5, 12, 13}
    for leaf in LEAVES:
        assert cones[leaf] == {leaf}
