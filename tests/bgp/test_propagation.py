"""Tests for valley-free propagation, including Gao–Rexford properties."""

import random

import pytest

from repro.bgp.policy import RouteClass
from repro.bgp.propagation import (
    _adjacency_of,
    keep_closure,
    propagate,
    propagate_all,
)
from repro.topology import GeneratorConfig, generate_world, small_profiles
from repro.topology.model import ASGraph


def build(edges_p2c=(), edges_p2p=(), asns=None):
    graph = ASGraph()
    seen = set()
    for pair in list(edges_p2c) + list(edges_p2p):
        seen.update(pair)
    for asn in sorted(seen | set(asns or ())):
        graph.add_as(asn)
    for provider, customer in edges_p2c:
        graph.add_p2c(provider, customer)
    for left, right in edges_p2p:
        graph.add_p2p(left, right)
    return graph


class TestChain:
    def test_customer_routes_climb(self):
        # 1 -> 2 -> 3 (providers on the left); origin 3.
        graph = build(edges_p2c=[(1, 2), (2, 3)])
        routes = propagate(graph, 3)
        assert routes[3].route_class is RouteClass.ORIGIN
        assert routes[2].path == (2, 3)
        assert routes[2].route_class is RouteClass.CUSTOMER
        assert routes[1].path == (1, 2, 3)
        assert routes[1].route_class is RouteClass.CUSTOMER

    def test_provider_routes_descend(self):
        graph = build(edges_p2c=[(1, 2), (2, 3)])
        routes = propagate(graph, 1)
        assert routes[2].path == (2, 1)
        assert routes[2].route_class is RouteClass.PROVIDER
        assert routes[3].path == (3, 2, 1)


class TestValleyFree:
    def test_peer_route_crosses_once(self):
        # origin 3 under 2; 2 peers with 4; 4 has customer 5.
        graph = build(edges_p2c=[(2, 3), (4, 5)], edges_p2p=[(2, 4)])
        routes = propagate(graph, 3)
        assert routes[4].path == (4, 2, 3)
        assert routes[4].route_class is RouteClass.PEER
        # 5 hears it from its provider 4 (peer route exported down).
        assert routes[5].path == (5, 4, 2, 3)
        assert routes[5].route_class is RouteClass.PROVIDER

    def test_no_transit_across_two_peers(self):
        # 2 -- 4 -- 6 peer chain; origin under 2; 6 must NOT reach it
        # via 4 (peer routes are not exported to peers).
        graph = build(edges_p2c=[(2, 3)], edges_p2p=[(2, 4), (4, 6)])
        routes = propagate(graph, 3)
        assert 6 not in routes

    def test_customer_preferred_over_peer(self):
        # AS 1 can reach origin 9 via customer 2 (longer) or peer 3 (shorter).
        graph = build(
            edges_p2c=[(1, 2), (2, 8), (8, 9), (3, 9)],
            edges_p2p=[(1, 3)],
        )
        routes = propagate(graph, 9)
        assert routes[1].route_class is RouteClass.CUSTOMER
        assert routes[1].path == (1, 2, 8, 9)

    def test_peer_preferred_over_provider(self):
        # AS 5's options: provider 1 (which has a customer route) or peer 4.
        graph = build(
            edges_p2c=[(1, 5), (1, 2), (2, 9), (4, 9)],
            edges_p2p=[(5, 4)],
        )
        routes = propagate(graph, 9)
        assert routes[5].route_class is RouteClass.PEER
        assert routes[5].path == (5, 4, 9)


class TestTieBreaks:
    def test_shortest_path_wins(self):
        graph = build(edges_p2c=[(1, 2), (2, 9), (1, 3), (3, 4), (4, 9)])
        routes = propagate(graph, 9)
        assert routes[1].path == (1, 2, 9)

    def test_lowest_next_hop_on_equal_length(self):
        graph = build(edges_p2c=[(1, 2), (2, 9), (1, 3), (3, 9)])
        routes = propagate(graph, 9)
        assert routes[1].path == (1, 2, 9)

    def test_down_phase_tiebreak(self):
        # 9's route descends to 5 via providers 2 and 3 at equal length.
        graph = build(edges_p2c=[(9, 2), (9, 3), (2, 5), (3, 5)])
        routes = propagate(graph, 9)
        assert routes[5].path == (5, 2, 9)


class TestPropagateAll:
    def test_keep_filters(self):
        graph = build(edges_p2c=[(1, 2), (2, 3)])
        graph.node(3).originate("10.0.0.0/24", "US")
        outcome = propagate_all(graph, keep=[1])
        assert set(outcome.routes) == {3}
        assert set(outcome.routes[3]) == {1}
        assert outcome.path(3, 1) == (1, 2, 3)
        assert outcome.path(3, 2) is None

    def test_unknown_origin_rejected(self):
        graph = build(edges_p2c=[(1, 2)])
        with pytest.raises(KeyError):
            propagate_all(graph, origins=[99])

    def test_default_origins_are_prefix_owners(self):
        graph = build(edges_p2c=[(1, 2), (2, 3)])
        graph.node(2).originate("10.0.0.0/24", "US")
        outcome = propagate_all(graph)
        assert outcome.origins() == [2]


class TestAdjacencyCache:
    def test_same_version_snapshot_is_cached(self):
        graph = build(edges_p2c=[(1, 2), (2, 3)])
        assert _adjacency_of(graph) is _adjacency_of(graph)

    def test_mutation_invalidates_snapshot(self):
        graph = build(edges_p2c=[(1, 2), (2, 3)], asns=[4])
        before = _adjacency_of(graph)
        graph.add_p2p(3, 4)
        after = _adjacency_of(graph)
        assert after is not before
        assert after.peers[3] == (4,) and before.peers[3] == ()


class TestKeepClosure:
    def test_closure_climbs_provider_chains(self):
        graph = build(edges_p2c=[(1, 2), (2, 3), (1, 4)])
        closure = keep_closure(_adjacency_of(graph), {3})
        assert closure == frozenset({3, 2, 1})

    def test_peers_are_not_pulled_in(self):
        graph = build(edges_p2c=[(1, 2)], edges_p2p=[(2, 3)])
        assert keep_closure(_adjacency_of(graph), {2}) == frozenset({2, 1})


SMALL = GeneratorConfig(
    profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
)


@pytest.fixture(scope="module", params=[1, 7, 11], ids=lambda s: f"seed{s}")
def small_world(request):
    return generate_world(SMALL, seed=request.param, name="small")


class TestKeepPruning:
    """``propagate_all(keep=K)`` prunes each origin's down phase to the
    provider closure of ``K``; the kept routes must equal the unpruned
    sweep's routes restricted to ``K``, route for route."""

    @pytest.mark.parametrize("salt", [0, 1, 2])
    @pytest.mark.parametrize("tiebreak", ["asn", "hash"])
    def test_pruned_sweep_equals_restricted_full_sweep(
        self, small_world, tiebreak, salt
    ):
        graph = small_world.graph
        full = propagate_all(graph, tiebreak=tiebreak, salt=salt).routes
        asns = sorted(graph.asns())
        rng = random.Random(salt)
        keeps = [small_world.vp_asns()] + [
            rng.sample(asns, size) for size in (1, 5, len(asns) // 3)
        ]
        for keep in keeps:
            kept = set(keep)
            pruned = propagate_all(
                graph, keep=keep, tiebreak=tiebreak, salt=salt
            ).routes
            assert pruned == {
                origin: {
                    asn: route for asn, route in routes.items() if asn in kept
                }
                for origin, routes in full.items()
            }, sorted(kept)


def _label_sequence(graph, path):
    return [graph.relationship(a, b) for a, b in zip(path, path[1:])]


class TestValleyFreeProperty:
    """Every path a generated world produces must match c2p* p2p? p2c*."""

    def test_generated_world_paths_valley_free(self):
        world = generate_world(
            GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
            seed=11,
        )
        outcome = propagate_all(world.graph, keep=world.vp_asns())
        checked = 0
        for origin, routes in outcome.routes.items():
            for asn, route in routes.items():
                labels = _label_sequence(world.graph, route.path)
                assert None not in labels, route.path
                # Climb, at most one peer crossing, then descend.
                phase = 0  # 0 = climbing, 1 = crossed peer, 2 = descending
                for label in labels:
                    if label == "c2p":
                        assert phase == 0, route.path
                    elif label == "p2p":
                        assert phase == 0, route.path
                        phase = 1
                    else:  # p2c
                        phase = 2
                checked += 1
        assert checked > 100
