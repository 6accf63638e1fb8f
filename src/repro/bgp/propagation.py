"""Valley-free route propagation over an AS graph.

For each origin AS, computes the best route every other AS would select
under Gao–Rexford policy using a three-phase breadth-first sweep:

1. **up** — customer-learned routes climb provider links;
2. **across** — customer routes cross a single peer link;
3. **down** — any route descends to customers.

Phases run in order because route classes dominate path length: an AS
with any customer route never selects a peer or provider route, so its
export is fixed by the earlier phase. Within a phase, routes spread in
breadth-first levels (all AS-path growth is one hop), which yields
shortest paths per class; remaining ties resolve by the configured
tie-break policy — ``"asn"`` (lowest next-hop ASN, fully reproducible
and easy to reason about in tests) or ``"hash"`` (a deterministic
per-(holder, next hop, origin) mix that emulates the geographic
diversity of real hot-potato tie-breaking: different ASes pick
different equally-good egresses instead of the whole world converging
on the lowest ASN).

The result at a vantage-point AS is the AS path that VP would advertise
to a collector — the raw material of the whole reproduction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.bgp.policy import Route, RouteClass
from repro.obs.metrics import NULL_HISTOGRAM
from repro.obs.trace import NULL_TRACER
from repro.topology.model import ASGraph


@dataclass(frozen=True, slots=True)
class RoutingOutcome:
    """Best routes toward each origin, restricted to the ASes kept.

    ``routes[origin][asn]`` is the best :class:`Route` held by ``asn``
    toward ``origin``; absent keys mean the origin was unreachable.
    """

    routes: Mapping[int, Mapping[int, Route]]

    def path(self, origin: int, asn: int) -> tuple[int, ...] | None:
        """Convenience lookup of the AS path or ``None``."""
        route = self.routes.get(origin, {}).get(asn)
        return route.path if route is not None else None

    def origins(self) -> list[int]:
        """All origins propagated, sorted."""
        return sorted(self.routes)


class _Adjacency:
    """Plain-dict adjacency snapshot for fast inner loops."""

    __slots__ = ("providers", "customers", "peers")

    def __init__(self, graph: ASGraph) -> None:
        asns = graph.asns()
        self.providers = {a: tuple(sorted(graph.providers_of(a))) for a in asns}
        self.customers = {a: tuple(sorted(graph.customers_of(a))) for a in asns}
        self.peers = {a: tuple(sorted(graph.peers_of(a))) for a in asns}


#: graph -> (graph.version, snapshot); weak keys so graphs can die
_adjacency_cache: "weakref.WeakKeyDictionary[ASGraph, tuple[int, _Adjacency]]"
_adjacency_cache = weakref.WeakKeyDictionary()


def _adjacency_of(graph: ASGraph) -> _Adjacency:
    """The adjacency snapshot for ``graph``, cached per structural
    version.

    Sharing one snapshot object across calls lets every salt plane and
    every single-origin :func:`propagate` call on an unchanged graph
    reuse it instead of rebuilding the sorted neighbor rows.
    """
    cached = _adjacency_cache.get(graph)
    version = graph.version
    if cached is not None and cached[0] == version:
        return cached[1]
    snapshot = _Adjacency(graph)
    _adjacency_cache[graph] = (version, snapshot)
    return snapshot


#: Valid tie-break policies.
TIEBREAKS = ("asn", "hash")


def keep_closure(
    adjacency: _Adjacency, keep: Iterable[int]
) -> frozenset[int]:
    """The ``keep`` set closed upward under provider links.

    An AS is *relevant* to the kept routes iff some kept AS sits in its
    customer cone — equivalently, iff it is reachable from ``keep`` by
    climbing provider edges. The down phase of the sweep only ever
    hands a route to a kept AS through a chain of relevant providers
    (a provider of a relevant AS is itself relevant), so pruning
    irrelevant customers from phase 3 cannot change any kept route.
    """
    providers = adjacency.providers
    relevant = set(keep)
    frontier = list(relevant)
    while frontier:
        next_frontier: list[int] = []
        for asn in frontier:
            for provider in providers.get(asn, ()):
                if provider not in relevant:
                    relevant.add(provider)
                    next_frontier.append(provider)
        frontier = next_frontier
    return frozenset(relevant)


def _hash_mix(holder: int, next_hop: int, origin: int, salt: int = 0) -> int:
    """Deterministic 32-bit mix used by the "hash" tie-break."""
    value = (
        holder * 2654435761 + next_hop * 2246822519
        + origin * 3266489917 + salt * 374761393
    ) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 2654435761) & 0xFFFFFFFF
    return value ^ (value >> 13)


def _key_factory(
    tiebreak: str, origin: int, salt: int = 0
) -> Callable[[int, int], tuple[int, int]]:
    if tiebreak == "asn":
        return lambda holder, next_hop: (next_hop, 0)
    if tiebreak == "hash":
        return lambda holder, next_hop: (
            _hash_mix(holder, next_hop, origin, salt), next_hop,
        )
    raise ValueError(f"unknown tiebreak {tiebreak!r} (expected one of {TIEBREAKS})")


def propagate(
    graph: ASGraph, origin: int, tiebreak: str = "asn", salt: int = 0
) -> dict[int, Route]:
    """Best route at every AS toward ``origin`` (single-origin API).

    ``salt`` varies the "hash" tie-break, producing an alternative but
    equally-valid routing plane — the mechanism behind multi-plane path
    diversity (see :class:`repro.core.pipeline.PipelineConfig`).
    """
    return _propagate(_adjacency_of(graph), origin, tiebreak, salt)


def propagate_all(
    graph: ASGraph,
    origins: Iterable[int] | None = None,
    keep: Iterable[int] | None = None,
    tiebreak: str = "asn",
    salt: int = 0,
    tracer=NULL_TRACER,
) -> RoutingOutcome:
    """Propagate every origin and keep routes only at ``keep`` ASes.

    ``origins`` defaults to every AS that originates at least one
    prefix; ``keep`` defaults to all ASes (memory scales with
    ``len(origins) * len(keep)``, so pass the VP ASes when you only
    need collector views). A ``keep`` set also prunes each origin's
    down phase to its :func:`keep_closure`, which leaves every kept
    route unchanged.

    ``tracer`` wraps the sweep in a ``propagate.plane`` span, counts
    origins and kept routes, and samples per-level BFS frontier sizes
    into the ``propagate.frontier`` histogram.
    """
    with tracer.span("propagate.plane", tiebreak=tiebreak, salt=salt) as span:
        adjacency = _adjacency_of(graph)
        if origins is None:
            origins = [asn for asn in graph.asns() if graph.node(asn).prefixes]
        keep_set = frozenset(keep) if keep is not None else None
        origin_list = sorted(set(origins))
        for origin in origin_list:
            if origin not in graph:
                raise KeyError(f"origin AS{origin} not in graph")
        relevant = (
            keep_closure(adjacency, keep_set) if keep_set is not None else None
        )

        all_routes: dict[int, Mapping[int, Route]] = {}
        frontier_hist = tracer.metrics.histogram("propagate.frontier")
        for origin in origin_list:
            routes = _propagate(
                adjacency, origin, tiebreak, salt, frontier_hist,
                relevant=relevant,
            )
            if keep_set is not None:
                routes = {
                    asn: route for asn, route in routes.items()
                    if asn in keep_set
                }
            all_routes[origin] = routes
        kept_routes = sum(len(routes) for routes in all_routes.values())

        span.set(origins=len(origin_list), routes=kept_routes)
        tracer.metrics.counter("propagate.origins").inc(len(origin_list))
        tracer.metrics.counter("propagate.routes").inc(kept_routes)
    return RoutingOutcome(all_routes)


def _propagate(
    adjacency: _Adjacency,
    origin: int,
    tiebreak: str = "asn",
    salt: int = 0,
    frontier_hist=NULL_HISTOGRAM,
    relevant: frozenset[int] | None = None,
) -> dict[int, Route]:
    """Full three-phase sweep for one origin.

    ``relevant`` (a :func:`keep_closure` of the caller's keep set)
    prunes the down phase: customers outside it never enter the route
    map or the frontier. Phases 1–2 always run in full — their routes
    fix every AS's export and any of them may be an ancestor of a kept
    AS. Routes at relevant ASes are byte-identical to the unpruned
    sweep because a relevant AS's candidate providers are themselves
    relevant (or up/across holders), so its candidate set — and the
    strict-min selection over it — never changes.
    """
    providers = adjacency.providers
    customers = adjacency.customers
    peers = adjacency.peers
    key_of = _key_factory(tiebreak, origin, salt)

    # Phase 1 (up): customer routes climb provider links, breadth-first.
    up_paths: dict[int, tuple[int, ...]] = {origin: (origin,)}
    frontier: list[int] = [origin]
    while frontier:
        candidates: dict[int, tuple[tuple[int, int], int]] = {}
        for asn in frontier:
            for provider in providers[asn]:
                if provider in up_paths:
                    continue
                key = key_of(provider, asn)
                best = candidates.get(provider)
                if best is None or key < best[0]:
                    candidates[provider] = (key, asn)
        next_frontier: list[int] = []
        for provider, (_, next_hop) in candidates.items():
            up_paths[provider] = (provider,) + up_paths[next_hop]
            next_frontier.append(provider)
        if next_frontier:
            frontier_hist.observe(len(next_frontier))
        frontier = next_frontier

    # Phase 2 (across): the best customer route crosses one peer link.
    peer_paths: dict[int, tuple[int, ...]] = {}
    # asn -> ((len, key), next_hop)
    peer_candidates: dict[int, tuple[tuple[int, tuple[int, int]], int]] = {}
    for asn, path in up_paths.items():
        cost = len(path) + 1
        for peer in peers[asn]:
            if peer in up_paths:
                continue
            rank = (cost, key_of(peer, asn))
            best = peer_candidates.get(peer)
            if best is None or rank < best[0]:
                peer_candidates[peer] = (rank, asn)
    for asn, (_, next_hop) in peer_candidates.items():
        peer_paths[asn] = (asn,) + up_paths[next_hop]

    # Assemble the routes selected so far; they fix each AS's export.
    routes: dict[int, Route] = {origin: Route((origin,), RouteClass.ORIGIN)}
    for asn, path in up_paths.items():
        if asn != origin:
            routes[asn] = Route(path, RouteClass.CUSTOMER)
    for asn, path in peer_paths.items():
        routes[asn] = Route(path, RouteClass.PEER)

    # Phase 3 (down): any selected route descends to customers,
    # breadth-first by the exported route's length.
    buckets: dict[int, list[int]] = {}
    for asn, route in routes.items():
        buckets.setdefault(len(route.path), []).append(asn)
    length = min(buckets) if buckets else 0
    max_settled = max(buckets) if buckets else 0
    while length <= max_settled:
        batch = buckets.get(length)
        if batch:
            candidates = {}
            for asn in batch:
                for customer in customers[asn]:
                    if customer in routes or (
                        relevant is not None and customer not in relevant
                    ):
                        continue
                    key = key_of(customer, asn)
                    best = candidates.get(customer)
                    if best is None or key < best[0]:
                        candidates[customer] = (key, asn)
            if candidates:
                new_bucket = buckets.setdefault(length + 1, [])
                for customer, (_, next_hop) in candidates.items():
                    routes[customer] = Route(
                        (customer,) + routes[next_hop].path, RouteClass.PROVIDER
                    )
                    new_bucket.append(customer)
                max_settled = max(max_settled, length + 1)
        length += 1
    return routes
