"""Spatio-temporal local alerts via *filtered* neighborhoods (paper §1, §2.1).

"In spatio-temporal social networks, users are often interested in events
happening in their social networks, but also physically close to them."
The framework supports this by filtering the neighborhood selection
function: aggregate only over the subset of neighbors satisfying a
predicate — here, friends currently checked in to the same city.

Run:  python examples/spatio_temporal_alerts.py
"""

import random

from repro import CountDistinct, EAGrEngine, EgoQuery, Neighborhood, TupleWindow
from repro.graph.generators import social_graph

CITIES = ["NYC", "SF", "LA", "CHI", "SEA"]


def main(users: int = 500, checkins: int = 8_000, seed: int = 11) -> None:
    rng = random.Random(seed)
    network = social_graph(num_nodes=users, edges_per_node=6, seed=seed)

    # Static home city per user (stored as a node attribute on the graph);
    # the filtered neighborhood aggregates only same-city friends.
    for user in network.nodes():
        network.set_attr(user, "city", rng.choice(CITIES))

    def same_city(graph, member):
        # Evaluated when the overlay is built: a later attribute change
        # reaches the filter only when a structure event re-derives the
        # readers it affects.
        return graph.get_attr(member, "city") == "NYC"

    # "How many distinct NYC friends of mine posted among their last 3
    # check-ins?" — only materialized for NYC users (the pred parameter).
    query = EgoQuery(
        aggregate=CountDistinct(),
        window=TupleWindow(3),
        neighborhood=Neighborhood.undirected(node_filter=same_city),
        predicate=lambda user: network.get_attr(user, "city") == "NYC",
    )
    engine = EAGrEngine(network, query, overlay_algorithm="vnm_a")
    nyc_users = [u for u in network.nodes() if network.get_attr(u, "city") == "NYC"]
    print(
        f"{users} users, {len(nyc_users)} in NYC; "
        f"overlay: {engine.overlay.num_edges} edges "
        f"(readers materialized only for NYC users: {len(engine.overlay.reader_of)})"
    )

    # Users check in at venues; the value is the venue id.
    venues = [f"venue-{i}" for i in range(40)]
    all_users = list(network.nodes())
    for tick in range(checkins):
        user = rng.choice(all_users)
        engine.write(user, rng.choice(venues), timestamp=float(tick))

    print("\nuser  distinct venues visited by NYC friends recently")
    for user in nyc_users[:8]:
        print(f"{user:>4}  {engine.read(user)}")

    busiest = max(nyc_users, key=lambda u: engine.read(u))
    print(
        f"\nmost socially-active NYC neighborhood: user {busiest} "
        f"({engine.read(busiest)} distinct venues among NYC friends)"
    )


if __name__ == "__main__":
    main()
