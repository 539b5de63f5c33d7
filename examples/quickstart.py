"""Quickstart: bring up a simulated PIER deployment and run SQL queries.

Run with:  python examples/quickstart.py
"""

from repro import PIERNetwork
from repro.qp.tuples import Tuple


def main() -> None:
    # 1. A 30-node PIER deployment under the discrete-event simulator.
    network = PIERNetwork(30, seed=1)

    # 2. Declare a table in the deployment catalog and publish it into the
    #    DHT.  The catalog owns the partitioning metadata: publish() and the
    #    SQL planner both consult it, so they can never disagree.
    network.create_table("inverted", partitioning=["keyword"])
    postings = [
        Tuple.make("inverted", keyword=keyword, file_id=index, filename=f"{keyword}_{index}.mp3")
        for index, keyword in enumerate(["jazz", "rock", "jazz", "ambient", "rock", "jazz"])
    ]
    network.publish("inverted", postings)
    network.run(3.0)

    # 3. The one-call SQL path.  An equality predicate on the partitioning
    #    key compiles to a lookup disseminated to exactly one node.
    result = network.query(
        "SELECT filename FROM inverted WHERE keyword = 'jazz' TIMEOUT 8", proxy=5
    )
    print(f"jazz files: {sorted(row['filename'] for row in result.rows())}")
    print(f"first result after {result.first_result_latency:.3f}s of virtual time")
    print(f"query shipped {result.messages_sent} network messages")

    # 4. Every node also has a local table (e.g. its own log); aggregation
    #    with ORDER BY / LIMIT comes back ready to print.
    network.create_table("events", source="local")
    for address in range(len(network)):
        network.register_local_table(
            address, "events",
            [Tuple.make("events", level="warn" if address % 3 else "error", node=address)],
        )
    aggregate = network.query(
        "SELECT level, COUNT(*) AS n FROM events GROUP BY level ORDER BY n DESC TIMEOUT 12"
    )
    print("events per level:", {row["level"]: row["n"] for row in aggregate.rows()})

    # 5. EXPLAIN shows what the planner chose without running anything.
    print("\n" + network.explain("SELECT filename FROM inverted WHERE keyword = 'rock'"))

    # 6. Streaming: tuples are delivered as they arrive, so the client sees
    #    first-result latency instead of waiting for the query timeout.
    stream = network.stream("SELECT node FROM events TIMEOUT 10")
    for index, tup in enumerate(stream):
        if index == 0:
            print(f"\nfirst streamed tuple after {stream.first_result_latency:.2f}s "
                  f"(query finished: {stream.finished})")
    print(f"streamed {len(stream.results)} tuples from {len(network)} nodes")


if __name__ == "__main__":
    main()
