#!/usr/bin/env python3
"""Wire-protocol tour: the message API, the codec, and both transports.

The paper's threat model (§4–§5) is stated at a network boundary —
index servers see opaque share requests. This tour makes that boundary
visible:

1. encode one of every kind of message with the compact binary codec
   and look at the frames on the wire;
2. speak the protocol by hand: insert shares into a server and fetch
   them back through a raw `InProcessTransport`, watch a dead seat and
   an unknown endpoint fail *typed*;
3. run the same cluster over both transport backends — in-process and
   loopback TCP (``"async-socket"``) — and verify the answers are
   byte-identical;
4. kill a pod under the socket backend: the failover ladder works the
   same when every hop is a real TCP frame;
5. read the cluster's state the way a remote operator does: one
   ``MetricsDump`` request over the same TCP transport (`repro cluster
   status` renders the same series).

Run:  PYTHONPATH=src python examples/wire_protocol_tour.py
"""

from __future__ import annotations

from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment, ServerSlot
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.errors import ReproError, UnknownEndpointError
from repro.observability import METRICS_ENDPOINT, SampleView
from repro.protocol import (
    FetchListsRequest,
    IndexServerService,
    InProcessTransport,
    InsertBatchRequest,
    decode_message,
    encode_message,
)
from repro.protocol.messages import MetricsDumpRequest
from repro.server.auth import AuthService
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer


def codec_on_the_wire() -> None:
    print("== 1. frames on the wire ==")
    auth = AuthService()
    credential = auth.register_user("alice")
    token = auth.issue_token("alice", credential)
    request = FetchListsRequest(token=token, pl_ids=(3, 7, 11))
    frame = encode_message(request)
    print(f"FetchListsRequest -> {len(frame)} bytes: {frame[:24].hex()}...")
    assert decode_message(frame) == request
    print()


def protocol_by_hand() -> None:
    print("== 2. the protocol by hand ==")
    auth, groups = AuthService(), GroupDirectory()
    credential = auth.register_user("alice")
    token = auth.issue_token("alice", credential)
    groups.create_group(0, "alice")
    server = IndexServer(
        server_id="s0", x_coordinate=1, auth=auth, groups=groups
    )
    transport = InProcessTransport()
    seat = ServerSlot(pod_index=0, slot_index=0, server=server)
    transport.register("s0", IndexServerService(seat))
    # A write batch is aligned columns: row i puts (element_ids[i],
    # group_ids[i], share_ys[i]) into list pl_ids[i].
    ack = transport.call("alice", "s0", InsertBatchRequest(
        token=token, pl_ids=[3], element_ids=[9], group_ids=[0], share_ys=[41],
    ))
    print(f"insert acknowledged: {ack.count} row")
    response = transport.call(
        "alice", "s0", FetchListsRequest(token=token, pl_ids=(3,))
    )
    print(f"fetched share y={response.lists[0].records[0].share_y}")
    try:
        transport.call("alice", "ghost", FetchListsRequest(token, (3,)))
    except UnknownEndpointError as exc:
        print(f"unknown endpoint fails typed: {exc} "
              f"(endpoint={exc.endpoint!r})\n")


def both_backends() -> None:
    print("== 3-5. one cluster, two transports ==")
    corpus = generate_corpus(SyntheticCorpusConfig(
        num_documents=40, vocabulary_size=500, num_groups=2, seed=13
    ))
    terms = sorted(corpus.documents_in_group(0)[0].term_counts)[:3]

    def build(transport: str) -> ClusterDeployment:
        cluster = ClusterDeployment.bootstrap(
            corpus.term_probabilities(),
            heuristic="dfm", num_lists=32,
            num_pods=2, k=2, n=3, replication_factor=2,
            batch_policy=BatchPolicy(min_documents=4),
            transport=transport, seed=13,
        )
        for g in corpus.group_ids():
            cluster.create_group(g, coordinator=f"owner{g}")
        for document in corpus:
            cluster.share_document(f"owner{document.group_id}", document)
        cluster.flush_all()
        return cluster

    with build("in-process") as local, build("async-socket") as remote:
        host, port = remote.transport.address
        print(f"socket deployment listening on {host}:{port}")
        expected = local.search("owner0", terms, top_k=5)
        over_tcp = remote.search("owner0", terms, top_k=5)
        assert over_tcp == expected
        print(f"byte-identical over TCP: {len(over_tcp)} hits for {terms}")

        remote.kill_pod(0)
        searcher = remote.searcher("owner0", use_cache=False)
        degraded = searcher.search(terms, top_k=5, fetch_snippets=False)
        fresh_local = local.searcher("owner0", use_cache=False).search(
            terms, top_k=5, fetch_snippets=False
        )
        assert degraded == fresh_local
        diag = searcher.last_cluster_diagnostics
        print(f"pod 0 dead, still byte-identical "
              f"({diag.pod_failovers} pod failovers, "
              f"{diag.failovers} seat failovers, all over TCP)")

        try:
            remote.kill_pod(1)
            remote.searcher("owner0", use_cache=False).search(
                terms, top_k=5, fetch_snippets=False
            )
        except ReproError as exc:
            print(f"both pods dead -> loud degradation: "
                  f"{type(exc).__name__}")

        dump = remote.transport.call(
            src="operator", dst=METRICS_ENDPOINT, request=MetricsDumpRequest()
        )
        view = SampleView(dump.samples)
        print(f"metrics dump over TCP: {len(dump.samples)} series")
        for pod in view.label_values("zerber_pod_live_seats", "pod"):
            live = int(view.value("zerber_pod_live_seats", pod=pod))
            dead = int(view.value("zerber_pod_dead_seats", pod=pod))
            lists = int(view.value("zerber_pod_hosted_lists", pod=pod))
            print(f"  {pod}: {live} live / {dead} dead seats, {lists} lists")
    print("deployments closed: sockets, threads, and WALs reaped")


def main() -> None:
    codec_on_the_wire()
    protocol_by_hand()
    both_backends()


if __name__ == "__main__":
    main()
