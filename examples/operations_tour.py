#!/usr/bin/env python3
"""Operations tour: running Zerber as infrastructure.

Day-2 concerns a real deployment hits, all built into this reproduction:

1. **Durability** — index servers log every accepted mutation to a
   segmented seat store; a crashed box restarts and recovers its share
   store from disk (§5.4.1's "element IDs help an index recover after
   failure");
2. **Fleet extension** — an (n+1)-th server joins without re-encrypting
   anything: owners evaluate their elements' polynomials at the new
   x-coordinate (§5.1);
3. **Byzantine detection** — a client querying more than k servers
   cross-checks reconstructions and drops elements a lying server
   corrupted.

Run:  python examples/operations_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.client.batching import BatchPolicy
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus


def main() -> None:
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=30,
            vocabulary_size=500,
            num_groups=2,
            mean_document_length=40,
            seed=404,
        )
    )
    probs = corpus.term_probabilities()
    # -- 1. durability -------------------------------------------------------
    workdir = Path(tempfile.mkdtemp(prefix="zerber-ops-"))
    deployment = ZerberDeployment.bootstrap(
        probs,
        heuristic="bfm",
        num_lists=16,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=4),
        seed=11,
        wal_dir=workdir,
    )
    for g in corpus.group_ids():
        deployment.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()
    elements = deployment.servers[0].num_elements
    print(f"[durability] {elements} elements per server, "
          f"seat stores at {workdir}")

    # Crash seat 0 (its memory is lost) and restart it from its store.
    deployment.kill_server(0, 0)
    replacement = deployment.restart_server(0, 0)
    recovered = replacement.num_elements
    print(f"[durability] replacement recovered {recovered} elements "
          f"from the seat store (match: {recovered == elements})")

    # -- 2. fleet extension -----------------------------------------------------
    new_server = deployment.add_server()
    print(f"[extension] server 4 joined with x={new_server.x_coordinate}; "
          f"holds {new_server.num_elements} elements "
          f"(no re-encryption, same element IDs)")

    # -- 3. Byzantine detection ---------------------------------------------------
    term = sorted(corpus.documents_in_group(0)[0].term_counts)[0]
    pl_id = deployment.mapping_table.lookup(term)
    liar = deployment.servers[1]
    records = liar.export_posting_list(pl_id)
    liar.drop_posting_list(pl_id)
    corrupted = liar.adopt_posting_list(
        pl_id,
        [record.element_id for record in records],
        [record.group_id for record in records],
        [(record.share_y + 12345) % deployment.field.p for record in records],
    )
    print(f"[byzantine] server 1 now lies about list {pl_id} "
          f"({corrupted} shares corrupted)")
    naive = deployment.searcher("owner0")
    naive.fetch_elements([term], num_servers=2)
    verifying = deployment.searcher("owner0", verify_consistency=True)
    clean = verifying.fetch_elements([term], num_servers=4)
    diag = verifying.last_diagnostics
    print(f"[byzantine] verifying client: {len(clean)} elements served, "
          f"{diag.inconsistent_elements} inconsistencies detected, "
          f"{diag.recovered_elements} recovered by majority vote")

    deployment.close()
    print("\nall three operational drills passed.")


if __name__ == "__main__":
    main()
