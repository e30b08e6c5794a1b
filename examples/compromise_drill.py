#!/usr/bin/env python3
"""Compromise drill: what do attackers actually get out of Zerber? (§4, §7.1)

Plays the paper's threat model end to end:

1. an industrial-espionage corpus is indexed (chemical compounds, §1's
   example of what posting-list lengths can betray);
2. Alice takes over ONE index server and runs the statistical playbook —
   her amplification is measured against the configured r;
3. she watches the update stream — batching defeats her correlation
   attack;
4. she colludes with a second admin to reach k servers — and only then
   does anything decrypt;
5. proactive refresh rotates the shares, making her stolen share useless.

Run:  python examples/compromise_drill.py
"""

from __future__ import annotations

import random

from repro.attacks.adversary import BackgroundKnowledge
from repro.attacks.collusion import (
    attempt_reconstruction,
    consistent_with_every_secret,
)
from repro.attacks.correlation import CorrelationAttack
from repro.attacks.statistical import StatisticalAttack
from repro.client.batching import BatchPolicy
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.errors import InsufficientSharesError
from repro.secretsharing.proactive import refresh_shares
from repro.secretsharing.shamir import Share


def main() -> None:
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=48,
            vocabulary_size=800,
            num_groups=3,
            mean_document_length=50,
            topic_concentration=0.5,
            seed=1944,
        )
    )
    probs = corpus.term_probabilities()
    deployment = ZerberDeployment.bootstrap(
        probs,
        heuristic="dfm",
        num_lists=32,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=8),
        seed=3,
    )
    for g in corpus.group_ids():
        deployment.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()
    r = deployment.merge_result.resulting_r(probs)
    print(f"deployment: k=2 of n=3, M={deployment.mapping_table.num_lists} "
          f"merged lists, configured r={r:.1f}\n")

    # -- 1+2: Alice owns pod0-server-0 and runs statistics -----------------
    view = deployment.servers[0].compromise()
    members = {
        i: list(ms) for i, ms in enumerate(deployment.merge_result.lists)
    }
    alice = StatisticalAttack(view, members, BackgroundKnowledge(probs))
    report = alice.report(corpus.document_frequencies())
    print("[statistical attack from one server]")
    print(f"  merged list lengths visible: "
          f"{sorted(view.merged_list_lengths().values(), reverse=True)[:8]}...")
    print(f"  max amplification achieved: {report.max_amplification:.1f} "
          f"(bound r={r:.1f})")
    print(f"  DF estimation error forced on her: "
          f"{100 * report.df_estimate_error:.0f}%")
    assert report.max_amplification <= r * (1 + 1e-9)

    # -- 3: update watching --------------------------------------------------
    attack = CorrelationAttack(view)
    truth = {}
    for g in corpus.group_ids():
        owner = deployment.owner(f"owner{g}")
        for doc_id in owner.shared_documents:
            for _pl, element_id in owner.elements_of(doc_id):
                truth[element_id] = doc_id
    corr = attack.score(truth)
    print("\n[correlation attack on the update stream]")
    print(f"  batches observed: {attack.batches_observed}")
    print(f"  co-occurrence guess precision: {corr.precision:.3f} "
          "(8-document batches dilute her)")

    # -- 4: collusion ----------------------------------------------------------
    print("\n[collusion]")
    pl_id, records = next(
        (pl, rs) for pl, rs in view.posting_store.items() if rs
    )
    record = records[0]
    share0 = Share(x=view.x_coordinate, y=record.share_y)
    try:
        attempt_reconstruction([share0], k=2, field=deployment.field)
    except InsufficientSharesError:
        print("  1 server (k-1): reconstruction impossible — "
              "InsufficientSharesError")
    candidates = [0, 42, deployment.field.p - 1, random.Random(5).getrandbits(60)]
    assert consistent_with_every_secret(
        [share0], 2, deployment.field, candidates
    )
    print("  her share is consistent with EVERY candidate secret "
          "(perfect secrecy below k)")

    view1 = deployment.servers[1].compromise()
    record1 = next(
        rec
        for rec in view1.posting_store.get(pl_id, [])
        if rec.element_id == record.element_id
    )
    share1 = Share(x=view1.x_coordinate, y=record1.share_y)
    secret = attempt_reconstruction([share0, share1], 2, deployment.field)
    element = deployment.codec.unpack(secret)
    term = deployment.dictionary.term_of(element.term_id)
    print(f"  2 servers (k): decryption works — element is "
          f"(doc={element.doc_id}, term={term!r}, tf={element.tf:.3f})")

    # -- 5: proactive refresh ---------------------------------------------------
    print("\n[proactive refresh]")
    fresh = refresh_shares(
        [share0, share1, Share(x=deployment.scheme.x_of(2), y=0)],
        k=2,
        field=deployment.field,
        rng=random.Random(99),
    )
    stale_plus_fresh = [share0, fresh[1]]
    mixed = attempt_reconstruction(stale_plus_fresh, 2, deployment.field)
    print(f"  Alice's stolen share + a refreshed share reconstructs "
          f"{mixed} != {secret} — her loot expired.")
    assert mixed != secret


if __name__ == "__main__":
    main()
