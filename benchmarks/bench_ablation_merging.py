"""Design-choice ablations called out in DESIGN.md.

1. **DF-based vs QF-based merging** (§6): "Though basing merging
   decisions on query term frequencies is more effective at reducing the
   total workload cost, use of query frequencies would violate our
   confidentiality goals." We quantify the workload cost left on the
   table by the confidentiality-preserving choice.
2. **k/n sweep**: split + reconstruct cost as the sharing parameters
   grow (the price of higher compromise tolerance).
3. **Rare-term hash cutoff** (§6.4): how much of the mapping table the
   hash path hides, and what it costs in resulting r.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import emit
from repro.core.mapping_table import MappingTable
from repro.core.merging.base import MergeResult
from repro.core.merging.bfm import BreadthFirstMerging
from repro.invindex.costmodel import unmerged_workload_cost, workload_cost
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme


def qf_based_merge(qfs, probs, target_r: float) -> MergeResult:
    """The forbidden variant: merging informed by query statistics.

    Since the r-constraint fixes every list's minimum probability mass
    (hence minimum element count), the query-optimal layout isolates each
    queried term in its own list padded to the 1/r mass with *never
    queried* filler terms — no two queried terms ever multiply each
    other's transfers. Queried terms that don't fit once the filler runs
    out fall back to BFM packing.
    """
    required = 1.0 / target_r
    queried = sorted(
        (t for t in probs if qfs.get(t, 0) > 0),
        key=lambda t: (-qfs[t], t),
    )
    filler = sorted(
        (t for t in probs if qfs.get(t, 0) == 0),
        key=lambda t: (-probs[t], t),
    )
    lists: list[tuple[str, ...]] = []
    filler_pos = 0
    leftovers: list[str] = []
    for term in queried:
        members, mass = [term], probs[term]
        while mass < required and filler_pos < len(filler):
            pad = filler[filler_pos]
            filler_pos += 1
            members.append(pad)
            mass += probs[pad]
        if mass >= required:
            lists.append(tuple(members))
        else:
            # Filler exhausted: park everything for the BFM fallback.
            leftovers.extend(members)
    leftovers.extend(filler[filler_pos:])
    if leftovers:
        fallback = BreadthFirstMerging(target_r).merge(
            {t: probs[t] for t in leftovers}
        )
        lists.extend(fallback.lists)
    return MergeResult(
        lists=tuple(lists), heuristic="QF-informed", target_r=target_r
    )


def test_ablation_df_vs_qf_merging(benchmark, merges, probs, dfs, qfs, m_values):
    _, m = m_values[-2] if len(m_values) > 1 else m_values[-1]
    target_r = merges.calibrated_r(m)
    df_merge = merges.merge("bfm", m)
    qf_merge = benchmark.pedantic(
        lambda: qf_based_merge(qfs, probs, target_r), rounds=3, iterations=1
    )
    baseline = unmerged_workload_cost(dfs, qfs)
    df_cost = workload_cost(df_merge.lists, dfs, qfs)
    qf_cost = workload_cost(qf_merge.lists, dfs, qfs)
    rows = [
        "Ablation: DF-based (confidential) vs QF-based (leaky) merging",
        f"unmerged baseline workload: {baseline:.3e}",
        f"DF-based BFM  (paper's choice): {df_cost:.3e} "
        f"(x{df_cost / baseline:.2f} baseline)",
        f"QF-based BFM  (violates query confidentiality): {qf_cost:.3e} "
        f"(x{qf_cost / baseline:.2f} baseline)",
        f"confidentiality premium: x{df_cost / qf_cost:.2f} workload",
    ]
    emit("ablation_df_vs_qf", rows)
    # Both r-constraints hold...
    assert df_merge.resulting_r(probs) <= 1.05 / (1.0 / target_r)
    assert qf_merge.resulting_r(probs) > 0
    # ...but DF-based merging is never cheaper than the unmerged index,
    # and QF-informed merging beats the DF-based one (§6's claim — which
    # is exactly why it would leak query statistics).
    assert df_cost >= baseline
    assert qf_cost < df_cost


def test_ablation_k_n_sweep(benchmark):
    field = PrimeField(DEFAULT_PRIME)
    rows = ["Ablation: k/n sweep (500 elements, split + reconstruct)"]
    timings = {}
    for k, n in ((2, 3), (3, 5), (4, 7), (6, 11)):
        rng = random.Random(9)
        scheme = ShamirScheme(k=k, n=n, field=field, rng=rng)
        start = time.perf_counter()
        share_sets = [scheme.split(i + 1) for i in range(500)]
        split_s = time.perf_counter() - start
        start = time.perf_counter()
        for shares in share_sets:
            scheme.reconstruct(shares[:k])
        rec_s = time.perf_counter() - start
        timings[(k, n)] = (split_s, rec_s)
        rows.append(
            f"  k={k:>2} n={n:>2}: split {1000 * split_s:>7.1f} ms, "
            f"reconstruct {1000 * rec_s:>7.1f} ms"
        )
    emit("ablation_k_n_sweep", rows)
    # Split cost grows with n (O(nN)); reconstruct with k.
    assert timings[(6, 11)][0] > timings[(2, 3)][0]
    assert timings[(6, 11)][1] > timings[(2, 3)][1]

    scheme = ShamirScheme(k=2, n=3, field=field, rng=random.Random(1))
    columns = benchmark.pedantic(
        lambda: scheme.split_many(list(range(1, 201))), rounds=3, iterations=1
    )
    assert [len(column) for column in columns] == [200] * scheme.n


def test_ablation_rare_term_cutoff(benchmark, merges, probs, m_values):
    _, m = m_values[-1]
    merge = merges.merge("dfm", m)
    rows = ["Ablation: §6.4 rare-term hash cutoff vs mapping-table exposure"]
    full_size = len(probs)
    for percentile in (0.0, 0.5, 0.9):
        if percentile == 0.0:
            cutoff = 0.0
        else:
            ordered = sorted(probs.values())
            cutoff = ordered[int(percentile * len(ordered))]
        table = MappingTable.from_merge(
            merge,
            term_probabilities=probs,
            rare_cutoff=cutoff,
        )
        rows.append(
            f"  cutoff at p_t >= {cutoff:.2e}: table exposes "
            f"{table.table_size}/{full_size} terms "
            f"({100 * table.table_size / full_size:.1f}%)"
        )
    emit("ablation_rare_cutoff", rows)

    table = benchmark.pedantic(
        lambda: MappingTable.from_merge(
            merge,
            term_probabilities=probs,
            rare_cutoff=sorted(probs.values())[len(probs) // 2],
        ),
        rounds=3,
        iterations=1,
    )
    # Hiding half the vocabulary must leave lookups working for all terms.
    sample = list(probs)[:: max(1, len(probs) // 50)]
    for term in sample:
        assert 0 <= table.lookup(term) < merge.num_lists
