"""§5.1 micro-benchmarks: split and reconstruct throughput.

Paper (2.0 GHz Intel T2500, 2006): "creation of the secret shares for one
server for a document with 5,000 distinct terms requires only 33 msec"
and "we can decrypt 700 elements in 1 msec on average" (Gaussian
elimination, k=2).

We are not expected to match those absolute numbers on different hardware
and in pure Python — the shape target is that split cost is O(nN) and
linear per element, and that reconstruction of a full query response
stays within interactive latencies.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import emit, timed_pedantic
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme

FIELD = PrimeField(DEFAULT_PRIME)


def test_sec51_split_5000_terms(benchmark):
    """Algorithm 1a on one 5,000-distinct-term document (paper: 33 ms/server)."""
    scheme = ShamirScheme(k=2, n=3, field=FIELD, rng=random.Random(1))
    secrets_ = [random.Random(2).getrandbits(60) for _ in range(5_000)]

    result, seconds = timed_pedantic(
        benchmark, lambda: scheme.split_many(secrets_), rounds=3
    )
    # n share columns, one per server, aligned with the secrets.
    assert [len(column) for column in result] == [5_000] * scheme.n
    assert (
        scheme.reconstruct_batch(scheme.x_coordinates[:2], result[:2]).tolist()
        == secrets_
    )
    per_server_ms = 1000 * seconds / scheme.n
    emit(
        "sec51_split_timing",
        [
            "§5.1 split timing: 5,000-distinct-term document, k=2, n=3",
            f"measured: {1000 * seconds:.1f} ms total, "
            f"{per_server_ms:.1f} ms per server "
            "(paper: 33 ms per server on 2006 hardware)",
        ],
    )


def test_sec51_reconstruct_rate(benchmark):
    """Algorithm 1b throughput (paper: 700 elements per msec)."""
    rng = random.Random(3)
    scheme = ShamirScheme(k=2, n=3, field=FIELD, rng=rng)
    share_sets = [scheme.split(i + 1)[:2] for i in range(2_000)]

    def reconstruct_all():
        return [scheme.reconstruct(shares) for shares in share_sets]

    values, seconds = timed_pedantic(benchmark, reconstruct_all, rounds=3)
    assert values[:5] == [1, 2, 3, 4, 5]
    per_ms = len(share_sets) / (1000 * seconds)
    emit(
        "sec51_reconstruct_timing",
        [
            "§5.1 reconstruct timing: k=2 Lagrange at x=0",
            f"measured: {per_ms:.0f} elements per msec "
            "(paper: 700 elements/msec with Gaussian elimination, 2006 hw)",
        ],
    )


def test_sec51_gaussian_vs_lagrange(benchmark):
    """The paper's O(k^3) Gaussian path vs the O(k^2) Lagrange path."""
    rng = random.Random(4)
    rows = ["§5.1 ablation: reconstruction back-ends (1,000 elements)"]
    for k, n in ((2, 3), (3, 5), (5, 9)):
        scheme = ShamirScheme(k=k, n=n, field=FIELD, rng=rng)
        share_sets = [scheme.split(i + 1)[:k] for i in range(1_000)]
        timings = {}
        for method in ("lagrange", "gaussian"):
            start = time.perf_counter()
            out = [
                scheme.reconstruct(shares, method=method)
                for shares in share_sets
            ]
            timings[method] = time.perf_counter() - start
            assert out[:3] == [1, 2, 3]
        rows.append(
            f"  k={k} n={n}: lagrange {1000 * timings['lagrange']:.1f} ms, "
            f"gaussian {1000 * timings['gaussian']:.1f} ms "
            f"(x{timings['gaussian'] / timings['lagrange']:.1f})"
        )
    emit("sec51_gaussian_vs_lagrange", rows)

    scheme = ShamirScheme(k=3, n=5, field=FIELD, rng=rng)
    share_sets = [scheme.split(i + 1)[:3] for i in range(200)]
    benchmark.pedantic(
        lambda: [scheme.reconstruct(s, method="gaussian") for s in share_sets],
        rounds=3,
        iterations=1,
    )
