"""Network-bandwidth model (paper §7.3).

§7.3's published numbers, all reproduced by :class:`BandwidthModel`:

- "about 2700 elements are returned from the ODP index per query term on
  average. Assuming that each posting element is encoded using 64 bits,
  this is approximately 170 Kb (21.5 KB) per query term response";
- "The queries in the workload contain on average 2.45 terms, which allows
  for execution of up to 35 queries/second per user and about 200
  queries/second answered by each server on average" (55 Mb/s client
  links, 100 Mb/s server links, 2-out-of-3 sharing);
- "each snippet contains about 250 B including XML formatting, which
  yields 2.5 KB for the top-10 snippets. Thus average total response size
  for the top-10 results is 24 KB";
- the comparison constants: Google 15 KB, Altavista 37 KB, Yahoo 59 KB,
  with compressed-response ratios 3 / 2.4 / 1.6 versus Zerber;
- "Zerber's element shares are almost random, so standard HTML
  compression is ineffective" — :func:`compression_experiment` measures
  that with zlib on real share bytes.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.errors import ReproError
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme

#: §7.3 link rates: "users connect over a 55 Mb/s wireless LAN, while
#: servers use 100 Mb/s LAN connections" (bits per second).
WLAN_55_MBPS = 55_000_000.0
LAN_100_MBPS = 100_000_000.0

#: §7.3 comparison constants (top-10 response sizes, bytes).
GOOGLE_TOP10_BYTES = 15_000
ALTAVISTA_TOP10_BYTES = 37_000
YAHOO_TOP10_BYTES = 59_000

#: §7.3 workload constants.
PAPER_ELEMENTS_PER_QUERY_TERM = 2_700
PAPER_TERMS_PER_QUERY = 2.45
PAPER_SNIPPET_BYTES = 250
PAPER_TOP_K = 10


@dataclass(frozen=True)
class BandwidthReport:
    """The §7.3 derived quantities.

    Attributes:
        response_bits_per_query_term: one server's share stream for one
            query term.
        response_kb_per_query_term: same, in kilobytes (the paper's 21.5).
        query_response_bits_user: what the querying user downloads per
            query (k servers × terms-per-query × per-term response).
        queries_per_second_user: client-link-bound query throughput.
        queries_per_second_server: server-link-bound answer throughput.
        snippet_bytes_top_k: snippet payload for the top-K (the 2.5 KB).
        total_response_bytes_top_k: elements + snippets (the 24 KB).
        vs_google / vs_altavista / vs_yahoo: Zerber top-K response size
            relative to each engine's (>1 means Zerber is bigger).
    """

    response_bits_per_query_term: float
    response_kb_per_query_term: float
    query_response_bits_user: float
    queries_per_second_user: float
    queries_per_second_server: float
    snippet_bytes_top_k: float
    total_response_bytes_top_k: float
    vs_google: float
    vs_altavista: float
    vs_yahoo: float


class BandwidthModel:
    """Parameterized §7.3 algebra."""

    def __init__(
        self,
        elements_per_query_term: float = PAPER_ELEMENTS_PER_QUERY_TERM,
        element_bits: int = 64,
        terms_per_query: float = PAPER_TERMS_PER_QUERY,
        k: int = 2,
        user_bandwidth_bps: float = WLAN_55_MBPS,
        server_bandwidth_bps: float = LAN_100_MBPS,
        snippet_bytes: float = PAPER_SNIPPET_BYTES,
        top_k: int = PAPER_TOP_K,
    ) -> None:
        """Defaults reproduce the paper's setup exactly (2-out-of-3
        sharing, 55/100 Mb/s links, ODP workload averages)."""
        if min(elements_per_query_term, terms_per_query) <= 0:
            raise ReproError("workload averages must be positive")
        if element_bits < 1 or k < 1 or top_k < 1:
            raise ReproError("element_bits, k and top_k must be positive")
        self.elements_per_query_term = elements_per_query_term
        self.element_bits = element_bits
        self.terms_per_query = terms_per_query
        self.k = k
        self.user_bandwidth_bps = user_bandwidth_bps
        self.server_bandwidth_bps = server_bandwidth_bps
        self.snippet_bytes = snippet_bytes
        self.top_k = top_k

    # -- §7.3 insertion/deletion costs -------------------------------------------

    def insert_bandwidth_factor(self, n: int, overhead: float = 1.5) -> float:
        """"Zerber uses 1.5 n times more network bandwidth" for inserts."""
        if n < 1:
            raise ReproError("need at least one server")
        return overhead * n

    def delete_equals_insert_cost(self) -> bool:
        """"The document deletion network cost is thus the same as its
        insertion cost" — encrypted doc IDs force per-element deletes."""
        return True

    # -- §7.3 query costs -----------------------------------------------------------

    def report(self) -> BandwidthReport:
        """Derive every §7.3 number from the configured parameters."""
        per_term_bits = self.elements_per_query_term * self.element_bits
        # The user pulls the response from k servers (shares from each).
        per_query_bits_user = (
            self.k * self.terms_per_query * per_term_bits
        )
        # Each server, per query it answers, uploads one share stream.
        per_query_bits_server = self.terms_per_query * per_term_bits
        snippet_total = self.snippet_bytes * self.top_k
        # §7.3 composes the "average total response size for the top-10
        # results" as ONE query-term element payload (21.5 KB) plus the
        # top-10 snippets (2.5 KB) = 24 KB; we reproduce that arithmetic.
        total_top_k = per_term_bits / 8 + snippet_total
        return BandwidthReport(
            response_bits_per_query_term=per_term_bits,
            response_kb_per_query_term=per_term_bits / 8 / 1000,
            query_response_bits_user=per_query_bits_user,
            queries_per_second_user=(
                self.user_bandwidth_bps / per_query_bits_user
            ),
            queries_per_second_server=(
                self.server_bandwidth_bps / per_query_bits_server
            ),
            snippet_bytes_top_k=snippet_total,
            total_response_bytes_top_k=total_top_k,
            vs_google=total_top_k / GOOGLE_TOP10_BYTES,
            vs_altavista=total_top_k / ALTAVISTA_TOP10_BYTES,
            vs_yahoo=total_top_k / YAHOO_TOP10_BYTES,
        )


def compression_experiment(
    num_elements: int = 2_000,
    k: int = 2,
    n: int = 3,
    seed: int = 0xC02,
) -> dict[str, float]:
    """Measure zlib compressibility of share streams vs plaintext postings.

    "Zerber's element shares are almost random, so standard HTML
    compression is ineffective." We build ``num_elements`` realistic
    posting elements, wire-encode (a) the plaintext postings and (b) one
    server's Shamir share stream, and zlib both.

    Returns:
        {"plaintext_ratio": ..., "share_ratio": ...} where ratio =
        compressed size / raw size (1.0 = incompressible).
    """
    if num_elements < 16:
        raise ReproError("need a non-trivial element count")
    rng = random.Random(seed)
    field = PrimeField(DEFAULT_PRIME)
    scheme = ShamirScheme(k=k, n=n, field=field, rng=rng)
    share_bytes = field.share_bytes
    plain_parts: list[bytes] = []
    share_parts: list[bytes] = []
    for i in range(num_elements):
        # Realistic plaintext: clustered doc ids, small term ids, skewed tf.
        doc_id = rng.randrange(10_000)
        term_id = rng.randrange(500)
        tf = max(1, min(4095, int(rng.expovariate(1 / 40))))
        secret = (doc_id << 34) | (term_id << 12) | tf
        plain_parts.append(secret.to_bytes(8, "big"))
        shares = scheme.split(secret)
        share_parts.append(shares[0].y.to_bytes(share_bytes, "big"))
    plain_blob = b"".join(plain_parts)
    share_blob = b"".join(share_parts)
    return {
        "plaintext_ratio": len(zlib.compress(plain_blob, 9)) / len(plain_blob),
        "share_ratio": len(zlib.compress(share_blob, 9)) / len(share_blob),
    }
