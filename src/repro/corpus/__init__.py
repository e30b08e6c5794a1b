"""Corpora, query logs and group-structure generators (paper §7.4).

The paper evaluates Zerber on three real-world artifacts we cannot ship:
the Stud IP LMS collections of four universities (§7.4.1, Fig. 5), a 2005
Open Directory Project crawl (§7.4.2: 237,000 documents, 987,700 distinct
terms, 100 topic groups), and a web search-engine query log (§7.4.3: 7M
queries, 135,000 distinct query terms, 2.45 terms per query on average).

Every experiment in §7 consumes only *distributions* derived from those
artifacts — per-term document frequencies, per-term query frequencies, and
group-membership marginals — so this package provides generative models
whose outputs match the published shapes (Zipfian document frequency,
rank-correlated-with-noise query frequency, the Fig. 5 group profiles),
plus a fully materialized document generator for end-to-end index tests.
``PAPER.md`` cites the paper; its §7.4 describes the artifacts these
models stand in for.
"""

from repro.corpus.document import Document, Corpus
from repro.corpus.zipf import ZipfSampler, zipf_weights
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    TermStatistics,
    generate_corpus,
    generate_term_statistics,
    odp_like_statistics,
    studip_like_statistics,
)
from repro.corpus.querylog import QueryLog, QueryLogConfig, generate_query_log
from repro.corpus.studip import StudIPConfig, StudIPInstallation, generate_installation

__all__ = [
    "Document",
    "Corpus",
    "ZipfSampler",
    "zipf_weights",
    "SyntheticCorpusConfig",
    "TermStatistics",
    "generate_corpus",
    "generate_term_statistics",
    "odp_like_statistics",
    "studip_like_statistics",
    "QueryLog",
    "QueryLogConfig",
    "generate_query_log",
    "StudIPConfig",
    "StudIPInstallation",
    "generate_installation",
]
