"""Zerber's core contribution (paper §4–§6).

- :mod:`repro.core.posting` — the encrypted posting element: the
  ``secret = [document_ID, term_ID, tf]`` triple of §5.2 packed into a
  64-bit field secret, plus global element IDs;
- :mod:`repro.core.confidentiality` — the r-confidentiality measure
  (Definition 1) and the formulas (2)–(5), (7) that govern merging;
- :mod:`repro.core.merging` — the DFM / BFM / UDM heuristics of §6 and the
  hash-based rare-term assignment of §6.4;
- :mod:`repro.core.mapping_table` — the "publicly available mapping table
  that maps a term to the ID of its posting list" (§6, Fig. 4);
- :mod:`repro.core.installation` — the installation plane (scheme,
  auth, groups, mapping table, principals and owners) tying servers,
  clients and the mapping table into the end-to-end system of §5.4;
- :mod:`repro.core.zerber_index` — the paper's single fleet, the
  cluster shape at one pod.
"""

from repro.core.posting import (
    PackingSpec,
    PostingElement,
    PostingElementCodec,
    new_element_id,
)
from repro.core.confidentiality import (
    amplification,
    is_r_confidential,
    list_confidentiality,
    merged_term_probability,
    required_probability_mass,
    resulting_r,
)
from repro.core.mapping_table import MappingTable
from repro.core.merging import (
    BreadthFirstMerging,
    DepthFirstMerging,
    MergeResult,
    MergingHeuristic,
    UniformDistributionMerging,
)
from repro.core.zerber_index import ZerberDeployment, ZerberSearchResult

__all__ = [
    "PackingSpec",
    "PostingElement",
    "PostingElementCodec",
    "new_element_id",
    "amplification",
    "is_r_confidential",
    "list_confidentiality",
    "merged_term_probability",
    "required_probability_mass",
    "resulting_r",
    "MappingTable",
    "MergeResult",
    "MergingHeuristic",
    "DepthFirstMerging",
    "BreadthFirstMerging",
    "UniformDistributionMerging",
    "ZerberDeployment",
    "ZerberSearchResult",
]
