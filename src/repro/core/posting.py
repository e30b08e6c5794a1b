"""Zerber posting elements and their wire encoding (paper §5.2, §7.2–7.3).

"An unencrypted element hence contains three fields:
``secret = [document_ID, term_ID, tf]``." The element is what gets split
with Shamir's scheme, so it must pack into one field secret; §7.3 assumes
"each posting element is encoded using 64 bits". We adopt the layout

    ``doc_id:30 | term_id:22 | tf:12``  (configurable via PackingSpec)

with ``tf`` stored as a 12-bit fixed-point fraction of 1. §7.2's observation
that "Zerber posting elements include additional fields to identify the term
in the merged set and the global element ID, which increases element size by
about 50%" is captured by :meth:`PackingSpec.zerber_element_bits`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from operator import lt
from typing import Collection, Sequence

import numpy as np

from repro.errors import PackingError
from repro.secretsharing.field import word_column

_NO_SECRETS = np.zeros(0, np.uint64)


@dataclass(frozen=True)
class PackingSpec:
    """Bit layout of the packed ``[doc_id, term_id, tf]`` secret.

    Attributes:
        doc_id_bits: width of the document-ID field (identifies host + doc).
        term_id_bits: width of the term-ID field ("an additional encoding
            ... stored with each element to identify the term", §5.2).
        tf_bits: width of the fixed-point term-frequency field.
        element_id_bits: width of the *unencrypted* global element ID that
            accompanies each share on the wire (§5.4.1).
    """

    doc_id_bits: int = 30
    term_id_bits: int = 22
    tf_bits: int = 12
    element_id_bits: int = 32

    def __post_init__(self) -> None:
        if min(self.doc_id_bits, self.term_id_bits, self.tf_bits) < 1:
            raise PackingError("all packed fields need at least one bit")
        if self.element_id_bits < 16:
            raise PackingError("element IDs need at least 16 bits")

    @property
    def secret_bits(self) -> int:
        """Total bits of the packed secret (the paper's 64)."""
        return self.doc_id_bits + self.term_id_bits + self.tf_bits

    @property
    def max_doc_id(self) -> int:
        return (1 << self.doc_id_bits) - 1

    @property
    def max_term_id(self) -> int:
        return (1 << self.term_id_bits) - 1

    @property
    def tf_scale(self) -> int:
        """Fixed-point denominator for the tf field."""
        return (1 << self.tf_bits) - 1

    @property
    def plain_element_bits(self) -> int:
        """Bits of an *ordinary* index element.

        A conventional posting is the same fixed-width record minus the
        term encoding: since the plain index keys posting lists by term, the
        ``term_id_bits`` are repurposed for a wider document ID, keeping the
        record at ``secret_bits`` (64 by default — the paper's §7.3 element
        size). Zerber's extra cost is then exactly the global element ID.
        """
        return self.secret_bits

    @property
    def zerber_element_bits(self) -> int:
        """Bits of a Zerber wire element: packed secret share + element ID.

        With the default layout this is 64 + 32 = 96 bits against a 64-bit
        plain element — §7.2's "increases element size by about 50%".
        """
        return self.secret_bits + self.element_id_bits


@dataclass(frozen=True, slots=True)
class PostingElement:
    """One plaintext Zerber posting element (the secret's three fields).

    Attributes:
        doc_id: document identifier (host + local id packed upstream).
        term_id: dictionary ID of the term, needed to filter false positives
            out of merged lists after decryption (§5.4.2).
        tf: normalized term frequency in (0, 1].
    """

    doc_id: int
    term_id: int
    tf: float

    def __post_init__(self) -> None:
        if self.doc_id < 0 or self.term_id < 0:
            raise PackingError("doc_id and term_id must be non-negative")
        if not 0.0 < self.tf <= 1.0:
            raise PackingError(f"tf {self.tf} outside (0, 1]")


class PostingElementCodec:
    """Packs :class:`PostingElement` triples into field secrets and back.

    The codec is lossless on ``doc_id`` / ``term_id`` and quantizes ``tf``
    to ``tf_bits`` of fixed point (quantization error <= 1/tf_scale, far
    below what ranking can distinguish).
    """

    def __init__(self, spec: PackingSpec | None = None) -> None:
        self.spec = spec = spec or PackingSpec()
        # The spec is frozen: derive masks and shifts once, not per element.
        self._tf_bits = spec.tf_bits
        self._tf_scale = spec.tf_scale
        self._term_bits = spec.term_id_bits
        self._max_term_id = spec.max_term_id
        self._term_field = spec.max_term_id << spec.tf_bits
        self._max_doc_id = spec.max_doc_id
        self._secret_limit = 1 << spec.secret_bits
        # The word decode's operands (term and tf fields, doc shift, tf
        # mask and scale) as ints, and as the 0-d arrays numpy takes
        # faster than an int.
        fields = self._term_field | spec.tf_scale
        shift = spec.tf_bits + spec.term_id_bits
        self._operands = (fields, shift, spec.tf_scale, spec.tf_scale)
        self._word_operands = (
            np.array(fields, np.uint64),
            np.array(shift, np.uint64),
            np.array(spec.tf_scale, np.uint64),
            np.array(float(spec.tf_scale)),
        )

    def pack(self, element: PostingElement) -> int:
        """Encode ``element`` as an integer < 2**secret_bits."""
        return self.pack_many(
            element.doc_id, [element.term_id], [element.tf]
        )[0]

    def pack_many(
        self, doc_id: int, term_ids: Sequence[int], tfs: Sequence[float]
    ) -> list[int]:
        """Encode one document's aligned ``term_id`` / ``tf`` columns.

        Every value is checked before anything is packed — the checks
        :class:`PostingElement` makes, then the field widths — and a tf
        is quantized to ``round(tf * tf_scale)``, floored at one quantum.

        Raises:
            PackingError: on a negative id, a tf outside (0, 1] (NaN
                included), or an id wider than its configured field.
        """
        if doc_id < 0 or min(term_ids, default=0) < 0:
            raise PackingError("doc_id and term_id must be non-negative")
        # 0 < tf rejects NaN too, so max() then compares numbers only.
        if not all(map(lt, repeat(0.0), tfs)) or max(tfs, default=1) > 1:
            bad = next(tf for tf in tfs if not 0.0 < tf <= 1.0)
            raise PackingError(f"tf {bad} outside (0, 1]")
        if doc_id > self._max_doc_id:
            raise PackingError(
                f"doc_id {doc_id} exceeds {self.spec.doc_id_bits}-bit field"
            )
        if max(term_ids, default=0) > self._max_term_id:
            bad = next(t for t in term_ids if t > self._max_term_id)
            raise PackingError(
                f"term_id {bad} exceeds {self._term_bits}-bit field"
            )
        # tf <= 1 caps round(tf * tf_scale) at tf_scale; floor it at 1.
        tf_scale, tf_bits = self._tf_scale, self._tf_bits
        doc_bits = doc_id << self._term_bits
        return [
            ((doc_bits | term_id) << tf_bits) | (round(tf * tf_scale) or 1)
            for term_id, tf in zip(term_ids, tfs, strict=True)
        ]

    def unpack(self, secret: int) -> PostingElement:
        """Decode a packed secret back into its three fields.

        Raises:
            PackingError: if the value does not fit ``secret_bits`` (e.g. a
                corrupted reconstruction from mismatched shares).
        """
        if not 0 <= secret < self._secret_limit:
            raise PackingError(
                f"packed value does not fit {self.spec.secret_bits} bits"
            )
        quantized_tf = secret & self._tf_scale
        if quantized_tf == 0:
            raise PackingError("tf field decoded to zero — corrupt element")
        secret >>= self._tf_bits
        return PostingElement(
            doc_id=secret >> self._term_bits,
            term_id=secret & self._max_term_id,
            tf=quantized_tf / self._tf_scale,
        )

    def unpack_terms(
        self, lists: Sequence[tuple[Sequence[int], Collection[int]]]
    ) -> tuple[list[tuple[int, list[tuple[int, float]]]], int]:
        """Bulk :meth:`unpack` of a query's lists, each ``(secrets,
        term_ids)`` kept to its own queried terms: masks, compares and
        shifts over every list's secrets as words at once.

        Returns ``(term_id, [(doc_id, tf), ...])`` per term with rows,
        in list then term order, rows in arrival order, and the number
        of secrets decoded. What :meth:`unpack` rejects is dropped;
        only kept rows become tuples, ``tf`` the same ``q / tf_scale``.
        """
        columns = [word_column(secrets) for secrets, _ in lists]
        secrets = columns[0] if len(columns) == 1 else np.concatenate(
            [_NO_SECRETS, *columns]
        )
        words = secrets.dtype != object
        fields, shift, tf_mask, scale = (
            self._word_operands if words else self._operands
        )
        # A term's rows read its ID in the term field and a tf of at
        # least 1: ``secret & fields - (key + 1)`` below tf_scale, as a
        # word. An undecodable secret's fields read 0, which never is.
        fields = secrets & fields
        if not words or self._secret_limit < 1 << 64:
            fields[(secrets < 0) | (secrets >= self._secret_limit)] = 0
            fields = fields.astype(np.uint64)
        picks, sizes, start = [], [], 0
        for column, (_, term_ids) in zip(columns, lists):
            part, values, end = fields, secrets, start + len(column)
            if lists[1:]:
                part, values = fields[start:end], secrets[start:end]
            start = end
            for term_id in sorted(term_ids):
                key = np.uint64((term_id << self._tf_bits) + 1)
                kept = values[(part - key) < self._word_operands[2]]
                if len(kept):
                    picks.append(kept)
                    sizes.append((term_id, len(kept)))
        kept = picks[0] if len(picks) == 1 else np.concatenate(
            [secrets[:0], *picks]
        )
        postings = list(
            zip((kept >> shift).tolist(), ((kept & tf_mask) / scale).tolist())
        )
        found, start = [], 0
        for term_id, size in sizes:
            found.append((term_id, postings[start : start + size]))
            start += size
        return found, len(secrets)


def new_element_id(rng: random.Random, bits: int = 32) -> int:
    """Mint a global element ID, "globally unique within its posting list".

    IDs are drawn uniformly at random from ``bits`` bits by the document
    owner (§5.4.1); uniqueness within a posting list is enforced at insert
    time by the index servers. Clients use the ID to match the shares of
    one element across servers.
    """
    return rng.getrandbits(bits)
