"""The keyed-encryption alternative Zerber replaces (paper §3).

"Document owners and/or project group managers must generate and
distribute keying material for all group members ... When a key is
compromised or a member leaves a group, the key must be revoked and all
the content associated with that key must be re-encrypted and re-indexed.
Modern group key management schemes, such as logical key trees and
broadcast encryption, reduce the costs associated with giving keys to
members, but still require content re-encryption. ... Zerber does not
use keys."

This module implements that alternative so the ablation bench can price
it: a :class:`LogicalKeyTree` (LKH) giving O(log n) rekey messages per
membership change, and a :class:`KeyedInvertedIndex` whose posting
elements are encrypted under the group key — so every revocation forces a
full re-encrypt + re-index of the group's postings, which is exactly the
cost Zerber's query-time ACL check avoids.

Cryptography is simulated with HMAC-SHA256-derived keystreams: the point
of the baseline is *cost accounting* (messages, re-encrypted elements),
not cipher strength.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from repro.errors import AccessDeniedError, ReproError


def _derive(key: bytes, label: str) -> bytes:
    return hmac.new(key, label.encode("utf-8"), hashlib.sha256).digest()


def _keystream_xor(key: bytes, nonce: int, data: bytes) -> bytes:
    """Simulated symmetric cipher: XOR with an HMAC-derived keystream."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        block = _derive(key, f"ks:{nonce}:{counter}")
        out.extend(block)
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out[: len(data)]))


class LogicalKeyTree:
    """LKH group-key management: O(log n) rekey messages per change.

    Members sit at the leaves of a binary tree; each member knows every
    key on its leaf-to-root path; the root key is the group key. Revoking
    a member replaces all keys on its path, each new key encrypted to the
    surviving children — ceil(log2(n)) * 2 messages instead of the naive
    scheme's n - 1.
    """

    def __init__(self, group_id: int) -> None:
        self.group_id = group_id
        self._members: dict[str, int] = {}  # member -> leaf index
        self._group_key = secrets.token_bytes(32)
        self.key_version = 0
        #: cumulative rekey messages sent (the distribution cost metric).
        self.rekey_messages = 0

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def group_key(self) -> bytes:
        return self._group_key

    def members(self) -> list[str]:
        return sorted(self._members)

    def has_member(self, member: str) -> bool:
        return member in self._members

    def _tree_depth(self) -> int:
        n = max(1, len(self._members))
        return max(1, (n - 1).bit_length())

    def add_member(self, member: str) -> int:
        """Join: the new member receives its path keys (depth messages).

        Backward secrecy (can't read pre-join content) would also require
        rekeying; we follow the common LKH accounting of depth messages.
        """
        if member in self._members:
            raise ReproError(f"{member!r} already in group {self.group_id}")
        self._members[member] = len(self._members)
        messages = self._tree_depth()
        self.rekey_messages += messages
        return messages

    def revoke_member(self, member: str) -> int:
        """Leave/compromise: replace every key on the member's path.

        Returns the rekey messages sent (2 per replaced level — one to
        each surviving subtree), and bumps the group-key version: all
        content encrypted under the old key is now stale.
        """
        if member not in self._members:
            raise ReproError(f"{member!r} not in group {self.group_id}")
        del self._members[member]
        self._group_key = secrets.token_bytes(32)
        self.key_version += 1
        messages = 2 * self._tree_depth()
        self.rekey_messages += messages
        return messages

    @staticmethod
    def naive_rekey_cost(group_size: int) -> int:
        """The no-tree alternative: one message per surviving member."""
        return max(0, group_size - 1)


@dataclass(frozen=True, slots=True)
class EncryptedPosting:
    """One keyed-index entry: blinded term handle + sealed payload."""

    term_handle: bytes
    ciphertext: bytes
    key_version: int


class KeyedInvertedIndex:
    """A per-group encrypted inverted index (the §3 strawman).

    Terms are blinded with an HMAC under the group key (so the server
    can't read them) and payloads sealed with the derived content key.
    The fatal operational property: after :meth:`revoke`, every stored
    entry is under a stale key version and must be re-encrypted before
    the group can search again — :meth:`reencrypt_all` counts that work.
    """

    def __init__(self, tree: LogicalKeyTree) -> None:
        self._tree = tree
        self._entries: list[EncryptedPosting] = []
        #: cumulative elements re-encrypted across all revocations.
        self.reencrypted_elements = 0

    def _handle(self, term: str, key: bytes) -> bytes:
        return _derive(key, f"term:{term}")[:16]

    def insert(self, term: str, doc_id: int, tf: float) -> None:
        key = self._tree.group_key
        payload = f"{doc_id}:{tf:.6f}".encode("ascii")
        self._entries.append(
            EncryptedPosting(
                term_handle=self._handle(term, key),
                ciphertext=_keystream_xor(key, len(self._entries), payload),
                key_version=self._tree.key_version,
            )
        )

    def search(self, member: str, term: str) -> list[tuple[int, float]]:
        """Decrypt matching entries; stale-version entries are unreadable.

        Raises:
            AccessDeniedError: non-members hold no key at all.
            ReproError: the index contains stale entries — the group is
                down for maintenance until re-encryption completes (the
                §3 cost in its most user-visible form).
        """
        if not self._tree.has_member(member):
            raise AccessDeniedError(f"{member!r} holds no group key")
        current = self._tree.key_version
        if any(e.key_version != current for e in self._entries):
            raise ReproError(
                "index contains entries under a revoked key; "
                "re-encryption required before searching"
            )
        key = self._tree.group_key
        handle = self._handle(term, key)
        results = []
        for position, entry in enumerate(self._entries):
            if entry.term_handle == handle:
                payload = _keystream_xor(key, position, entry.ciphertext)
                doc_str, tf_str = payload.decode("ascii").split(":")
                results.append((int(doc_str), float(tf_str)))
        return results

    def reencrypt_all(self, plaintext_postings: list[tuple[str, int, float]]) -> int:
        """Rebuild every entry under the current key; returns the count.

        The owner must supply the plaintext postings — precisely the §3
        burden: "all the content associated with that key must be
        re-encrypted and re-indexed."
        """
        self._entries.clear()
        for term, doc_id, tf in plaintext_postings:
            self.insert(term, doc_id, tf)
        self.reencrypted_elements += len(plaintext_postings)
        return len(plaintext_postings)

    def stale_entries(self) -> int:
        current = self._tree.key_version
        return sum(1 for e in self._entries if e.key_version != current)
