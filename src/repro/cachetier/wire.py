"""Byte format of one cache-tier value.

A value is what one fleet fetch of one posting list produced for the
cluster client: the sorted ``(slot_index, PostingListResponse)`` pairs,
each response in the wire protocol's packed column form
(:func:`repro.protocol.codec.write_columns` — a width byte and
fixed-width values per column, not three varints per record; a fill
ships the bytes a seat's answer arrived as, via
:func:`~repro.protocol.codec.packed_columns`), so the byte discipline
— bounds checks before allocation, width caps, no trailing garbage — is
shared with the codec, not reimplemented.

Shares only, never reconstructed postings: an L2 value decodes to the
same slot-aligned share responses a server fleet would have returned,
which is what makes a cached read byte-identical to an uncached one.
Unlike a single index server's store, though, one value aggregates the
*whole* slot-aligned fetch — at least k shares per element — so it is
Lagrange-reconstructible by whoever holds it. That is why the tier
authenticates every get/put and re-checks the key's group fingerprint
against the live group directory (:class:`repro.cachetier.service
.CacheTierService`), and why a compromised cache-tier *host* must be
treated like k compromised index servers, not one (see the "Cache
tier" safety argument in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.protocol.codec import (
    Reader,
    packed_columns,
    read_columns,
    write_uint,
)
from repro.server.index_server import PostingListResponse

Entry = list[tuple[int, PostingListResponse]]


def encode_entry(pairs: Entry) -> bytes:
    """Serialize sorted (slot_index, response) pairs to an opaque value."""
    out = bytearray()
    write_uint(out, len(pairs))
    for slot_index, response in pairs:
        write_uint(out, slot_index)
        write_uint(out, response.pl_id)
        out += packed_columns(response)
    return bytes(out)


def decode_entry(data: bytes) -> Entry:
    """Parse a cache value back into (slot_index, response) pairs.

    Raises:
        ProtocolError: truncation or trailing bytes — a corrupt cache
            entry must fail loudly, never decode to wrong shares.
    """
    r = Reader(data)
    pairs: Entry = []
    for _ in range(r.uint()):
        slot_index = r.uint()
        pairs.append(
            (slot_index, PostingListResponse(r.uint(), *read_columns(r, 3)))
        )
    r.done()
    return pairs


def entry_key(
    fingerprint, num_servers: int, pl_id: int, epoch: int = 0
) -> str:
    """The L2 key scheme: fingerprint × fan-out width × list × epoch.

    No user id — index servers filter responses by group membership
    only, so two users with identical group sets receive identical
    bytes and may share entries (that sharing is the point of a fleet-
    wide tier). A membership change rotates the fingerprint and thus
    the key, the same re-keying rule the searcher-local L1 relies on.

    ``epoch`` is the list's coordinator write epoch, captured *before*
    the fetch that produced the entry. Invalidation bumps the epoch, so
    a look-aside fill that raced a concurrent write installs its
    pre-write shares under a key no post-write reader ever derives —
    the fence that keeps the byte-identity invariant under concurrent
    write+read (readers always key gets by the current epoch).
    """
    groups = ",".join(str(g) for g in sorted(fingerprint))
    return f"{groups}|{num_servers}|{pl_id}|{epoch}"


def parse_key(key: str) -> tuple[frozenset[int], int, int, int]:
    """Split an L2 key into (group set, num_servers, pl_id, epoch).

    The tier uses the group-set component to enforce access control —
    a key is trivially forgeable, so the fingerprint it claims must be
    checked against the caller's live group memberships, never trusted.

    Raises:
        ProtocolError: the key does not follow the scheme.
    """
    parts = key.split("|")
    if len(parts) != 4:
        raise ProtocolError(f"malformed cache key {key!r}")
    groups_part, num_servers, pl_id, epoch = parts
    try:
        groups = frozenset(
            int(g) for g in groups_part.split(",") if g != ""
        )
        return groups, int(num_servers), int(pl_id), int(epoch)
    except ValueError as exc:
        raise ProtocolError(f"malformed cache key {key!r}") from exc
