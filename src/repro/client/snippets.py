"""Snippet service of the hosting peers (paper §5.4.2).

"Search engine results usually include a document ID and also a small
portion of the document content surrounding the query term. Such context
information cannot be stored on the index servers due to security and space
concerns. Zerber clients request snippets from the peers hosting the top-K
documents before presenting the search results to the user."

Every hosting peer enforces access control on its own documents — the index
never had the content, so a snippet request is an ordinary access-controlled
document read. §7.3 sizes snippets at "about 250 B including XML
formatting"; :meth:`Snippet.wire_bytes` reproduces that framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.corpus.document import Document
from repro.errors import AccessDeniedError, ReproError
from repro.server.groups import GroupDirectory

#: §7.3: "each snippet contains about 250 B including XML formatting".
XML_ENVELOPE_BYTES = 130


@dataclass(frozen=True)
class Snippet:
    """One snippet response.

    Attributes:
        doc_id: the document the snippet came from.
        host: the peer that served it.
        text: the context window around the first query-term hit.
    """

    doc_id: int
    host: str
    text: str

    def wire_bytes(self) -> int:
        """Snippet size with the XML envelope of §7.3."""
        return len(self.text.encode("utf-8")) + XML_ENVELOPE_BYTES


class SnippetService:
    """Registry of hosting peers and their access-controlled documents."""

    def __init__(self, groups: GroupDirectory, snippet_width: int = 120) -> None:
        """Args:
        groups: the membership table used for per-read ACL checks.
        snippet_width: characters of context around the query term.
        """
        if snippet_width < 8:
            raise ReproError("snippet_width too small to be useful")
        self._groups = groups
        self._snippet_width = snippet_width
        self._documents: dict[int, Document] = {}

    def host_document(self, document: Document) -> None:
        """A peer publishes (or replaces) one of its shared documents."""
        self._documents[document.doc_id] = document

    def withdraw_document(self, doc_id: int) -> bool:
        """Stop sharing; returns whether the document was hosted."""
        return self._documents.pop(doc_id, None) is not None

    def host_of(self, doc_id: int) -> str | None:
        doc = self._documents.get(doc_id)
        return doc.host if doc else None

    def request_snippet(
        self, user_id: str, doc_id: int, query_terms: Sequence[str]
    ) -> Snippet:
        """Serve a snippet after checking the requester's group membership.

        Raises:
            ReproError: unknown document.
            AccessDeniedError: requester is outside the document's group.
        """
        document = self._documents.get(doc_id)
        if document is None:
            raise ReproError(f"document {doc_id} is not hosted here")
        if not self._groups.is_member(user_id, document.group_id):
            raise AccessDeniedError(
                f"user {user_id!r} may not read document {doc_id}"
            )
        text = ""
        for term in query_terms:
            text = document.snippet(term, self._snippet_width)
            if term.lower() in text.lower():
                break
        if not text:
            text = document.snippet("", self._snippet_width)
        return Snippet(doc_id=doc_id, host=document.host, text=text)
