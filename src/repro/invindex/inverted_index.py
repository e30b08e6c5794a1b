"""The ordinary (plaintext) inverted index — Zerber's baseline (Fig. 1).

This is the structure every §7 comparison is made against: term -> posting
list, supporting insertion/deletion of whole documents and conjunctive /
disjunctive keyword lookup.
"""

from __future__ import annotations

from typing import Iterable

from repro.corpus.document import Document
from repro.errors import ReproError
from repro.invindex.postings import Posting, PostingList
from repro.invindex.tokenizer import Tokenizer


class InvertedIndex:
    """A classic in-memory inverted index over :class:`Document` objects."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        self._lists: dict[str, PostingList] = {}
        self._doc_terms: dict[int, set[str]] = {}
        self._doc_lengths: dict[int, int] = {}

    # -- updates -------------------------------------------------------------

    def index_document(self, document: Document) -> int:
        """Index (or re-index) one document; returns its distinct-term count."""
        if document.doc_id in self._doc_terms:
            self.delete_document(document.doc_id)
        terms = set()
        for term, count in document.term_counts.items():
            posting = Posting(doc_id=document.doc_id, tf=count / document.length)
            self._lists.setdefault(term, PostingList(term)).add(posting)
            terms.add(term)
        self._doc_terms[document.doc_id] = terms
        self._doc_lengths[document.doc_id] = document.length
        return len(terms)

    def index_text(
        self, doc_id: int, text: str, host: str = "local", group_id: int = 0
    ) -> Document:
        """Tokenize raw text and index it; returns the built Document."""
        counts = self._tokenizer.term_counts(text)
        if not counts:
            raise ReproError(f"document {doc_id} tokenized to nothing")
        document = Document(
            doc_id=doc_id,
            host=host,
            group_id=group_id,
            term_counts=dict(counts),
            length=sum(counts.values()),
            text=text,
        )
        self.index_document(document)
        return document

    def delete_document(self, doc_id: int) -> bool:
        """Remove every posting of ``doc_id``.

        Note the contrast exploited in §7.3: a *plaintext* index can delete
        by document ID in one message because the server can see which
        postings share it; Zerber cannot.
        """
        terms = self._doc_terms.pop(doc_id, None)
        if terms is None:
            return False
        self._doc_lengths.pop(doc_id, None)
        for term in terms:
            plist = self._lists.get(term)
            if plist is not None:
                plist.remove(doc_id)
                if len(plist) == 0:
                    del self._lists[term]
        return True

    # -- lookups ---------------------------------------------------------------

    def posting_list(self, term: str) -> PostingList | None:
        """The posting list for ``term`` (None if the term is unindexed)."""
        return self._lists.get(term)

    def document_frequency(self, term: str) -> int:
        plist = self._lists.get(term)
        return len(plist) if plist else 0

    def lookup(self, terms: Iterable[str]) -> dict[str, list[Posting]]:
        """Disjunctive lookup: term -> its postings, omitting unknown terms."""
        result = {}
        for term in terms:
            plist = self._lists.get(term)
            if plist is not None:
                result[term] = list(plist)
        return result

    def search_or(self, terms: Iterable[str]) -> set[int]:
        """Documents containing *any* query term."""
        docs: set[int] = set()
        for postings in self.lookup(terms).values():
            docs.update(p.doc_id for p in postings)
        return docs

    def search_and(self, terms: Iterable[str]) -> set[int]:
        """Documents containing *all* query terms."""
        term_list = list(terms)
        if not term_list:
            return set()
        sets = []
        for term in term_list:
            plist = self._lists.get(term)
            if plist is None:
                return set()
            sets.append({p.doc_id for p in plist})
        sets.sort(key=len)
        result = sets[0]
        for s in sets[1:]:
            result &= s
        return result

    # -- statistics --------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._doc_terms)

    @property
    def vocabulary_size(self) -> int:
        return len(self._lists)

    @property
    def num_postings(self) -> int:
        """Total posting elements across all lists."""
        return sum(len(pl) for pl in self._lists.values())

    def document_frequencies(self) -> dict[str, int]:
        """term -> document frequency for the whole index."""
        return {term: len(plist) for term, plist in self._lists.items()}

    def terms_of(self, doc_id: int) -> set[str]:
        """Distinct terms of an indexed document (empty set if unknown)."""
        return set(self._doc_terms.get(doc_id, set()))

    def document_length(self, doc_id: int) -> int:
        """Token length recorded at indexing time (0 if unknown)."""
        return self._doc_lengths.get(doc_id, 0)
