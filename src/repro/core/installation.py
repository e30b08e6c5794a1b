"""The enterprise plane one Zerber installation runs (§5).

:class:`Installation` holds what every deployment shares, whatever its
pod count:

- a :class:`~repro.secretsharing.shamir.ShamirScheme` with the public
  (p, x_i) parameters;
- the enterprise :class:`~repro.server.auth.AuthService` and the replicated
  :class:`~repro.server.groups.GroupDirectory` every index server trusts;
- the public :class:`~repro.core.mapping_table.MappingTable` and
  :class:`~repro.core.dictionary.TermDictionary`;
- a :class:`~repro.client.snippets.SnippetService` registry of hosting
  peers, and the principals' tokens and owner clients.

:class:`~repro.cluster.ClusterDeployment` adds where the lists live:
pods of n :class:`~repro.server.index_server.IndexServer` seats, each
holding one share of every element it hosts ("Each index server should
be owned and managed by a different part of the enterprise"). The
paper's single fleet, :class:`~repro.core.zerber_index.ZerberDeployment`,
is that shape at one pod.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.client.batching import BatchPolicy
from repro.client.owner import DocumentOwner
from repro.client.searcher import SearchResult
from repro.client.snippets import SnippetService
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.merging.base import MergingHeuristic
from repro.core.merging.bfm import BreadthFirstMerging, bfm_r_for_list_count
from repro.core.merging.dfm import DepthFirstMerging
from repro.core.merging.udm import UniformDistributionMerging
from repro.core.posting import PackingSpec, PostingElementCodec
from repro.errors import ClusterError, ReproError
from repro.protocol.service import SnippetHostService
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer

if TYPE_CHECKING:
    from typing import Self  # Python 3.11+; annotations only

#: Why a deployment refuses ``use_network=True``: the simulated
#: network is gone, and traffic is counted where it crosses.
NO_SIMULATED_NETWORK = (
    "use_network=True: the simulated network is gone; read traffic from "
    "the search diagnostics (response_bytes, lookup_messages), the "
    "seats' query_log / update_log, or the zerber_server_* counters "
    "(zerber_server_frames_total, zerber_server_request_bytes_total)"
)


def build_mapping_table(
    term_probabilities: Mapping[str, float],
    heuristic: MergingHeuristic | str = "dfm",
    num_lists: int | None = None,
    target_r: float | None = None,
    rare_cutoff: float = 0.0,
    hash_salt: str = "zerber",
):
    """Run a §6 merging heuristic and build the public mapping table.

    :meth:`Installation.bootstrap` runs it; the merge does not depend
    on where the lists are placed.

    Args:
        term_probabilities: formula-(2) probabilities from training data.
        heuristic: a configured heuristic instance, or "dfm" / "bfm" /
            "udm" to be configured from ``num_lists`` / ``target_r``.
        num_lists: M for DFM/UDM (and BFM calibration).
        target_r: r for DFM/BFM; derived by BFM-calibration when omitted
            for DFM (the §7.5 procedure).
        rare_cutoff: §6.4 cutoff below which terms are hash-routed.
        hash_salt: public salt of the rare-term hash function.

    Returns:
        ``(mapping_table, merge_result)``.
    """
    if isinstance(heuristic, str):
        name = heuristic.lower()
        if name == "bfm":
            if target_r is None:
                if num_lists is None:
                    raise ReproError(
                        "BFM needs target_r or num_lists to calibrate"
                    )
                target_r = bfm_r_for_list_count(term_probabilities, num_lists)
            heuristic = BreadthFirstMerging(target_r)
        elif name == "dfm":
            if num_lists is None:
                raise ReproError("DFM needs num_lists")
            if target_r is None:
                target_r = bfm_r_for_list_count(term_probabilities, num_lists)
            heuristic = DepthFirstMerging(num_lists, target_r)
        elif name == "udm":
            if num_lists is None:
                raise ReproError("UDM needs num_lists")
            heuristic = UniformDistributionMerging(num_lists)
        else:
            raise ReproError(f"unknown heuristic {heuristic!r}")
    merge = heuristic.merge(term_probabilities)
    table = MappingTable.from_merge(
        merge,
        term_probabilities=term_probabilities,
        rare_cutoff=rare_cutoff,
        hash_salt=hash_salt,
    )
    return table, merge


class Installation:
    """One Zerber installation's enterprise plane (§5), whatever its shape.

    The shape (:class:`~repro.cluster.ClusterDeployment`) adds where
    the lists live: it sets ``coordinator``, the write router that
    places each list on its pods, ``registry`` and ``transport``, and
    defines ``searcher()`` and ``close()``.
    """

    def __init__(
        self,
        mapping_table: MappingTable,
        k: int = 2,
        n: int = 3,
        field: PrimeField | None = None,
        packing: PackingSpec | None = None,
        use_network: bool = False,
        batch_policy: BatchPolicy | None = None,
        seed: int = 0x2E4B,
    ) -> None:
        """Args:
        mapping_table: the public term -> posting-list table (build one
            with :meth:`bootstrap` if starting from corpus statistics).
        k: Shamir reconstruction threshold (paper default 2).
        n: servers per pod (paper default 3).
        field: the Z_p field; defaults to the 64-bit+ prime.
        packing: posting-element bit layout.
        use_network: must be False, the default; True raises a
            :class:`~repro.errors.ClusterError` naming the counters that replaced the
            simulated network's ledger. The keyword stays only because
            the benchmark scenario still passes ``use_network=False``,
            and goes once that scenario stops.
        batch_policy: default owner batching policy.
        seed: master seed for all deployment randomness: the scheme
            draws from it first, then each owner one 64-bit seed in
            creation order.
        """
        if use_network:
            raise ClusterError(NO_SIMULATED_NETWORK)
        self._rng = random.Random(seed)
        self.field = field or PrimeField(DEFAULT_PRIME)
        self.scheme = ShamirScheme(k=k, n=n, field=self.field, rng=self._rng)
        self.mapping_table = mapping_table
        self.dictionary = TermDictionary()
        self.packing = packing or PackingSpec()
        self.codec = PostingElementCodec(self.packing)
        self.auth = AuthService()
        self.groups = GroupDirectory()
        self._batch_policy = batch_policy or BatchPolicy()
        self.snippets = SnippetService(self.groups)
        self._tokens: dict[str, AuthToken] = {}
        self._owners: dict[str, DocumentOwner] = {}

    def _index_server(self, server_id: str, x_coordinate: int) -> IndexServer:
        """An empty index server trusting this installation's plane."""
        return IndexServer(
            server_id=server_id,
            x_coordinate=x_coordinate,
            auth=self.auth,
            groups=self.groups,
            share_bytes=self.field.share_bytes,
        )

    # -- construction from corpus statistics --------------------------------------

    @classmethod
    def bootstrap(
        cls,
        term_probabilities: Mapping[str, float],
        heuristic: MergingHeuristic | str = "dfm",
        num_lists: int | None = None,
        target_r: float | None = None,
        rare_cutoff: float = 0.0,
        **kwargs,
    ) -> Self:
        """Build an installation by running a §6 merging heuristic.

        Args:
            term_probabilities: formula-(2) probabilities learned from a
                training sub-collection (§7.5 uses the first 30%).
            heuristic: a configured heuristic instance, or one of "dfm" /
                "bfm" / "udm" to be configured from ``num_lists`` /
                ``target_r``.
            num_lists: M for DFM/UDM (and BFM calibration).
            target_r: r for DFM/BFM; when omitted for DFM it is derived by
                BFM-calibration at ``num_lists`` (the §7.5 procedure).
            rare_cutoff: §6.4 probability cutoff below which terms stay out
                of the public table and are hash-routed.
            **kwargs: forwarded to the constructor (k, n, seed, and the
                shape's own: num_pods, wal_dir, ...).
        """
        table, merge = build_mapping_table(
            term_probabilities,
            heuristic=heuristic,
            num_lists=num_lists,
            target_r=target_r,
            rare_cutoff=rare_cutoff,
        )
        deployment = cls(mapping_table=table, **kwargs)
        deployment.merge_result = merge
        return deployment

    # -- principals ---------------------------------------------------------------

    def enroll_user(self, user_id: str) -> AuthToken:
        """Provision a user with the enterprise and cache their ticket."""
        if user_id in self._tokens:
            return self._tokens[user_id]
        credential = self.auth.register_user(user_id)
        token = self.auth.issue_token(user_id, credential)
        self._tokens[user_id] = token
        return token

    def create_group(self, group_id: int, coordinator: str) -> None:
        """Create a collaboration group; enrolls the coordinator if needed."""
        self.enroll_user(coordinator)
        self.groups.create_group(group_id, coordinator)

    def add_member(
        self, group_id: int, user_id: str, actor: str | None = None
    ) -> None:
        self.enroll_user(user_id)
        self.groups.add_member(group_id, user_id, actor=actor)

    def remove_member(
        self, group_id: int, user_id: str, actor: str | None = None
    ) -> None:
        self.groups.remove_member(group_id, user_id, actor=actor)

    # -- clients ---------------------------------------------------------------------

    def owner(
        self, owner_id: str, batch_policy: BatchPolicy | None = None
    ) -> DocumentOwner:
        """The (cached) owner client for a principal, writing through
        the coordinator."""
        if owner_id not in self._owners:
            token = self.enroll_user(owner_id)
            self._owners[owner_id] = DocumentOwner(
                owner_id=owner_id,
                token=token,
                scheme=self.scheme,
                mapping_table=self.mapping_table,
                dictionary=self.dictionary,
                codec=self.codec,
                batch_policy=batch_policy or self._batch_policy,
                rng=random.Random(self._rng.getrandbits(64)),
                router=self.coordinator,
                transport=self.transport,
            )
        return self._owners[owner_id]

    # -- convenience -------------------------------------------------------------------

    def share_document(self, owner_id: str, document) -> int:
        """Share one document and host it for snippet requests."""
        owner = self.owner(owner_id)
        count = owner.share_document(document)
        self.snippets.host_document(document)
        if not self.registry.has_endpoint(document.host):
            self.registry.register(
                document.host, SnippetHostService(self.snippets)
            )
        return count

    def search(
        self,
        user_id: str,
        terms: Sequence[str],
        top_k: int = 10,
        **searcher_kwargs,
    ) -> list[SearchResult]:
        """One-shot search for a principal; ``searcher_kwargs`` reach
        :meth:`searcher`."""
        return self.searcher(user_id, **searcher_kwargs).search(
            terms, top_k=top_k
        )

    def flush_all(self) -> int:
        """Flush every owner's pending batches (test/bench convenience)."""
        return sum(owner.flush_updates() for owner in self._owners.values())

    # -- lifecycle ------------------------------------------------------------------------

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
