"""The Zerber deployment facade — the library's top-level public API (§5).

A :class:`ZerberDeployment` wires together everything a working Zerber
installation needs:

- a :class:`~repro.secretsharing.shamir.ShamirScheme` with the public
  (p, x_i) parameters;
- n :class:`~repro.server.index_server.IndexServer` boxes, each holding one
  share of every element ("Each index server should be owned and managed by
  a different part of the enterprise");
- the enterprise :class:`~repro.server.auth.AuthService` and the replicated
  :class:`~repro.server.groups.GroupDirectory`;
- the public :class:`~repro.core.mapping_table.MappingTable` and
  :class:`~repro.core.dictionary.TermDictionary`;
- an optional :class:`~repro.server.transport.SimulatedNetwork` that
  accounts every byte for the §7.3 experiments;
- a :class:`~repro.client.snippets.SnippetService` registry of hosting peers.

Typical use (see ``examples/quickstart.py``)::

    stats = odp_like_statistics(scale=0.01)
    deployment = ZerberDeployment.bootstrap(
        stats.term_probabilities(), k=2, n=3, num_lists=256)
    deployment.create_group(1, coordinator="alice")
    owner = deployment.owner("alice")
    owner.share_document(doc)
    owner.flush_updates()
    results = deployment.searcher("alice").search(["budget"], top_k=10)
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.client.batching import BatchPolicy
from repro.client.owner import DocumentOwner
from repro.client.searcher import SearchClient, SearchResult
from repro.client.snippets import SnippetService
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.merging.base import MergingHeuristic
from repro.core.merging.bfm import BreadthFirstMerging, bfm_r_for_list_count
from repro.core.merging.dfm import DepthFirstMerging
from repro.core.merging.udm import UniformDistributionMerging
from repro.core.posting import PackingSpec, PostingElementCodec
from repro.errors import ReproError
from repro.protocol.service import (
    IndexServerService,
    SnippetHostService,
    fleet_resolver,
)
from repro.protocol.transport import InProcessTransport
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer
from repro.server.transport import LinkSpec, SimulatedNetwork, WLAN_55_MBPS

#: Re-export under the name the core package advertises.
ZerberSearchResult = SearchResult


def build_mapping_table(
    term_probabilities: Mapping[str, float],
    heuristic: MergingHeuristic | str = "dfm",
    num_lists: int | None = None,
    target_r: float | None = None,
    rare_cutoff: float = 0.0,
    hash_salt: str = "zerber",
):
    """Run a §6 merging heuristic and build the public mapping table.

    Shared by :meth:`ZerberDeployment.bootstrap` and the cluster
    deployment's bootstrap — the merge is deployment-shape-agnostic.

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


class ZerberDeployment:
    """A complete, running Zerber installation: the paper's single fleet.

    Its servers answer in this process over an
    :class:`~repro.protocol.transport.InProcessTransport`; it is the
    reference every :class:`~repro.cluster.ClusterDeployment` is
    checked against, over the wire included. A deployment is also a
    context manager, like the cluster.
    """

    def __init__(
        self,
        mapping_table: MappingTable,
        k: int = 2,
        n: int = 3,
        field: PrimeField | None = None,
        packing: PackingSpec | None = None,
        use_network: bool = True,
        batch_policy: BatchPolicy | None = None,
        seed: int = 0x2E4B,
    ) -> None:
        """Args:
        mapping_table: the public term -> posting-list table (build one
            with :meth:`bootstrap` if starting from corpus statistics).
        k: Shamir reconstruction threshold (paper default 2).
        n: number of index servers (paper default 3).
        field: the Z_p field; defaults to the 64-bit+ prime.
        packing: posting-element bit layout.
        use_network: charge client/server traffic against a
            :class:`SimulatedNetwork` (55 Mb/s client links, 100 Mb/s
            server links per §7.3) and account every byte.
        batch_policy: default owner batching policy.
        seed: master seed for all deployment randomness.
        """
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
        share_bytes = (self.field.p.bit_length() + 7) // 8
        self._share_bytes = share_bytes
        self.servers: list[IndexServer] = [
            IndexServer(
                server_id=f"index-server-{i}",
                x_coordinate=self.scheme.x_of(i),
                auth=self.auth,
                groups=self.groups,
                share_bytes=share_bytes,
            )
            for i in range(n)
        ]
        self.network: SimulatedNetwork | None = None
        if use_network:
            self.network = SimulatedNetwork(
                default_link=LinkSpec(bandwidth_bps=WLAN_55_MBPS)
            )
        # The registry resolves against the *live* server list as a
        # fallback, so operators who splice a replacement box into
        # ``deployment.servers`` (see examples/operations_tour.py) stay
        # addressable without re-wiring — the old direct-dispatch
        # semantics, kept at the transport layer.
        self.registry = InProcessTransport(
            network=self.network,
            share_bytes=share_bytes,
            resolver=fleet_resolver(self.servers),
        )
        for server in self.servers:
            self.registry.register(
                server.server_id, IndexServerService.for_server(server)
            )
        #: Every client speaks through the registry itself.
        self.transport = self.registry
        self.snippets = SnippetService(self.groups)
        self._tokens: dict[str, AuthToken] = {}
        self._owners: dict[str, DocumentOwner] = {}

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
    ) -> "ZerberDeployment":
        """Build a deployment by running a §6 merging heuristic.

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
            **kwargs: forwarded to the constructor (k, n, seed, ...).
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
        """The (cached) owner client for a principal."""
        if owner_id not in self._owners:
            token = self.enroll_user(owner_id)
            self._owners[owner_id] = DocumentOwner(
                owner_id=owner_id,
                token=token,
                scheme=self.scheme,
                mapping_table=self.mapping_table,
                dictionary=self.dictionary,
                servers=self.servers,
                codec=self.codec,
                network=self.network,
                batch_policy=batch_policy or self._batch_policy,
                rng=random.Random(self._rng.getrandbits(64)),
                transport=self.transport,
            )
        return self._owners[owner_id]

    def searcher(self, user_id: str, **kwargs) -> SearchClient:
        """A fresh search client for a principal."""
        token = self.enroll_user(user_id)
        kwargs.setdefault("transport", self.transport)
        return SearchClient(
            user_id=user_id,
            token=token,
            scheme=self.scheme,
            mapping_table=self.mapping_table,
            dictionary=self.dictionary,
            servers=self.servers,
            codec=self.codec,
            network=self.network,
            snippet_service=self.snippets,
            **kwargs,
        )

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
        self, user_id: str, terms: Sequence[str], top_k: int = 10
    ) -> list[SearchResult]:
        """One-shot search for a principal."""
        return self.searcher(user_id).search(terms, top_k=top_k)

    def flush_all(self) -> int:
        """Flush every owner's pending batches (test/bench convenience)."""
        return sum(owner.flush_updates() for owner in self._owners.values())

    # -- fleet extension (§5.1) -----------------------------------------------------------

    def add_server(self) -> IndexServer:
        """Dynamically add an (n+1)-th index server.

        Mints a fresh x-coordinate on the existing polynomials
        (:meth:`ShamirScheme.extend`), stands the server up, and has every
        known owner provision it with shares of their existing elements —
        no re-encryption, no new element IDs, queries immediately may use
        the new box as one of their k sources.

        Returns:
            The new, fully provisioned server.
        """
        new_x = self.scheme.extend(1)[0]
        index = len(self.servers)
        share_bytes = (self.field.p.bit_length() + 7) // 8
        server = IndexServer(
            server_id=f"index-server-{index}",
            x_coordinate=new_x,
            auth=self.auth,
            groups=self.groups,
            share_bytes=share_bytes,
        )
        self.servers.append(server)
        self.registry.register(
            server.server_id, IndexServerService.for_server(server)
        )
        for owner in self._owners.values():
            owner.provision_new_server(index)
        return server

    # -- lifecycle ------------------------------------------------------------------------

    def close(self) -> None:
        """Shut the deployment down (idempotent). The in-process
        registry holds no OS resources; it is closed for symmetry with
        the cluster."""
        self.registry.close()

    def __enter__(self) -> "ZerberDeployment":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- fleet statistics ---------------------------------------------------------------

    def total_elements(self) -> int:
        """Posting elements currently stored, summed over servers."""
        return sum(server.num_elements for server in self.servers)

    def storage_bytes(self) -> int:
        """Total wire-encoded storage across the n replicas (§7.2's 1.5n)."""
        return sum(server.storage_bytes() for server in self.servers)
