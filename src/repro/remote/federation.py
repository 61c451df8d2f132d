"""Federating local and remote repositories behind one repository facade.

A :class:`FederatedRepository` is the paper's "repository of repositories":
one query addresses files living in a local xSEED tree *and* in any number
of remote endpoints, and the engine below never notices — every repository
protocol hook dispatches on URI ownership (``owns_uri``) to the member that
serves it.

Failure isolation is the point: each remote member carries its own
transport (circuit breaker, deadlines) and a query keeps one retry budget
per endpoint, so a dead endpoint
fails *its* files' mounts with errors naming the endpoint while the other
members keep answering. Combined with ``on_mount_error="skip"`` the query
degrades to the surviving sources and the
:class:`~repro.core.mounting.MountFailureReport` says exactly which
endpoint dropped out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from ..db.errors import IngestError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ingest.formats import MountRequest
    from ..mseed.iohooks import ByteSource
    from ..mseed.repository import Held, Repository
    from .transport import RequestScope


class FederatedRepository:
    """Member repositories presented as one, dispatching by URI ownership.

    Members are consulted in order; the first whose ``owns_uri`` claims a
    URI serves it. A :class:`~repro.mseed.repository.FileRepository` claims
    every non-remote URI, so include at most one local member (and order is
    otherwise irrelevant because remote members claim disjoint endpoints).
    """

    def __init__(self, members: Sequence["Repository"]) -> None:
        if not members:
            raise IngestError("a federation needs at least one member repository")
        self.members = tuple(members)
        suffixes: list[str] = []
        for member in self.members:
            for suffix in member.suffixes:
                if suffix not in suffixes:
                    suffixes.append(suffix)
        self.suffixes = tuple(suffixes)

    def _member_for(self, uri: str) -> "Repository":
        for member in self.members:
            if member.owns_uri(uri):
                return member
        raise IngestError(f"no federation member serves URI {uri!r}")

    # -- repository protocol -------------------------------------------------

    def uris(self, scope: Optional["RequestScope"] = None) -> list[str]:
        out: list[str] = []
        for member in self.members:
            out.extend(member.uris(scope))
        return out

    def signatures(
        self, scope: Optional["RequestScope"] = None
    ) -> dict[str, tuple[int, int]]:
        """The members' bulk observations, concatenated in member order."""
        out: dict[str, tuple[int, int]] = {}
        for member in self.members:
            out.update(member.signatures(scope))
        return out

    def __len__(self) -> int:
        return len(self.uris())

    def owns_uri(self, uri: str) -> bool:
        return any(member.owns_uri(uri) for member in self.members)

    def locate(
        self, scope: Optional["RequestScope"] = None
    ) -> Iterator["ByteSource"]:
        """The members' listings one after another, in member order."""
        for member in self.members:
            yield from member.locate(scope)

    def signature_of(
        self, uri: str, scope: Optional["RequestScope"] = None
    ) -> tuple[int, int]:
        return self._member_for(uri).signature_of(uri, scope)

    def signatures_of(
        self, uris: Sequence[str], scope: Optional["RequestScope"] = None
    ) -> dict[str, tuple[int, int] | IngestError]:
        """Each member's observation ahead of the URIs it serves."""
        out: dict[str, tuple[int, int] | IngestError] = {}
        for member in self.members:
            owned = [uri for uri in uris if member.owns_uri(uri)]
            out.update(member.signatures_of(owned, scope))
        return out

    def total_bytes(self) -> int:
        return sum(member.total_bytes() for member in self.members)

    def source_for(
        self, uri: str, scope: Optional["RequestScope"] = None
    ) -> "ByteSource":
        return self._member_for(uri).source_for(uri, scope)

    def hold(
        self,
        uri: str,
        request: Optional["MountRequest"] = None,
        observed: Optional[tuple[int, int]] = None,
        scope: Optional["RequestScope"] = None,
    ) -> "Held":
        return self._member_for(uri).hold(uri, request, observed, scope)


__all__ = ["FederatedRepository"]
