"""Exception types raised across the package.

Every error carries enough payload to point at the offending entity
(server id, link id, record index) so callers can report precisely.
"""

from __future__ import annotations


class EdgeEmbedError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EdgeEmbedError):
    """An input model violates one of its invariants."""


class DisconnectedNetworkError(ValidationError):
    """A server is unreachable from server 0."""

    def __init__(self, server_id: int):
        self.server_id = server_id
        super().__init__(f"server {server_id} is unreachable from server 0")


class NonPositiveParameterError(ValidationError):
    """A physical parameter (processing power, throughput) is <= 0."""

    def __init__(self, what: str, value: float):
        self.what = what
        self.value = value
        super().__init__(f"{what} must be > 0, got {value!r}")


class DuplicateLinkError(ValidationError):
    """Two links connect the same unordered server pair."""

    def __init__(self, u: int, v: int):
        self.pair = (u, v)
        super().__init__(f"more than one link between servers {u} and {v}")


class SelfLoopLinkError(ValidationError):
    """A link has identical endpoints."""

    def __init__(self, link_id: int, node: int):
        self.link_id = link_id
        super().__init__(f"link {link_id} is a self-loop on server {node}")


class CycleDetectedError(ValidationError):
    """The edge set of a workload contains a directed cycle."""

    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        chain = " -> ".join(str(f) for f in cycle)
        super().__init__(f"workload edges form a cycle: {chain}")


class OrderViolationError(ValidationError):
    """The stored function order is not topological for some edge."""

    def __init__(self, src: int, dst: int):
        self.edge = (src, dst)
        super().__init__(
            f"edge {src}->{dst} runs against the stored function order"
        )


class NonPositiveStreamError(ValidationError):
    """A stream edge or output size carries a non-positive bit count."""

    def __init__(self, what: str, value: float):
        self.what = what
        self.value = value
        super().__init__(f"{what} must be > 0 bits, got {value!r}")


class DuplicateStreamEdgeError(ValidationError):
    """Two stream edges connect the same (src, dst) function pair."""

    def __init__(self, src: int, dst: int):
        self.edge = (src, dst)
        super().__init__(f"more than one stream edge from {src} to {dst}")


class MissingOutputSizeError(ValidationError):
    """Output sizes do not cover the destination set exactly."""

    def __init__(self, missing: list[int], unexpected: list[int]):
        self.missing = missing
        self.unexpected = unexpected
        parts = []
        if missing:
            parts.append(f"missing sizes for destinations {missing}")
        if unexpected:
            parts.append(f"sizes given for non-destinations {unexpected}")
        super().__init__("; ".join(parts) or "output size map mismatch")


class AlreadyAugmentedError(ValidationError):
    """The workload already ends in a zero-work collector function."""

    def __init__(self, function_id: int):
        self.function_id = function_id
        super().__init__(
            f"destination {function_id} has zero flops; workload appears to "
            "carry a collector tail already"
        )


class SchemaError(ValidationError):
    """A JSON document does not match the expected shape."""

    def __init__(self, reason: str, record_index: int | None = None):
        self.record_index = record_index
        if record_index is not None:
            reason = f"record {record_index}: {reason}"
        super().__init__(reason)


class SamePairError(EdgeEmbedError):
    """Path enumeration was asked for a src == dst pair."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"no paths requested between server {node} and itself")


class PathExplosionError(EdgeEmbedError):
    """The number of stored simple paths exceeded the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"simple-path count exceeded the cap of {cap}")


class TooLargeError(EdgeEmbedError):
    """Exhaustive search was asked for an infeasibly large instance."""

    def __init__(self, combinations: int, limit: int):
        self.combinations = combinations
        self.limit = limit
        super().__init__(
            f"{combinations} placement vectors exceed the exhaustive-search "
            f"limit of {limit}"
        )


class ConnectivityUnreachableError(EdgeEmbedError):
    """Random network sampling never produced a connected graph."""

    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(
            f"no connected network found after {attempts} attempts; "
            "raise the connectivity probability"
        )
