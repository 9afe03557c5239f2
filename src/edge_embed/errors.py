"""Exception types raised across the package.

The command line tells rejected input (exit 2) from the path cap (exit 3),
so the package models exactly that distinction: ``ValidationError`` for any
rejected input, a malformed document or command line included, and
``PathExplosionError`` for the cap. The message names the offending entity
(server, link, function, record); no error carries more payload than it
needs to be reported.
"""

from __future__ import annotations


class EdgeEmbedError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EdgeEmbedError, ValueError):
    """An input violates one of the model's invariants or expected shape."""


class PathExplosionError(EdgeEmbedError):
    """The number of stored simple paths exceeded the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"simple-path count exceeded the cap of {cap}")
