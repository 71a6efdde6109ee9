"""Proxy cache substrate: entries, bounded cache storage, proxy node."""

from .cache import Cache
from .entry import CacheEntry, entry_key
from .proxy import ProxyCache, ProxyCosts, RequestOutcome

__all__ = [
    "Cache",
    "CacheEntry",
    "entry_key",
    "ProxyCache",
    "ProxyCosts",
    "RequestOutcome",
]
