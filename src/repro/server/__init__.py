"""Origin-server substrate: file store, costs, site lists, server site."""

from .accelerator import AcceleratorConfig
from .cluster import AcceleratorCluster, HashRing
from .costs import DEFAULT_SERVER_COSTS, ServerCosts
from .filestore import Document, FileStore
from .httpd import ServerSite
from .lease_control import AdaptiveLeaseController
from .sitelist import (
    ENTRY_BYTES,
    InvalidationTable,
    KnownSitesLog,
    SiteEntry,
    SiteList,
)

__all__ = [
    "Document",
    "FileStore",
    "ServerCosts",
    "DEFAULT_SERVER_COSTS",
    "AcceleratorConfig",
    "ServerSite",
    "AcceleratorCluster",
    "HashRing",
    "AdaptiveLeaseController",
    "SiteEntry",
    "SiteList",
    "InvalidationTable",
    "KnownSitesLog",
    "ENTRY_BYTES",
]
