"""The DHT overlay network (paper Section 3.2).

The overlay has three modules (Figure 5): the *router*, which implements a
peer-to-peer multi-hop routing protocol over an abstract identifier space;
the *object manager*, which stores soft-state objects; and the *wrapper*,
which choreographs router and object manager to expose the inter-node
(``get``/``put``/``send``/``renew``) and intra-node (``localScan``,
``newData``, ``upcall``) operations of Table 2.
"""

from repro.overlay.identifiers import ID_BITS, IdentifierSpace, node_identifier, object_identifier
from repro.overlay.naming import ObjectName
from repro.overlay.object_manager import ObjectManager, StoredObject
from repro.overlay.router import ChordRouter
from repro.overlay.bamboo import BambooRouter
from repro.overlay.wrapper import OverlayNode

__all__ = [
    "ID_BITS",
    "IdentifierSpace",
    "node_identifier",
    "object_identifier",
    "ObjectName",
    "ObjectManager",
    "StoredObject",
    "ChordRouter",
    "BambooRouter",
    "OverlayNode",
]
