"""Process design kits: registered nodes, cards, variation, corners.

Two nodes ship built-in — ``ptm90`` (the paper's 90 nm PTM-like cards)
and ``lv22`` (a 22 nm-class ultra-low-voltage set) — and every layer
resolves them by name through :mod:`repro.pdk.registry`.
"""

from repro.pdk.ptm90 import (
    FLAVORS, HIGH_VT, LDRAWN, LMIN, LOW_VT, NOMINAL, Pdk, make_card,
)
from repro.pdk.variation import VariationSpec, VariedPdk
from repro.pdk.corners import CornerPdk, CORNER_SHIFTS
from repro.pdk.registry import (
    DEFAULT_NODE, PdkNode, get_node, make_pdk, node_fingerprint,
    node_names, register_node,
)

__all__ = [
    "Pdk",
    "make_card",
    "VariationSpec",
    "VariedPdk",
    "CornerPdk",
    "CORNER_SHIFTS",
    "FLAVORS",
    "NOMINAL",
    "HIGH_VT",
    "LOW_VT",
    "LMIN",
    "LDRAWN",
    "DEFAULT_NODE",
    "PdkNode",
    "register_node",
    "get_node",
    "node_names",
    "make_pdk",
    "node_fingerprint",
]
