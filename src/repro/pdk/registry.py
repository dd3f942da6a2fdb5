"""Named PDK-node registry: every layer resolves nodes through here.

A *node* is a complete model-card set plus the geometry and supply
conventions the cell library and benches need (minimum/drawn lengths,
nominal rail, the canonical up-shift operating pair). Registering a
:class:`PdkNode` makes it addressable everywhere at once:

* ``Pdk(node="lv22")`` — the device factory pulls its cards from the
  node's card builder (see :meth:`repro.pdk.ptm90.Pdk.card`);
* ``--pdk lv22`` on every campaign driver in the CLI;
* solve-cache keys and artifact manifests carry the node's
  :func:`node_fingerprint`, so two nodes can never alias into each
  other's cached or stored results;
* ``repro bench --leaderboard`` characterizes every registered cell on
  every registered node.

Built-in nodes (registered at import): ``ptm90`` (the paper's) and
``lv22`` (the ultra-low-voltage node of arXiv 2302.08553). Third-party
nodes register with :func:`register_node`; unknown names fail with the
live registry listing, not a hardcoded tuple.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Callable

from repro.errors import ModelError

#: Version tag mixed into nothing — fingerprints hash raw cards — but
#: recorded in manifests next to per-node fingerprints for readers.
REGISTRY_SCHEMA = "repro-pdk-registry-v1"

#: Default node: the paper's 90 nm PTM-like card set.
DEFAULT_NODE = "ptm90"


@dataclass(frozen=True)
class PdkNode:
    """Descriptor for one registered process node.

    Attributes:
        name: registry key (also ``Pdk.node`` and the ``--pdk`` value).
        description: one-line human summary for listings.
        make_card: ``(polarity, flavor, temperature_c) -> MosfetParams``
            card builder; its cards define the node's fingerprint.
        flavors: the threshold flavors the card builder accepts.
        lmin: process minimum channel length [m].
        ldrawn: default drawn channel length for cells on this node [m].
        vdd_nominal: nominal supply [V].
        vdd_min / vdd_max: working supply range for sweeps [V].
        default_pair: canonical (VDDI, VDDO) up-shift operating point —
            the leaderboard and ``repro check --cells`` characterize
            every cell here.
        provenance: where the calibration targets come from.
    """

    name: str
    description: str
    make_card: Callable
    flavors: tuple
    lmin: float
    ldrawn: float
    vdd_nominal: float
    vdd_min: float
    vdd_max: float
    default_pair: tuple
    provenance: str = ""


_NODES: dict[str, PdkNode] = {}


def register_node(node: PdkNode, replace: bool = False) -> PdkNode:
    """Register a node; re-registration requires ``replace=True``."""
    if not node.name:
        raise ModelError("PDK node name must be non-empty")
    if node.name in _NODES and not replace:
        raise ModelError(
            f"PDK node {node.name!r} is already registered; pass "
            f"replace=True to override it")
    _NODES[node.name] = node
    return node


def get_node(name: str) -> PdkNode:
    """Look a node up by name; unknown names list the live registry."""
    try:
        return _NODES[name]
    except KeyError:
        raise ModelError(
            f"unknown PDK node {name!r}; registered nodes: "
            f"{', '.join(node_names())}") from None


def node_names() -> tuple:
    """Registered node names, in registration order."""
    return tuple(_NODES)


def make_pdk(name: str = DEFAULT_NODE, temperature_c: float = 27.0):
    """Construct a device factory bound to a registered node."""
    from repro.pdk.ptm90 import Pdk
    get_node(name)  # fail early, with the registry listing
    return Pdk(temperature_c, node=name)


def node_fingerprint(name: str = DEFAULT_NODE) -> str:
    """Stable hash over every (polarity, flavor) card of one node.

    Byte-compatible with the historical single-node fingerprint for
    ``ptm90`` (same card iteration, same formatting), so pre-registry
    manifests and cache entries keep their identity.
    """
    node = get_node(name)
    parts = []
    for polarity in ("n", "p"):
        for flavor in node.flavors:
            card = node.make_card(polarity, flavor)
            values = ",".join(f"{f.name}={getattr(card, f.name)!r}"
                              for f in fields(card))
            parts.append(f"{polarity}/{flavor}:{values}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:16]


def _register_builtin_nodes() -> None:
    from repro.pdk import lv22, ptm90

    register_node(PdkNode(
        name="ptm90",
        description="90 nm PTM-like cards calibrated to the paper's "
                    "Section 3 targets",
        make_card=ptm90.make_card,
        flavors=ptm90.FLAVORS,
        lmin=ptm90.LMIN,
        ldrawn=ptm90.LDRAWN,
        vdd_nominal=1.2,
        vdd_min=0.8,
        vdd_max=1.4,
        default_pair=(0.8, 1.2),
        provenance="A Single-supply True Voltage Level Shifter "
                   "(DATE 2008), Section 3/4 operating targets",
    ))
    register_node(PdkNode(
        name="lv22",
        description="22 nm-class ultra-low-voltage cards (near-ideal "
                    "subthreshold slope, strong DIBL)",
        make_card=lv22.make_card,
        flavors=lv22.FLAVORS,
        lmin=lv22.LMIN,
        ldrawn=lv22.LDRAWN,
        vdd_nominal=lv22.VDD_NOMINAL,
        vdd_min=0.30,
        vdd_max=0.80,
        default_pair=(0.35, 0.5),
        provenance="arXiv 2302.08553 (22 nm ULPLS) operating regime",
    ))


_register_builtin_nodes()
