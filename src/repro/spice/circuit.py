"""Circuit data model: named nodes, devices, and index assignment.

A :class:`Circuit` is a flat container of devices connected by named
nodes. Node names are case-insensitive strings; ``"0"`` and ``"gnd"``
both denote ground. Devices added through :meth:`Circuit.add` may expand
into auxiliary devices (MOSFET parasitic capacitances), which are stored
alongside them with derived names.

Hierarchy is handled by construction-time flattening: cell-builder
functions (see :mod:`repro.cells`) take a circuit, a name prefix, and a
node mapping, and add prefixed devices directly.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CircuitError
from repro.spice.devices.base import Device
from repro.spice.mna import GROUND

#: Node names that denote the ground reference.
GROUND_NAMES = frozenset({"0", "gnd", "gnd!", "vss!"})


def canonical_node(name: str) -> str:
    """Canonical (lower-case, ground-normalized) form of a node name."""
    low = str(name).strip().lower()
    if not low:
        raise CircuitError("node name must be non-empty")
    if low in GROUND_NAMES:
        return "0"
    return low


class Circuit:
    """A flat netlist of devices connected by named nodes."""

    def __init__(self, title: str = "untitled"):
        self.title = title
        self.devices: dict[str, Device] = {}
        self._node_index: dict[str, int] = {}
        self._branch_owner: dict[str, int] = {}
        self._frozen = False
        self._stamp_partition = None
        self._nonlinear_cache = None
        self._assembly_plan = None

    # -- construction ---------------------------------------------------

    def add(self, device: Device) -> Device:
        """Add ``device`` (and its expansion) to the circuit.

        Returns the device for chaining. Raises :class:`CircuitError` on
        duplicate names or when the circuit has been finalized.
        """
        if self._frozen:
            raise CircuitError(
                f"circuit {self.title!r} is finalized; cannot add {device.name!r}")
        key = device.name.lower()
        if key in self.devices:
            raise CircuitError(f"duplicate device name {device.name!r}")
        device.nodes = [canonical_node(n) for n in device.nodes]
        self.devices[key] = device
        for aux in device.expand():
            self.add(aux)
        return device

    def remove(self, name: str) -> None:
        """Remove a device (used by ablation studies)."""
        if self._frozen:
            raise CircuitError("circuit is finalized; cannot remove devices")
        key = name.lower()
        if key not in self.devices:
            raise CircuitError(f"no device named {name!r}")
        del self.devices[key]

    def device(self, name: str) -> Device:
        try:
            return self.devices[name.lower()]
        except KeyError:
            raise CircuitError(f"no device named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.devices

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices.values())

    def __len__(self) -> int:
        return len(self.devices)

    # -- finalization and indexing ---------------------------------------

    def finalize(self) -> None:
        """Assign solution-vector indices to nodes and branches.

        Idempotent; analyses call it automatically. After finalization
        the device set is fixed (indices would go stale otherwise).
        """
        if self._frozen:
            return
        self._node_index.clear()
        self._branch_owner.clear()
        for device in self.devices.values():
            for node in device.nodes:
                if node != "0" and node not in self._node_index:
                    self._node_index[node] = len(self._node_index)
        next_branch = len(self._node_index)
        for device in self.devices.values():
            device.node_indices = [
                GROUND if node == "0" else self._node_index[node]
                for node in device.nodes
            ]
            count = device.branch_count()
            if count:
                device.branch_indices = list(
                    range(next_branch, next_branch + count))
                self._branch_owner[device.name.lower()] = next_branch
                next_branch += count
        self._system_size = next_branch
        self._frozen = True
        self._invalidate_caches()

    def unfreeze(self) -> None:
        """Allow further edits; analyses will re-finalize."""
        self._frozen = False
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._stamp_partition = None
        self._nonlinear_cache = None
        self._assembly_plan = None

    def node_count(self) -> int:
        self.finalize()
        return len(self._node_index)

    def system_size(self) -> int:
        self.finalize()
        return self._system_size

    def node_index(self, name: str) -> int:
        """Solution-vector index for a node name (GROUND for ground)."""
        self.finalize()
        canon = canonical_node(name)
        if canon == "0":
            return GROUND
        try:
            return self._node_index[canon]
        except KeyError:
            raise CircuitError(f"unknown node {name!r}") from None

    def node_names(self) -> list[str]:
        """All non-ground node names in index order."""
        self.finalize()
        return sorted(self._node_index, key=self._node_index.__getitem__)

    def branch_index(self, device_name: str) -> int:
        """Solution-vector index of a device's branch current."""
        self.finalize()
        try:
            return self._branch_owner[device_name.lower()]
        except KeyError:
            raise CircuitError(
                f"device {device_name!r} has no branch current") from None

    # -- queries ----------------------------------------------------------

    def nonlinear_devices(self) -> list[Device]:
        if self._nonlinear_cache is None or not self._frozen:
            cache = [d for d in self.devices.values() if d.is_nonlinear()]
            if not self._frozen:
                return cache
            self._nonlinear_cache = cache
        return self._nonlinear_cache

    def stamp_partition(self) -> tuple[list[Device], list[Device], list[Device]]:
        """Devices split by stamp kind: ``(linear, opaque, mosfets)``.

        Each list preserves circuit insertion order. ``linear`` devices
        have cacheable matrix stamps, ``mosfets`` go through the
        vectorized EKV group, and ``opaque`` devices (unknown
        subclasses) are re-stamped scalar-wise every iteration. The
        partition is the canonical assembly order: linear first, then
        the gmin diagonal, then opaque, then MOSFETs — both the cached
        and the reference assembly paths follow it so their float
        accumulation order is identical.
        """
        if self._stamp_partition is None or not self._frozen:
            linear: list[Device] = []
            opaque: list[Device] = []
            mosfets: list[Device] = []
            for device in self.devices.values():
                stamp_kind = getattr(device, "stamp_kind", "opaque")
                if stamp_kind == "linear":
                    linear.append(device)
                elif stamp_kind == "mosfet":
                    mosfets.append(device)
                else:
                    opaque.append(device)
            partition = (linear, opaque, mosfets)
            if not self._frozen:
                return partition
            self._stamp_partition = partition
        return self._stamp_partition

    def assembly_plan(self):
        """Lazily-built :class:`repro.spice.assembly.AssemblyPlan`.

        Cached on the circuit and invalidated whenever the device set
        can change (``unfreeze``/re-``finalize``).
        """
        self.finalize()
        if self._assembly_plan is None:
            from repro.spice.assembly import AssemblyPlan
            self._assembly_plan = AssemblyPlan(self)
        return self._assembly_plan

    def breakpoints(self, t_stop: float) -> list[float]:
        """Sorted unique transient breakpoints from all devices."""
        points: set[float] = {0.0, t_stop}
        for device in self.devices.values():
            points.update(p for p in device.breakpoints(t_stop)
                          if 0.0 <= p <= t_stop)
        return sorted(points)

    def devices_of_type(self, cls: type) -> list[Device]:
        return [d for d in self.devices.values() if isinstance(d, cls)]

    def copy_topology(self) -> "Circuit":
        """Shallow structural copy sharing no index state (for sweeps).

        Devices themselves are shared object references; use this only
        when devices are immutable between runs or when callers reset
        device state explicitly. Monte Carlo builds fresh circuits
        instead.
        """
        clone = Circuit(self.title)
        for device in self.devices.values():
            clone.devices[device.name.lower()] = device
        return clone

    def summary(self) -> str:
        """Human-readable inventory used by examples and error messages."""
        self.finalize()
        kinds: dict[str, int] = {}
        for device in self.devices.values():
            kinds[type(device).__name__] = kinds.get(type(device).__name__, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return (f"Circuit {self.title!r}: {len(self.devices)} devices "
                f"({parts}), {len(self._node_index)} nodes, "
                f"{self._system_size} unknowns")
