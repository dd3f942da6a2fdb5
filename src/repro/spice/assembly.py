"""Cached static+dynamic MNA assembly — the throughput path.

:func:`repro.spice.mna.assemble` re-stamps every device at every Newton
iteration. Profiling the level-shifter testbenches shows that ~83% of a
transient run is spent there, almost all of it re-deriving numbers that
never change within a solve: resistor conductances, source incidence
rows, capacitor companion conductances (fixed for a given integrator
method and step), and companion currents (fixed across the iterations of
one solve). This module splits assembly accordingly:

* **per circuit** — an :class:`AssemblyPlan` partitions devices by
  ``stamp_kind`` and precomputes index structure (COO rows/cols, flat
  scatter indices, MOSFET parameter arrays);
* **per (method, dt, gmin)** — a dense *base matrix* accumulates every
  linear device's ``linear_matrix_entries`` + ``reactive_matrix_entries``
  plus the gmin diagonal, cached in a small LRU so transient steps at an
  unchanged ``h`` pay nothing;
* **per solve** — :meth:`SolverWorkspace.begin_solve` rebuilds only the
  RHS base (source values, capacitor companion currents), constant
  across that solve's Newton iterations;
* **per iteration** — :meth:`SolverWorkspace.assemble_iteration` copies
  base matrix and RHS base into the shared :class:`~repro.spice.mna.
  MnaSystem` and re-stamps only the nonlinear devices: opaque devices
  scalar-wise, MOSFETs through one vectorized EKV evaluation.

Bitwise parity with the reference path is a hard requirement (tested in
``tests/spice/test_assembly_equivalence.py``): both paths stamp in the
same canonical order (linear devices in insertion order, gmin diagonal,
opaque devices, MOSFETs), device values come from the same shared
numpy kernels, and ``np.add.at`` is unbuffered so duplicate COO indices
accumulate in exactly the sequential order the scalar path uses.

Unknown device subclasses make a plan *unsupported*; the workspace then
falls back to the reference full re-stamp, trading speed for safety.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.runtime import telemetry
from repro.spice import mna
from repro.spice.devices.base import Device
from repro.spice.devices.inductor import Inductor
from repro.spice.devices.mosfet import Mosfet, ekv_evaluate
from repro.spice.devices.passive import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.integration import (
    BACKWARD_EULER, TRAPEZOIDAL, IntegratorState,
)

#: Device classes whose split-stamp entry methods are known to describe
#: their ``stamp`` exactly. Subclasses are deliberately excluded: they
#: may override ``stamp`` without updating the entry methods, so any
#: unknown class downgrades the whole plan to the reference path.
_TRUSTED_LINEAR = (Resistor, Capacitor, VoltageSource, CurrentSource,
                   Inductor)

#: Cached base matrices per plan; transient runs alternate between a
#: handful of (method, dt) pairs once the step controller settles, but
#: a batched lane group cycles every lane's growth/halving dt sequence
#: through its shared plan, so the window is sized for that churn (the
#: memory cost is naug² floats per entry — a few KB).
_BASE_CACHE_SIZE = 64


class _MosfetGroup:
    """All MOSFETs of a circuit, evaluated in one vectorized pass.

    Stamp order per device matches :meth:`Mosfet.stamp` exactly:
    ``(d,col)/(s,col)`` pairs for col in (d, g, s, b), then the gmin
    quad ``(d,d),(s,s),(d,s),(s,d)``; RHS ``(d, r),(s, -r)``. The COO
    arrays are laid out device-major so ``np.add.at`` replays the same
    accumulation sequence as the scalar per-device loop.
    """

    def __init__(self, mosfets: list, naug: int):
        self.n = len(mosfets)
        params = np.array([m.kernel_params() for m in mosfets], dtype=float)
        (self.sign, self.vto, self.n_slope, self.ut, self.gamma, self.phi,
         self.eta_dibl, self.lambda_clm, self.ispec) = (
            np.ascontiguousarray(params[:, k]) for k in range(9))
        idx = np.array([m.node_indices for m in mosfets],
                       dtype=np.intp) % naug
        d, g, s, b = (np.ascontiguousarray(idx[:, k]) for k in range(4))
        self.d, self.g, self.s, self.b = d, g, s, b
        self.dgsb = np.stack([d, g, s, b])  # one-gather terminal index
        rows = np.stack([d, s, d, s, d, s, d, s, d, s, d, s], axis=1)
        cols = np.stack([d, d, g, g, s, s, b, b, d, s, s, d], axis=1)
        self.mat_flat = np.ascontiguousarray((rows * naug + cols).ravel())
        self.rhs_rows = np.ascontiguousarray(
            np.stack([d, s], axis=1).ravel())

    def stamp(self, aug_matrix_flat: np.ndarray, aug_rhs: np.ndarray,
              x_aug: np.ndarray, gmin: float, mat_vals: np.ndarray,
              rhs_vals: np.ndarray) -> None:
        vd, vg, vs, vb = x_aug[self.dgsb]
        id_real, gdd, gdg, gds_, gdb = ekv_evaluate(
            self.sign, self.vto, self.n_slope, self.ut, self.gamma,
            self.phi, self.eta_dibl, self.lambda_clm, self.ispec,
            vd, vg, vs, vb)
        mv = mat_vals
        mv[:, 0] = gdd
        mv[:, 2] = gdg
        mv[:, 4] = gds_
        mv[:, 6] = gdb
        np.negative(mv[:, 0:8:2], out=mv[:, 1:8:2])
        mv[:, 8] = gmin
        mv[:, 9] = gmin
        mv[:, 10] = -gmin
        mv[:, 11] = -gmin
        np.add.at(aug_matrix_flat, self.mat_flat, mv.ravel())
        linear_sum = gdd * vd + gdg * vg + gds_ * vs + gdb * vb
        r = linear_sum - id_real
        rhs_vals[:, 0] = r
        rhs_vals[:, 1] = -r
        np.add.at(aug_rhs, self.rhs_rows, rhs_vals.ravel())


class _CapacitorGroup:
    """Index/parameter arrays for all state-carrying capacitors.

    The group is pure structure; per-run state (``v_prev``, ``i_prev``)
    lives in the :class:`SolverWorkspace` so one cached plan serves any
    number of runs.
    """

    def __init__(self, caps: list, naug: int):
        self.caps = caps
        self.n = len(caps)
        self.c = np.array([c.capacitance for c in caps], dtype=float)
        self.ic = np.array([np.nan if c.ic is None else float(c.ic)
                            for c in caps], dtype=float)
        idx = np.array([c.node_indices for c in caps],
                       dtype=np.intp) % naug
        self.a = np.ascontiguousarray(idx[:, 0])
        self.b = np.ascontiguousarray(idx[:, 1])

    def companion(self, integrator: IntegratorState, v_prev: np.ndarray,
                  i_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`IntegratorState.companion` (same float ops)."""
        if integrator.method == BACKWARD_EULER:
            geq = self.c / integrator.dt
            return geq, -geq * v_prev
        geq = 2.0 * self.c / integrator.dt
        return geq, -(geq * v_prev + i_prev)


class AssemblyPlan:
    """Immutable per-circuit assembly structure plus the base-matrix cache.

    Obtained via :meth:`Circuit.assembly_plan`, which invalidates it
    whenever the device set can change.
    """

    def __init__(self, circuit):
        circuit.finalize()
        self.size = circuit.system_size()
        self.n_nodes = circuit.node_count()
        self.naug = self.size + 1
        linear, opaque, mosfets = circuit.stamp_partition()
        self.linear = linear
        self.opaque = opaque
        self.mosfets = mosfets
        self.damped = bool(circuit.nonlinear_devices())
        self.supported = (
            all(type(d) in _TRUSTED_LINEAR for d in linear)
            and all(type(d) is Mosfet for d in mosfets))
        self._base_cache: OrderedDict = OrderedDict()
        self.mosfet_group: Optional[_MosfetGroup] = None
        self.cap_group: Optional[_CapacitorGroup] = None
        if not self.supported:
            return
        if mosfets:
            self.mosfet_group = _MosfetGroup(mosfets, self.naug)
        caps = [d for d in linear
                if type(d) is Capacitor and d.capacitance > 0.0]
        if caps:
            self.cap_group = _CapacitorGroup(caps, self.naug)
        group_caps = {id(c) for c in caps}
        self.stateful_scalar = [
            d for d in circuit
            if id(d) not in group_caps
            and (type(d).init_state is not Device.init_state
                 or type(d).update_state is not Device.update_state)]
        self._rhs_tr = self._build_rhs_structure(
            IntegratorState(TRAPEZOIDAL, dt=1.0), group_caps)
        self._rhs_dc = self._build_rhs_structure(None, group_caps)
        self._mat_tr = self._build_matrix_structure(
            IntegratorState(TRAPEZOIDAL, dt=1.0), group_caps)
        self._mat_dc = self._build_matrix_structure(None, group_caps)
        self._diag_flat = np.arange(self.n_nodes, dtype=np.intp) \
            * (self.naug + 1)

    def _build_rhs_structure(self, probe, group_caps):
        """RHS row layout for one regime (transient probe or DC).

        Returns ``(rows, scalar, cap_slot_a, cap_slot_b)`` where ``rows``
        lists target rows in canonical device order, ``scalar`` holds
        ``(device, start, count)`` for devices whose values are fetched
        through ``dynamic_rhs_entries`` each solve, and the cap slots
        index the value positions filled vectorized from the capacitor
        group (in group order). Only the row *structure* is taken from
        the probe; values are recomputed per solve.
        """
        rows: list[int] = []
        scalar: list[tuple] = []
        cap_slot_a: list[int] = []
        cap_slot_b: list[int] = []
        for device in self.linear:
            if probe is not None and id(device) in group_caps:
                a, b = (i % self.naug for i in device.node_indices)
                cap_slot_a.append(len(rows))
                rows.append(a)
                cap_slot_b.append(len(rows))
                rows.append(b)
                continue
            entries = device.dynamic_rhs_entries(0.0, 1.0, probe)
            if entries:
                scalar.append((device, len(rows), len(entries)))
                rows.extend(r % self.naug for r, _ in entries)
        return (np.array(rows, dtype=np.intp), tuple(scalar),
                np.array(cap_slot_a, dtype=np.intp),
                np.array(cap_slot_b, dtype=np.intp))

    def _build_matrix_structure(self, probe, group_caps):
        """Flat COO layout of the base matrix for one regime.

        Walks the canonical accumulation order — each linear device's
        ``linear_matrix_entries`` then its ``reactive_matrix_entries``
        — recording flat augmented indices and a value template. Static
        (linear) values are baked into the template; grouped capacitors
        get slot index arrays (``+geq`` pair, ``-geq`` pair) filled
        vectorized per rebuild; any other reactive device (inductors)
        is listed for a scalar fill. Replaying the template through
        ``np.add.at`` reproduces the scalar loop's accumulation order,
        so rebuilt bases stay bitwise identical.
        """
        idx: list[int] = []
        vals: list[float] = []
        cap_pos: list[int] = []
        cap_neg: list[int] = []
        scalar: list[tuple] = []
        naug = self.naug
        for device in self.linear:
            for row, col, value in device.linear_matrix_entries():
                idx.append((row % naug) * naug + col % naug)
                vals.append(value)
            if probe is None:
                continue
            entries = device.reactive_matrix_entries(probe)
            if not entries:
                continue
            grouped = id(device) in group_caps
            if grouped:
                # Quad order fixed by Capacitor.reactive_matrix_entries:
                # (a,a,+geq), (b,b,+geq), (a,b,-geq), (b,a,-geq).
                cap_pos.extend((len(idx), len(idx) + 1))
                cap_neg.extend((len(idx) + 2, len(idx) + 3))
            else:
                scalar.append((device, len(idx), len(entries)))
            for row, col, _ in entries:
                idx.append((row % naug) * naug + col % naug)
                vals.append(0.0)
        return (np.array(idx, dtype=np.intp),
                np.array(vals, dtype=float),
                np.array(cap_pos, dtype=np.intp),
                np.array(cap_neg, dtype=np.intp),
                tuple(scalar))

    def base_matrix(self, integrator: Optional[IntegratorState],
                    gmin: float) -> np.ndarray:
        """Cached linear+reactive+gmin augmented matrix for this regime.

        Callers must treat the result as read-only (it is copied into
        the workspace's system every iteration). Misses are common in
        adaptive transients (the step size rarely repeats), so the
        rebuild is vectorized from the precomputed COO template.
        """
        if integrator is None:
            key = ("dc", 0.0, gmin)
        else:
            key = (integrator.method, integrator.dt, gmin)
        cache = self._base_cache
        base = cache.get(key)
        tracer = telemetry.active_tracer()
        if base is not None:
            cache.move_to_end(key)
            if tracer is not None:
                tracer.count("assembly.base_hit")
            return base
        if tracer is not None:
            tracer.count("assembly.base_miss")
        idx, vals, cap_pos, cap_neg, scalar = (
            self._mat_dc if integrator is None else self._mat_tr)
        if integrator is not None:
            if self.cap_group is not None:
                zeros = np.zeros(self.cap_group.n)
                geq, _ = self.cap_group.companion(integrator, zeros,
                                                  zeros)
                vals[cap_pos] = np.repeat(geq, 2)
                vals[cap_neg] = np.repeat(-geq, 2)
            for device, start, count in scalar:
                entries = device.reactive_matrix_entries(integrator)
                for k in range(count):
                    vals[start + k] = entries[k][2]
        flat = np.zeros(self.naug * self.naug, dtype=float)
        np.add.at(flat, idx, vals)
        flat[self._diag_flat] += gmin
        base = flat.reshape(self.naug, self.naug)
        cache[key] = base
        if len(cache) > _BASE_CACHE_SIZE:
            cache.popitem(last=False)
        return base


class SolverWorkspace:
    """Reusable solver scratch space bound to one circuit.

    Owns the :class:`~repro.spice.mna.MnaSystem` (so repeated
    ``newton_solve`` calls stop allocating one each), the per-iteration
    value buffers, and the per-run capacitor state arrays. One workspace
    serves a whole retry ladder or transient run; analyses create one
    per (circuit, run) and thread it through.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        self.plan = circuit.assembly_plan()
        plan = self.plan
        self.size = plan.size
        self.n_nodes = plan.n_nodes
        self.damped = plan.damped
        self.system = mna.MnaSystem(plan.size)
        self._aug_matrix = self.system._aug_matrix
        self._aug_rhs = self.system._aug_rhs
        self._mat_flat = self._aug_matrix.ravel()
        self._base: Optional[np.ndarray] = None
        self._time = 0.0
        self._integrator: Optional[IntegratorState] = None
        self._gmin = 1e-12
        self._scale = 1.0
        if not plan.supported:
            return
        self._x_aug = np.zeros(plan.naug, dtype=float)
        self._rhs_base = np.zeros(plan.naug, dtype=float)
        mg = plan.mosfet_group
        if mg is not None:
            self._mos_mat_vals = np.empty((mg.n, 12), dtype=float)
            self._mos_rhs_vals = np.empty((mg.n, 2), dtype=float)
        self._tr_vals = np.empty(len(plan._rhs_tr[0]), dtype=float)
        self._dc_vals = np.empty(len(plan._rhs_dc[0]), dtype=float)
        # Capacitor state, loaded lazily from the device objects so a
        # workspace created mid-flight sees whatever a previous run
        # committed (matching the old per-device-state semantics).
        self._cap_v_prev: Optional[np.ndarray] = None
        self._cap_i_prev: Optional[np.ndarray] = None

    # -- per-solve --------------------------------------------------------

    def begin_solve(self, time: float, integrator: Optional[IntegratorState],
                    gmin: float, source_scale: float) -> None:
        """Fix the solve regime and rebuild the iteration-invariant RHS."""
        self._time = time
        self._integrator = integrator
        self._gmin = gmin
        self._scale = source_scale
        plan = self.plan
        if not plan.supported:
            return
        self._base = plan.base_matrix(integrator, gmin)
        if integrator is not None:
            rows, scalar, cap_a, cap_b = plan._rhs_tr
            vals = self._tr_vals
        else:
            rows, scalar, cap_a, cap_b = plan._rhs_dc
            vals = self._dc_vals
        for device, start, count in scalar:
            entries = device.dynamic_rhs_entries(time, source_scale,
                                                 integrator)
            for k in range(count):
                vals[start + k] = entries[k][1]
        if integrator is not None and plan.cap_group is not None:
            v_prev, i_prev = self._cap_state()
            _, ieq = plan.cap_group.companion(integrator, v_prev, i_prev)
            vals[cap_a] = -ieq
            vals[cap_b] = ieq
        rhs_base = self._rhs_base
        rhs_base[:] = 0.0
        np.add.at(rhs_base, rows, vals)

    def assemble_iteration(self, x: np.ndarray) -> mna.StampContext:
        """Assemble the system at iterate ``x`` (fast path or fallback)."""
        plan = self.plan
        if not plan.supported:
            return mna.assemble(self.circuit, x, self.system,
                                time=self._time, integrator=self._integrator,
                                gmin=self._gmin, source_scale=self._scale)
        np.copyto(self._aug_matrix, self._base)
        np.copyto(self._aug_rhs, self._rhs_base)
        ctx = mna.StampContext(self.system, x, time=self._time,
                               integrator=self._integrator, gmin=self._gmin,
                               source_scale=self._scale)
        for device in plan.opaque:
            device.stamp(ctx)
        mg = plan.mosfet_group
        if mg is not None:
            x_aug = self._x_aug
            x_aug[:self.size] = x
            mg.stamp(self._mat_flat, self._aug_rhs, x_aug, self._gmin,
                     self._mos_mat_vals, self._mos_rhs_vals)
        return ctx

    # -- dynamic device state --------------------------------------------

    def _cap_state(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cap_v_prev is None:
            caps = self.plan.cap_group.caps
            self._cap_v_prev = np.array([c._v_prev for c in caps])
            self._cap_i_prev = np.array([c._i_prev for c in caps])
        return self._cap_v_prev, self._cap_i_prev

    def init_state(self, x: np.ndarray) -> None:
        """Vectorized replacement for the per-device init_state loop."""
        plan = self.plan
        if not plan.supported:
            for device in self.circuit:
                device.init_state(x)
            return
        cg = plan.cap_group
        if cg is not None:
            x_aug = self._x_aug
            x_aug[:self.size] = x
            v = x_aug[cg.a] - x_aug[cg.b]
            self._cap_v_prev = np.where(np.isnan(cg.ic), v, cg.ic)
            self._cap_i_prev = np.zeros(cg.n, dtype=float)
        for device in plan.stateful_scalar:
            device.init_state(x)

    def update_state(self, x_new: np.ndarray,
                     integrator: IntegratorState) -> None:
        """Vectorized replacement for the per-device update_state loop."""
        plan = self.plan
        if not plan.supported:
            for device in self.circuit:
                device.update_state(x_new, integrator)
            return
        cg = plan.cap_group
        if cg is not None:
            x_aug = self._x_aug
            x_aug[:self.size] = x_new
            v_new = x_aug[cg.a] - x_aug[cg.b]
            v_prev, i_prev = self._cap_state()
            geq, ieq = cg.companion(integrator, v_prev, i_prev)
            self._cap_i_prev = geq * v_new + ieq
            self._cap_v_prev = v_new
        for device in plan.stateful_scalar:
            device.update_state(x_new, integrator)

    def sync_state(self) -> None:
        """Write vectorized capacitor state back to the device objects.

        Keeps device attributes coherent for post-run inspection and for
        any later solver path that reads them directly.
        """
        cg = self.plan.cap_group if self.plan.supported else None
        if cg is None or self._cap_v_prev is None:
            return
        for cap, v, i in zip(cg.caps, self._cap_v_prev, self._cap_i_prev):
            cap._v_prev = float(v)
            cap._i_prev = float(i)
