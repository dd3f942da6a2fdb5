"""Seed-deterministic simulated-annealing floorplanner.

Placement state is a *sequence pair* (Gamma+, Gamma-): block ``b`` is
left of ``c`` iff ``b`` precedes ``c`` in both sequences, and below
``c`` iff ``b`` follows ``c`` in Gamma+ but precedes it in Gamma-.
Any pair of permutations therefore encodes a non-overlapping packing
of all blocks — the annealer can never propose an illegal floorplan.
Coordinates are recovered with the longest-weighted-common-subsequence
evaluation on a Pareto staircase of (Gamma- position, reach) pairs:
each block costs one ``O(log m)`` bisect plus one list splice (a
``memmove`` of at most ``m`` pointers), where ``m <= n`` is the
staircase length, which is what lets thousand-block designs anneal in
seconds.

Inside the annealing loop the packing is incremental
(:class:`_SequencePair`, :class:`_Axis`): each axis snapshots its
committed staircase every :data:`SNAPSHOT_STRIDE` steps of its walk.
A move re-walks from the last snapshot at or before each step it
changed, and each re-walk stops at the first snapshot whose staircase
equals the committed one, since every step from there to the next
change replays unchanged (after the last change, so does the axis
total). :func:`pack_sequence_pair` stays the full packer; it packs the
returned incumbent and is the oracle the incremental path is tested
against.

The objective (see :class:`ObjectiveWeights`) folds the paper's
wiring argument into classic floorplanning cost: bounding-box area and
half-perimeter wirelength, plus the *routed extra-rail length* a
dual-supply (CVS) assignment drags in and the control-wire length a
combined VS needs, plus the assigned shifters' cell area and static
leakage. All randomness flows from one ``numpy`` generator seeded by
the caller: the same seed gives a bitwise-identical floorplan on every
run, machine, and worker count.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.floorplan.assign import ShifterAssignment
from repro.floorplan.design import SocDesign

#: Assumed width of a routed supply rail vs a signal wire [um].
POWER_RAIL_WIDTH = 2.0
SIGNAL_WIDTH = 0.2

#: Walk steps between two staircase snapshots of an incremental
#: re-pack. A smaller stride starts each re-walk closer to its changed
#: step and can stop sooner, at the price of a staircase copy and
#: compare per stride. On 1024-block anneals of 4096 moves, strides of
#: 16 to 32 ran within noise of each other and 8 ran about 20% slower.
SNAPSHOT_STRIDE = 24


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights folding every cost term into um^2-equivalent units.

    ``area`` multiplies the packed bounding box [um^2]; ``wirelength``
    and ``control`` convert routed signal length [um] to metal area at
    the signal width; ``rail`` prices the paper's extra supply rails at
    power-rail width; ``leakage`` converts amps to um^2-equivalents
    (1 nA ~ 1 um^2 by default) so strategy choice feels static power.
    """

    area: float = 1.0
    wirelength: float = SIGNAL_WIDTH
    rail: float = POWER_RAIL_WIDTH
    control: float = SIGNAL_WIDTH
    leakage: float = 1e9


@dataclass(frozen=True)
class CostBreakdown:
    """One floorplan's cost, term by term (all um^2-equivalent except
    the raw lengths)."""

    total: float
    width: float            #: packed bounding box [um]
    height: float
    area: float             #: width * height [um^2]
    hpwl: float             #: signal-weighted wirelength [um]
    rail_length: float      #: routed extra supply rails [um]
    control_length: float   #: routed direction controls [um]
    shifter_area: float     #: [um^2]
    leakage: float          #: [A]
    rails: int              #: extra supply rails routed
    controls: int           #: direction-control wires routed


@dataclass
class FloorplanResult:
    """The incumbent floorplan of one annealing run."""

    design: SocDesign
    assignment: ShifterAssignment
    seed: int
    moves: int
    positions: dict          #: block name -> (x, y, width, height)
    cost: float
    breakdown: CostBreakdown
    accepted: int
    evaluated: int
    incumbent_move: int      #: move index that produced the incumbent

    def digest(self) -> str:
        """SHA-256 over exact (``float.hex``) placement geometry."""
        parts = []
        for name in sorted(self.positions):
            x, y, width, height = self.positions[name]
            parts.append(f"{name}:{x.hex()}:{y.hex()}:"
                         f"{width.hex()}:{height.hex()}")
        blob = "|".join(parts) + f"|{self.cost.hex()}"
        return hashlib.sha256(blob.encode()).hexdigest()


def pack_sequence_pair(gamma_pos, gamma_neg, widths, heights):
    """Pack a sequence pair into coordinates.

    Returns ``(x, y, total_width, total_height)`` with ``x``/``y``
    lists indexed by block. Longest-weighted-common-subsequence
    evaluation: each axis walks Gamma+ (reversed for ``y``) and keeps
    a staircase of ``coord + extent`` keyed by each block's position
    in Gamma-; see :func:`_pack_axis`.
    """
    pos_neg = _inverse(gamma_neg)
    x, total_w = _pack_axis(gamma_pos, pos_neg, widths)
    y, total_h = _pack_axis(reversed(gamma_pos), pos_neg, heights)
    return x, y, total_w, total_h


def _inverse(permutation) -> list:
    """``inverse[block]`` = the block's position in ``permutation``."""
    inverse = [0] * len(permutation)
    for index, block in enumerate(permutation):
        inverse[block] = index
    return inverse


def _pack_axis(order, keys, extents):
    """Longest-path coordinates along one axis, plus the axis total.

    ``stair_keys``/``stair_reach`` form a Pareto staircase of the
    blocks placed so far: keys ascending and reaches strictly
    ascending, every dominated entry (a larger key with no larger
    reach) dropped. A block's coordinate is the largest reach among
    smaller keys, which is the entry just before its insertion point.
    Each coordinate is ``best + extent`` over the same predecessor set
    as the plain longest path, under an exact ``max``, so the result
    is bitwise that of any other evaluation order. The last reach is
    the largest of all, i.e. the axis total.
    """
    coords = [0.0] * len(keys)
    stair_keys: list = []
    stair_reach: list = []
    for block in order:
        key = keys[block]
        at = bisect_left(stair_keys, key)
        best = stair_reach[at - 1] if at else 0.0
        coords[block] = best
        reach = best + extents[block]
        if reach <= best:
            continue            # adds nothing over its predecessor
        # Splice out the successors it dominates. Each entry leaves at
        # most once, so the scan is amortized O(1) per block.
        stop = at
        while stop < len(stair_reach) and stair_reach[stop] <= reach:
            stop += 1
        stair_keys[at:stop] = (key,)
        stair_reach[at:stop] = (reach,)
    return coords, (stair_reach[-1] if stair_reach else 0.0)


class _Axis:
    """One axis of the annealer's committed packing, re-packed in place.

    ``order`` is the axis's walk (Gamma+ for x, Gamma+ reversed for y),
    ``keys`` the block -> Gamma- position list shared by both axes and
    ``extents`` the live widths or heights; :class:`_SequencePair`
    mutates all three in place. ``coords[t]`` is the coordinate of the
    block at walk step ``t`` (a float array, so scattering it to block
    order needs no list conversion), ``snaps[k]`` the staircase before
    step ``k * SNAPSHOT_STRIDE`` and ``total`` the axis total.
    """

    def __init__(self, order, keys, extents):
        self.order = order
        self.keys = keys
        self.extents = extents
        n = len(order)
        self.coords = np.zeros(n)
        self.snaps = [([], [])] * (1 + (n - 1) // SNAPSHOT_STRIDE)
        self.total = 0.0
        self._undo = None
        # With every step changed, a re-walk can only stop early on an
        # empty staircase, which the placeholder snapshots hold exactly.
        self.repack(range(n))

    def repack(self, changed):
        """Re-pack after a move that changed the walk steps ``changed``
        (ascending).

        Each changed step starts a re-walk from the last snapshot at or
        before it. A re-walk stops at the first snapshot whose
        staircase equals the committed one: every step from there to
        the next changed step replays unchanged, and after the last
        changed step so do all the coordinates and the total. Each step
        is the staircase update of :func:`_pack_axis`, with the
        dominated successors found by ``bisect_right`` (reaches ascend
        strictly) and a one-entry splice done in place, so the
        coordinates are bitwise those of a full pack. The new state is
        committed at once; :meth:`revert` restores the old one from the
        slices this call replaced.
        """
        order, keys, extents, snaps = (self.order, self.keys,
                                       self.extents, self.snaps)
        n = len(order)
        total = self.total
        undo = []
        pending = 0
        while pending < len(changed):
            first = changed[pending] // SNAPSHOT_STRIDE
            start = step = first * SNAPSHOT_STRIDE
            stair_keys, stair_reach = map(list, snaps[first])
            coords = []
            append = coords.append
            fresh = []
            while True:
                stop = min(step + SNAPSHOT_STRIDE, n)
                for block in order[step:stop]:
                    key = keys[block]
                    at = bisect_left(stair_keys, key)
                    best = stair_reach[at - 1] if at else 0.0
                    append(best)
                    reach = best + extents[block]
                    if reach <= best:
                        continue
                    end = bisect_right(stair_reach, reach, at)
                    if end == at + 1:
                        stair_keys[at] = key
                        stair_reach[at] = reach
                    else:
                        stair_keys[at:end] = (key,)
                        stair_reach[at:end] = (reach,)
                step = stop
                while pending < len(changed) and changed[pending] < step:
                    pending += 1
                if step == n:
                    total = stair_reach[-1] if stair_reach else 0.0
                    break
                committed_keys, committed_reach = snaps[step
                                                        // SNAPSHOT_STRIDE]
                if (stair_reach == committed_reach
                        and stair_keys == committed_keys):
                    break
                fresh.append((stair_keys[:], stair_reach[:]))
            undo.append((start, self.coords[start:step].copy(),
                         snaps[first + 1:first + 1 + len(fresh)]))
            self.coords[start:step] = coords
            snaps[first + 1:first + 1 + len(fresh)] = fresh
        self._undo = (undo, self.total)
        self.total = total

    def revert(self):
        """Restore the state before the last :meth:`repack`."""
        undo, self.total = self._undo
        for start, coords, snaps in undo:
            self.coords[start:start + len(coords)] = coords
            first = start // SNAPSHOT_STRIDE
            self.snaps[first + 1:first + 1 + len(snaps)] = snaps


class _SequencePair:
    """The annealer's placement state, packed incrementally.

    Holds Gamma+/Gamma- with both inverses, the live block extents and
    rotations, and one :class:`_Axis` per direction. :meth:`move`
    applies one of the four classic moves and re-packs only what it
    changed; :meth:`undo` takes the last move back.
    """

    #: Move kinds: swap in Gamma+, in Gamma-, in both; rotate a block.
    SWAP_POS, SWAP_NEG, SWAP_BOTH, ROTATE = range(4)

    def __init__(self, gamma_pos, gamma_neg, widths, heights):
        self.gamma_pos = gamma_pos
        self.gamma_neg = gamma_neg
        self.widths = widths
        self.heights = heights
        self.pos_pos = _inverse(gamma_pos)
        self.pos_neg = _inverse(gamma_neg)
        self.rotated = [False] * len(gamma_pos)
        self.x = _Axis(gamma_pos, self.pos_neg, widths)
        self.y = _Axis(gamma_pos[::-1], self.pos_neg, heights)
        self.walk = np.asarray(gamma_pos)     #: Gamma+ as an index array
        self.half_w = np.asarray(widths) / 2.0
        self.half_h = np.asarray(heights) / 2.0
        self._last = None

    def move(self, move_kind, i, j=None):
        """Apply move ``move_kind`` and re-pack both axes.

        A rotation turns block ``i``; a swap exchanges positions ``i``
        and ``j`` of its sequence(s). The changed x steps are the
        swapped Gamma+ positions and the Gamma+ positions of the blocks
        a Gamma- swap re-keys or a rotation resizes; y walks Gamma+
        reversed.
        """
        self._apply(move_kind, i, j)
        if move_kind == self.ROTATE:
            steps = [self.pos_pos[i]]
        else:
            steps = []
            if move_kind != self.SWAP_NEG:
                steps += (i, j)
            if move_kind != self.SWAP_POS:
                steps += (self.pos_pos[self.gamma_neg[i]],
                          self.pos_pos[self.gamma_neg[j]])
            steps.sort()
        last = len(self.gamma_pos) - 1
        self.x.repack(steps)
        self.y.repack([last - step for step in reversed(steps)])
        self._last = (move_kind, i, j)

    def undo(self):
        """Restore the state before the last :meth:`move`."""
        self.x.revert()
        self.y.revert()
        self._apply(*self._last)    # every move is its own inverse

    def _apply(self, move_kind, i, j):
        """Change the sequences or extents; the axes are untouched."""
        if move_kind == self.ROTATE:
            widths, heights = self.widths, self.heights
            widths[i], heights[i] = heights[i], widths[i]
            half_w, half_h = self.half_w, self.half_h
            half_w[i], half_h[i] = half_h[i], half_w[i]
            self.rotated[i] = not self.rotated[i]
            return
        if move_kind != self.SWAP_NEG:
            gamma_pos, gamma_rev = self.gamma_pos, self.y.order
            last = len(gamma_pos) - 1
            gamma_pos[i], gamma_pos[j] = gamma_pos[j], gamma_pos[i]
            for at in (i, j):
                block = gamma_pos[at]
                gamma_rev[last - at] = self.walk[at] = block
                self.pos_pos[block] = at
        if move_kind != self.SWAP_POS:
            gamma_neg = self.gamma_neg
            gamma_neg[i], gamma_neg[j] = gamma_neg[j], gamma_neg[i]
            self.pos_neg[gamma_neg[i]] = i
            self.pos_neg[gamma_neg[j]] = j

    def placement(self):
        """``(x, y)`` float arrays indexed by block."""
        x = np.empty(len(self.walk))
        x[self.walk] = self.x.coords
        y = np.empty(len(self.walk))
        y[self.walk[::-1]] = self.y.coords
        return x, y


class CostModel:
    """Vectorized objective evaluation over a fixed design/assignment.

    :meth:`breakdown` prices one placement given block centres; the
    annealer calls it per candidate, the fixed-placement
    :class:`repro.soc.ShifterPlanner` once at the modules' own centres.
    """

    def __init__(self, design: SocDesign, assignment: ShifterAssignment,
                 weights: ObjectiveWeights):
        self.weights = weights
        names = [m.name for m in design.modules]
        self.index = {name: i for i, name in enumerate(names)}
        self.src = np.asarray([self.index[net.source]
                               for net in design.nets], dtype=np.intp)
        self.dst = np.asarray([self.index[net.destination]
                               for net in design.nets], dtype=np.intp)
        self.signals = np.asarray([net.signals for net in design.nets],
                                  dtype=float)
        # Placement-independent terms.
        self.shifter_area = assignment.shifter_area
        self.leakage = assignment.leakage
        self.static = (weights.leakage * self.leakage
                       + self.shifter_area)

        # Extra-rail / control-wire groups: one routed wire per unique
        # (source domain, destination block), run from the *nearest*
        # crossing source sharing it. Both reduce to a segment-min over
        # per-crossing distances.
        by_name = design.module_map()
        rails: dict = {}
        self.rail_net = []      #: positions into design.nets
        self.rail_group = []    #: group id per entry
        for position, net in enumerate(design.nets):
            src_dom = by_name[net.source].domain.name
            dst_dom = by_name[net.destination].domain.name
            if src_dom == dst_dom:
                continue
            group = rails.setdefault((src_dom, net.destination),
                                     len(rails))
            self.rail_net.append(position)
            self.rail_group.append(group)
        self.rail_net = np.asarray(self.rail_net, dtype=np.intp)
        self.rail_group = np.asarray(self.rail_group, dtype=np.intp)
        self.rail_count = len(rails)
        self.price_rails = (assignment.uses_vddi_rail
                            and self.rail_count > 0)
        self.price_controls = (assignment.needs_select
                               and self.rail_count > 0)
        self.rails = self.rail_count if self.price_rails else 0
        self.controls = self.rail_count if self.price_controls else 0

    def breakdown(self, cx, cy, total_w, total_h) -> CostBreakdown:
        dist = (np.abs(cx[self.src] - cx[self.dst])
                + np.abs(cy[self.src] - cy[self.dst]))
        hpwl = float(np.dot(self.signals, dist))
        rail_length = control_length = 0.0
        if self.price_rails or self.price_controls:
            group_min = np.full(self.rail_count, np.inf)
            np.minimum.at(group_min, self.rail_group,
                          dist[self.rail_net])
            routed = float(group_min.sum())
            if self.price_rails:
                rail_length = routed
            if self.price_controls:
                control_length = routed
        weights = self.weights
        area = total_w * total_h
        total = (weights.area * area
                 + weights.wirelength * hpwl
                 + weights.rail * rail_length
                 + weights.control * control_length
                 + self.static)
        return CostBreakdown(total=total, width=total_w, height=total_h,
                             area=area, hpwl=hpwl,
                             rail_length=rail_length,
                             control_length=control_length,
                             shifter_area=self.shifter_area,
                             leakage=self.leakage, rails=self.rails,
                             controls=self.controls)


def default_moves(blocks: int) -> int:
    """Move budget scaling gently with design size."""
    return max(2000, 4 * blocks)


def anneal_floorplan(design: SocDesign, assignment: ShifterAssignment,
                     seed: int = 0, moves: int | None = None,
                     t0_fraction: float = 0.05,
                     t_final_fraction: float = 1e-4,
                     weights: ObjectiveWeights | None = None
                     ) -> FloorplanResult:
    """Anneal a sequence-pair floorplan of ``design``.

    Deterministic in ``(design, assignment, seed, moves, weights)``:
    every random choice — initial permutations, move selection,
    Metropolis acceptance — draws from one ``default_rng(seed)``.
    Geometric cooling runs from ``t0_fraction`` of the initial cost
    down to ``t_final_fraction`` of it over the move budget. Returns
    the incumbent (best-ever accepted) floorplan, re-packed.
    """
    if assignment.needs_select and assignment.uses_vddi_rail:
        raise AnalysisError("assignment cannot both be dual-rail and "
                            "externally selected")
    blocks = list(design.modules)
    n = len(blocks)
    if n < 2:
        raise AnalysisError("need at least 2 blocks to floorplan")
    if moves is None:
        moves = default_moves(n)
    if moves < 0:
        raise AnalysisError(f"annealing moves must be >= 0, got {moves}")
    weights = weights or ObjectiveWeights()
    rng = np.random.default_rng(seed)
    model = CostModel(design, assignment, weights)

    state = _SequencePair(rng.permutation(n).tolist(),
                          rng.permutation(n).tolist(),
                          [float(m.width) for m in blocks],
                          [float(m.height) for m in blocks])

    def evaluate():
        x, y = state.placement()
        return model.breakdown(x + state.half_w, y + state.half_h,
                               state.x.total, state.y.total)

    def copy_state():
        return (list(state.gamma_pos), list(state.gamma_neg),
                list(state.rotated))

    current = evaluate()
    best = current
    best_state = copy_state()
    best_move = 0
    accepted = 0
    evaluated = 1

    t0 = max(t0_fraction * current.total, 1e-12)
    alpha = (t_final_fraction / t0_fraction) ** (1.0 / max(moves, 1))
    temperature = t0
    for move in range(1, moves + 1):
        move_kind = int(rng.integers(4))
        if move_kind == _SequencePair.ROTATE:
            state.move(move_kind, int(rng.integers(n)))
        else:
            i = int(rng.integers(n))
            j = (i + 1 + int(rng.integers(n - 1))) % n
            state.move(move_kind, i, j)

        candidate = evaluate()
        evaluated += 1
        delta = candidate.total - current.total
        accept = (delta <= 0.0
                  or rng.random() < np.exp(-delta / temperature))
        if accept:
            current = candidate
            accepted += 1
            if candidate.total < best.total:
                best = candidate
                best_state = copy_state()
                best_move = move
        else:
            state.undo()
        temperature *= alpha

    gamma_pos, gamma_neg, rotated = best_state
    widths = [float(m.height) if rotated[i] else float(m.width)
              for i, m in enumerate(blocks)]
    heights = [float(m.width) if rotated[i] else float(m.height)
               for i, m in enumerate(blocks)]
    x, y, _, _ = pack_sequence_pair(gamma_pos, gamma_neg, widths,
                                    heights)
    positions = {m.name: (float(x[i]), float(y[i]), widths[i],
                          heights[i])
                 for i, m in enumerate(blocks)}
    return FloorplanResult(design=design, assignment=assignment,
                           seed=seed, moves=moves, positions=positions,
                           cost=best.total, breakdown=best,
                           accepted=accepted, evaluated=evaluated,
                           incumbent_move=best_move)
