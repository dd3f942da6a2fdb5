"""Annealer invariants: sequence-pair legality, seed determinism,
incumbent monotonicity — property-based where the space is cheap to
sample."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.floorplan import (
    ObjectiveWeights, anneal_floorplan, assign_shifters, default_moves,
    generate_design, pack_sequence_pair,
)
from repro.floorplan import anneal

pytestmark = pytest.mark.floorplan

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _overlap(a, b) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return (ax < bx + bw and bx < ax + aw
            and ay < by + bh and by < ay + ah)


#: Block extents: a few repeated values (ties between reaches and
#: duplicate sizes) mixed with arbitrary floats.
extents = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 7.5]),
                    st.floats(min_value=0.5, max_value=500.0))


def _longest_paths(gamma_pos, gamma_neg, widths, heights):
    """O(n^2) packing straight from the sequence-pair relations.

    ``x[b] = max(x[a] + w[a])`` over blocks ``a`` left of ``b`` (before
    it in both sequences), ``y[b] = max(y[a] + h[a])`` over blocks
    below it (after it in Gamma+, before it in Gamma-); walking Gamma+
    forwards (backwards for ``y``) visits every predecessor first.
    """
    n = len(gamma_pos)
    at_pos = {block: i for i, block in enumerate(gamma_pos)}
    at_neg = {block: i for i, block in enumerate(gamma_neg)}
    x = [0.0] * n
    y = [0.0] * n
    for b in gamma_pos:
        x[b] = max((x[a] + widths[a] for a in range(n)
                    if at_pos[a] < at_pos[b] and at_neg[a] < at_neg[b]),
                   default=0.0)
    for b in reversed(gamma_pos):
        y[b] = max((y[a] + heights[a] for a in range(n)
                    if at_pos[a] > at_pos[b] and at_neg[a] < at_neg[b]),
                   default=0.0)
    total_w = max(x[b] + widths[b] for b in range(n))
    total_h = max(y[b] + heights[b] for b in range(n))
    return x, y, total_w, total_h


def _floorplanned(design_seed: int, anneal_seed: int, blocks: int = 8,
                  moves: int = 120):
    design = generate_design(blocks=blocks, domains=3,
                             seed=design_seed)
    assignment = assign_shifters(design, "sstvs",
                                 characterize_leakage=False)
    return design, anneal_floorplan(design, assignment,
                                    seed=anneal_seed, moves=moves)


class TestSequencePair:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=10))
    def test_packing_is_overlap_free_and_in_bbox(self, data, n):
        """Any (gamma+, gamma-) pair packs to a legal placement — the
        representation cannot express an overlap."""
        gamma_pos = data.draw(st.permutations(range(n)))
        gamma_neg = data.draw(st.permutations(range(n)))
        widths = data.draw(st.lists(
            st.floats(min_value=1.0, max_value=100.0),
            min_size=n, max_size=n))
        heights = data.draw(st.lists(
            st.floats(min_value=1.0, max_value=100.0),
            min_size=n, max_size=n))
        x, y, total_w, total_h = pack_sequence_pair(
            gamma_pos, gamma_neg, widths, heights)
        rects = [(x[i], y[i], widths[i], heights[i]) for i in range(n)]
        for i in range(n):
            assert x[i] >= 0.0 and y[i] >= 0.0
            assert x[i] + widths[i] <= total_w + 1e-9
            assert y[i] + heights[i] <= total_h + 1e-9
            for j in range(i + 1, n):
                assert not _overlap(rects[i], rects[j]), (i, j)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=40))
    def test_packing_matches_brute_force_longest_path(self, data, n):
        """The staircase packer equals the O(n^2) longest path from
        the left-of/below relations, bit for bit."""
        gamma_pos = data.draw(st.permutations(range(n)))
        gamma_neg = data.draw(st.permutations(range(n)))
        widths = data.draw(st.lists(extents, min_size=n, max_size=n))
        heights = data.draw(st.lists(extents, min_size=n, max_size=n))
        x, y, total_w, total_h = pack_sequence_pair(
            gamma_pos, gamma_neg, widths, heights)
        bx, by, bw, bh = _longest_paths(gamma_pos, gamma_neg, widths,
                                        heights)
        assert [v.hex() for v in x] == [v.hex() for v in bx]
        assert [v.hex() for v in y] == [v.hex() for v in by]
        assert (total_w.hex(), total_h.hex()) == (bw.hex(), bh.hex())

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=60),
           st.sampled_from([1, 2, 3, 7, anneal.SNAPSHOT_STRIDE]))
    def test_incremental_repack_matches_full_packer(self, data, n,
                                                    stride):
        """After every move of a random sequence, accepted or undone,
        the annealer's incrementally packed coordinates and totals are
        bitwise those of a full pack of the same state."""
        gamma_pos = data.draw(st.permutations(range(n)))
        gamma_neg = data.draw(st.permutations(range(n)))
        widths = data.draw(st.lists(extents, min_size=n, max_size=n))
        heights = data.draw(st.lists(extents, min_size=n, max_size=n))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
        moves = data.draw(st.lists(
            st.tuples(st.sampled_from(range(4)), pair, st.booleans()),
            max_size=40))

        def assert_matches_full_pack(state):
            x, y = state.placement()
            full = pack_sequence_pair(state.gamma_pos, state.gamma_neg,
                                      state.widths, state.heights)
            assert [v.hex() for v in x] == [v.hex() for v in full[0]]
            assert [v.hex() for v in y] == [v.hex() for v in full[1]]
            assert (state.x.total.hex(), state.y.total.hex()) == \
                (full[2].hex(), full[3].hex())

        with mock.patch.object(anneal, "SNAPSHOT_STRIDE", stride):
            state = anneal._SequencePair(list(gamma_pos),
                                         list(gamma_neg), list(widths),
                                         list(heights))
            assert_matches_full_pack(state)
            for kind, (i, offset), keep in moves:
                j = (i + 1 + offset) % n        # as the annealer draws
                state.move(kind, i, j)
                assert_matches_full_pack(state)
                if not keep:
                    state.undo()
                    assert_matches_full_pack(state)

    def test_left_of_relation(self):
        # b0 before b1 in both sequences => b0 strictly left of b1.
        x, y, w, h = pack_sequence_pair([0, 1], [0, 1],
                                        [10.0, 20.0], [5.0, 5.0])
        assert x[0] + 10.0 <= x[1]
        assert (w, h) == (30.0, 5.0)

    def test_below_relation(self):
        # b0 after b1 in gamma+ but before in gamma- => b0 below b1.
        x, y, w, h = pack_sequence_pair([1, 0], [0, 1],
                                        [10.0, 20.0], [5.0, 7.0])
        assert y[0] + 5.0 <= y[1]
        assert (w, h) == (20.0, 12.0)


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(seeds, seeds)
    def test_same_seed_bitwise_identical(self, design_seed,
                                         anneal_seed):
        """The whole result — placement, cost, acceptance counters —
        is a pure function of (design, seed, moves)."""
        _, a = _floorplanned(design_seed, anneal_seed)
        _, b = _floorplanned(design_seed, anneal_seed)
        assert a.digest() == b.digest()
        assert a.cost.hex() == b.cost.hex()
        assert a.positions == b.positions
        assert (a.accepted, a.evaluated, a.incumbent_move) == \
            (b.accepted, b.evaluated, b.incumbent_move)

    def test_different_seeds_explore_differently(self):
        _, a = _floorplanned(0, 1)
        _, b = _floorplanned(0, 2)
        assert a.digest() != b.digest()


class TestResultLegality:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_incumbent_places_all_modules_without_overlap(self, seed):
        design, result = _floorplanned(design_seed=3, anneal_seed=seed)
        assert set(result.positions) == \
            {m.name for m in design.modules}
        rects = list(result.positions.values())
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not _overlap(rects[i], rects[j])

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_annealing_never_worsens_the_incumbent(self, seed):
        """The returned cost is the best cost seen, so it can only
        improve on the initial (moves=0) packing."""
        _, initial = _floorplanned(design_seed=5, anneal_seed=seed,
                                   moves=0)
        _, annealed = _floorplanned(design_seed=5, anneal_seed=seed,
                                    moves=150)
        assert annealed.cost <= initial.cost

    def test_rotation_preserves_block_area(self):
        design, result = _floorplanned(design_seed=2, anneal_seed=9)
        by_name = design.module_map()
        for name, (_, _, w, h) in result.positions.items():
            module = by_name[name]
            assert {w, h} == {module.width, module.height}


class TestKnobs:
    def test_default_moves_scales_with_blocks(self):
        assert default_moves(10) == 2000
        assert default_moves(1000) == 4000

    def test_negative_moves_rejected(self):
        design = generate_design(blocks=4, domains=2, seed=0)
        assignment = assign_shifters(design, "sstvs",
                                     characterize_leakage=False)
        with pytest.raises(AnalysisError, match="moves"):
            anneal_floorplan(design, assignment, seed=0, moves=-1)

    def test_zero_moves_packs_the_initial_pair(self):
        design = generate_design(blocks=4, domains=2, seed=0)
        assignment = assign_shifters(design, "sstvs",
                                     characterize_leakage=False)
        result = anneal_floorplan(design, assignment, seed=0, moves=0)
        assert (result.evaluated, result.incumbent_move) == (1, 0)
        assert len(result.positions) == 4

    def test_weights_steer_the_objective(self):
        design = generate_design(blocks=8, domains=3, seed=0)
        assignment = assign_shifters(design, "cvs",
                                     characterize_leakage=False)
        heavy = anneal_floorplan(
            design, assignment, seed=0, moves=150,
            weights=ObjectiveWeights(rail=500.0))
        light = anneal_floorplan(
            design, assignment, seed=0, moves=150,
            weights=ObjectiveWeights(rail=0.0))
        assert heavy.cost != light.cost
        assert light.breakdown.rail_length >= 0.0


class TestOneWayStrategies:
    """assign_shifters serves every strategy of the shared table; only
    the one-way ones can be infeasible."""

    @pytest.fixture(scope="class")
    def design(self):
        return generate_design(blocks=16, domains=4, seed=3)

    @pytest.mark.parametrize("strategy", ("sstvs", "combined", "cvs"))
    def test_two_way_strategies_record_nothing(self, design, strategy):
        assignment = assign_shifters(design, strategy,
                                     characterize_leakage=False)
        assert assignment.infeasible == ()

    @pytest.mark.parametrize("strategy", ("inverter", "ssvs"))
    def test_one_way_strategies_flag_the_wrong_direction(self, design,
                                                         strategy):
        assignment = assign_shifters(design, strategy,
                                     characterize_leakage=False)
        assert assignment.cell in ("inverter", "ssvs_khan")
        by_name = design.module_map()
        for source, destination in assignment.infeasible:
            src = by_name[source].domain.schedule
            dst = by_name[destination].domain.schedule
            if strategy == "inverter":
                assert src.min_voltage < dst.max_voltage
            else:
                assert src.max_voltage > dst.min_voltage
        # Up and down crossings both exist, so each one-way cell
        # misses some but not all of them.
        assert 0 < len(assignment.infeasible) < len(assignment.crossings)
