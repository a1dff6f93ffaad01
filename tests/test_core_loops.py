"""Tests for ON-OFF loop detection (Figure 4 semantics)."""

from hypothesis import given, strategies as st

from repro.cells.cell import Rat
from repro.core.cellset import CellSet, CellSetInterval
from repro.core.loops import LoopKind, dedup_sequence, detect_loop
from tests.conftest import cell_id
from tests.oracles import _naive_detect, naive_detection

IDLE = CellSet()
ON_A = CellSet(pcell=cell_id(393, 521310))
ON_B = CellSet(pcell=cell_id(393, 521310),
               mcg_scells=frozenset({cell_id(273, 387410)}))
ON_C = CellSet(pcell=cell_id(104, 501390))
OFF_LTE = CellSet(pcell=cell_id(380, 5145, rat=Rat.LTE))


def seq(*cellsets: CellSet) -> list[CellSetInterval]:
    intervals = []
    for index, cellset in enumerate(cellsets):
        intervals.append(CellSetInterval(cellset, float(index), float(index + 1)))
    return intervals


class TestNoLoop:
    def test_empty(self):
        assert detect_loop([]).kind is LoopKind.NO_LOOP

    def test_single_on_period(self):
        assert detect_loop(seq(IDLE, ON_A, ON_B)).kind is LoopKind.NO_LOOP

    def test_single_on_off_cycle_is_not_a_loop(self):
        # One occurrence is not "repeated twice or more".
        assert detect_loop(seq(IDLE, ON_A, IDLE)).kind is LoopKind.NO_LOOP

    def test_all_off_never_loops(self):
        assert detect_loop(seq(IDLE, OFF_LTE, IDLE, OFF_LTE)).kind \
            is LoopKind.NO_LOOP

    def test_all_on_never_loops(self):
        assert detect_loop(seq(ON_A, ON_B, ON_A, ON_B)).kind is LoopKind.NO_LOOP


class TestDetection:
    def test_period_two_loop(self):
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE))
        assert detection.kind is LoopKind.PERSISTENT
        assert detection.period == 2
        assert detection.repetitions == 2

    def test_period_three_loop_with_rotation(self):
        # The OFF set sits mid-block: detection must still find the loop
        # and canonicalise the block to start at an ON following an OFF.
        detection = detect_loop(seq(ON_A, OFF_LTE, ON_B, ON_A, OFF_LTE, ON_B))
        assert detection.is_loop
        assert detection.period == 3
        block = detection.block
        assert block[0].five_g_on
        assert not block[-1].five_g_on or not block[1].five_g_on

    def test_leading_noise_skipped(self):
        detection = detect_loop(seq(IDLE, ON_C, ON_A, IDLE, ON_A, IDLE, ON_A))
        assert detection.is_loop
        assert detection.start_index >= 1

    def test_repetition_count(self):
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE, ON_A, IDLE))
        assert detection.repetitions == 3

    def test_min_repetitions_honoured(self):
        intervals = seq(ON_A, IDLE, ON_A, IDLE)
        assert detect_loop(intervals, min_repetitions=3).kind is LoopKind.NO_LOOP

    def test_consecutive_duplicates_merged_before_detection(self):
        intervals = seq(ON_A, ON_A, IDLE, ON_A, ON_A, IDLE)
        detection = detect_loop(intervals)
        assert detection.is_loop
        assert detection.period == 2

    def test_canonical_block_starts_on(self):
        detection = detect_loop(seq(IDLE, ON_A, ON_B, IDLE, ON_A, ON_B, IDLE))
        assert detection.is_loop
        assert detection.block[0].five_g_on
        assert not detection.block[-1].five_g_on


class TestPersistence:
    def test_persistent_when_run_ends_in_loop(self):
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE, ON_A))
        assert detection.kind is LoopKind.PERSISTENT

    def test_semi_persistent_when_loop_exited(self):
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE, ON_C, ON_C))
        assert detection.kind is LoopKind.SEMI_PERSISTENT

    def test_exit_to_lte_only_is_semi_persistent(self):
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE, OFF_LTE))
        assert detection.kind is LoopKind.SEMI_PERSISTENT


class TestDedup:
    def test_dedup_removes_consecutive_only(self):
        sequence = dedup_sequence(seq(ON_A, ON_A, IDLE, ON_A))
        assert sequence == [ON_A, IDLE, ON_A]

    def test_dedup_empty(self):
        assert dedup_sequence([]) == []


class TestSpanDedup:
    """The shared span-preserving dedup helper (used by dedup_sequence,
    loop_window and the incremental detector)."""

    def test_merges_spans(self):
        from repro.core.loops import SpanDedup

        dedup = SpanDedup()
        assert dedup.push(ON_A, 0.0, 1.0) is True
        assert dedup.push(ON_A, 1.0, 2.0) is False  # merged
        assert dedup.push(IDLE, 2.0, 3.0) is True
        assert dedup.cellsets == [ON_A, IDLE]
        assert dedup.starts == [0.0, 2.0]
        assert dedup.ends == [2.0, 3.0]
        assert len(dedup) == 2

    def test_evict_keeps_absolute_indexing(self):
        from repro.core.loops import SpanDedup

        dedup = SpanDedup()
        dedup.extend(seq(ON_A, IDLE, ON_B, IDLE, ON_C))
        dedup.evict(2)
        assert dedup.base == 3
        assert len(dedup) == 5  # absolute length includes evicted
        assert dedup.cellsets == [IDLE, ON_C]

    @given(st.lists(st.sampled_from([ON_A, ON_B, ON_C, IDLE, OFF_LTE]),
                    max_size=24))
    def test_matches_dedup_sequence(self, cellsets):
        from repro.core.loops import SpanDedup

        intervals = seq(*cellsets)
        dedup = SpanDedup()
        dedup.extend(intervals)
        assert dedup.cellsets == dedup_sequence(intervals)
        # Spans tile the timeline: each element covers its merged run.
        for i in range(len(dedup.cellsets) - 1):
            assert dedup.ends[i] == dedup.starts[i + 1]


class TestLoopWindow:
    def test_merge_heavy_window_pinned(self):
        """Regression pin: duplicated-heavy intervals (many consecutive
        merges) map the periodic region to the same time span as before
        the dedup logic was unified into SpanDedup."""
        from repro.core.loops import loop_window

        # ON_A x3, IDLE x2, ON_A x1, IDLE x3, ON_A x2 (unit intervals):
        # dedup = [ON_A, IDLE, ON_A, IDLE, ON_A] with spans
        # [0,3) [3,5) [5,6) [6,9) [9,11).
        intervals = seq(ON_A, ON_A, ON_A, IDLE, IDLE, ON_A,
                        IDLE, IDLE, IDLE, ON_A, ON_A)
        detection = detect_loop(intervals)
        assert detection.is_loop
        assert (detection.start_index, detection.period) == (0, 2)
        assert detection.repetitions == 2
        # Window = repetitions [0,9) + partial tail ON_A [9,11).
        assert loop_window(intervals, detection) == (0.0, 11.0)

    def test_window_none_without_loop(self):
        from repro.core.loops import loop_window

        intervals = seq(ON_A, ON_B)
        assert loop_window(intervals, detect_loop(intervals)) is None


@st.composite
def loop_sequences(draw):
    """A random block (with both states) repeated 2-4 times plus noise."""
    block_size = draw(st.integers(min_value=2, max_value=4))
    candidates = [ON_A, ON_B, ON_C, IDLE, OFF_LTE]
    block = [candidates[draw(st.integers(0, len(candidates) - 1))]
             for _ in range(block_size)]
    # Force both states into the block and no consecutive duplicates.
    block[0] = ON_A
    block[1] = IDLE
    deduped = [block[0]]
    for cellset in block[1:]:
        if cellset != deduped[-1]:
            deduped.append(cellset)
    if deduped[0] == deduped[-1] and len(deduped) > 1:
        deduped.pop()
    repetitions = draw(st.integers(min_value=2, max_value=4))
    return deduped * repetitions


class TestProperties:
    @given(loop_sequences())
    def test_planted_loops_are_found(self, cellsets):
        detection = detect_loop(seq(*cellsets))
        assert detection.is_loop

    @given(loop_sequences())
    def test_reported_block_really_repeats(self, cellsets):
        detection = detect_loop(seq(*cellsets))
        sequence = dedup_sequence(seq(*cellsets))
        start, period = detection.start_index, detection.period
        assert len(detection.block) == period
        # The raw block at (start, period) repeats at least twice...
        raw = sequence[start:start + period]
        assert sequence[start + period:start + 2 * period] == raw
        # ...and the reported block is one of its rotations.
        rotations = [tuple(raw[shift:] + raw[:shift]) for shift in range(period)]
        assert detection.block in rotations

    @given(loop_sequences())
    def test_block_contains_both_states(self, cellsets):
        detection = detect_loop(seq(*cellsets))
        assert any(cellset.five_g_on for cellset in detection.block)
        assert any(not cellset.five_g_on for cellset in detection.block)


class TestPersistenceRegression:
    """The seed rule decided II-P via ``sequence[-1] in block`` — a run
    that exits the loop and coincidentally ends on a loop-member cell
    set was wrongly reported persistent.  The corrected rule requires
    the periodic region itself to extend to the end of the run."""

    def test_coincidental_member_ending_is_semi_persistent(self):
        # Loops over (ON_A, IDLE), exits to ON_C, then ends on ON_A — a
        # loop member, but the periodic region stopped two sets earlier.
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE, ON_C, ON_A))
        assert detection.is_loop
        assert detection.kind is LoopKind.SEMI_PERSISTENT

    def test_leave_then_reenter_is_semi_persistent(self):
        # Leaves the loop mid-run and later re-enters loop-member cell
        # sets without resuming the periodicity.
        detection = detect_loop(seq(ON_A, IDLE, ON_A, IDLE, ON_C, IDLE,
                                    ON_A))
        assert detection.is_loop
        assert detection.kind is LoopKind.SEMI_PERSISTENT

    def test_partial_block_tail_still_counts_as_inside(self):
        # Ending mid-block (a strict prefix of the block) is still
        # "inside the periodic region".
        detection = detect_loop(seq(ON_A, IDLE, ON_B, ON_A, IDLE, ON_B,
                                    ON_A, IDLE))
        assert detection.kind is LoopKind.PERSISTENT


class TestOracleEquivalence:
    @given(st.lists(st.sampled_from([ON_A, ON_B, ON_C, IDLE, OFF_LTE]),
                    max_size=24))
    def test_fast_detector_matches_naive_oracle(self, cellsets):
        intervals = seq(*cellsets)
        fast = detect_loop(intervals)
        expected = _naive_detect(dedup_sequence(intervals))
        if expected is None:
            assert fast.kind is LoopKind.NO_LOOP
        else:
            start, period, repetitions, persistent = expected
            assert fast.is_loop
            assert (fast.start_index, fast.period, fast.repetitions) == \
                (start, period, repetitions)
            assert fast.kind is (LoopKind.PERSISTENT if persistent
                                 else LoopKind.SEMI_PERSISTENT)

    @given(st.lists(st.sampled_from([ON_A, ON_B, ON_C, IDLE, OFF_LTE]),
                    max_size=24),
           st.integers(min_value=1, max_value=3))
    def test_matches_naive_oracle_for_any_min_repetitions(
            self, cellsets, min_repetitions):
        # min_repetitions=1 makes the whole prefix a candidate block at
        # every length: periods longer than the matched suffix count.
        intervals = seq(*cellsets)
        assert detect_loop(intervals, min_repetitions) == \
            naive_detection(intervals, min_repetitions)


class TestRobustness:
    @given(loop_sequences())
    def test_detection_survives_prefix_noise(self, cellsets):
        noise = CellSet(pcell=cell_id(999, 521310))
        noisy = seq(noise, IDLE, *cellsets)
        assert detect_loop(noisy).is_loop

    @given(loop_sequences())
    def test_persistent_becomes_semi_after_exit(self, cellsets):
        exit_set = CellSet(pcell=cell_id(998, 521310),
                           mcg_scells=frozenset({cell_id(1, 387410)}))
        exited = seq(*cellsets, exit_set)
        detection = detect_loop(exited)
        if detection.is_loop and exit_set not in detection.block:
            assert detection.kind is LoopKind.SEMI_PERSISTENT

    def test_long_sequence_is_tractable(self):
        import time

        cellsets = [ON_A, ON_B, IDLE] * 60  # 180 entries
        start = time.perf_counter()
        detection = detect_loop(seq(*cellsets))
        elapsed = time.perf_counter() - start
        assert detection.is_loop
        assert elapsed < 1.0
