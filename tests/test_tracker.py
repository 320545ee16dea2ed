import functools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ReferenceTracker, reference_iou
from semmap.errors import NonMonotonicFrame
from semmap.simulator import (
    Scenario,
    run_scenario_detailed,
    synthesize_frame_data,
)
from semmap.tracker import Detection2D, IoUTracker, iou

DATA_DIR = Path(__file__).resolve().parent / "data"
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"


def det(bbox, label="cup", kind="object", score=1.0):
    return Detection2D(bbox=bbox, class_label=label, score=score, kind=kind)


# detection scores the oracle tests draw: below, at and above the start
# score
SCORES = (0.3, 0.5, 1.0)


rects = st.tuples(
    st.floats(0, 500), st.floats(0, 500),
    st.floats(1, 300), st.floats(1, 300),
).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# a few coordinates, signed zeros among them, up to 1e150 so that no width,
# area or sum overflows
coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-200]),
                   st.floats(-1e150, 1e150))


@st.composite
def box_pairs(draw):
    """Two boxes whose corners come from one small pool, so that shared
    edges, containment and zero-width overlaps are common; a box may be
    inverted or flat."""
    pool = draw(st.lists(coords, min_size=1, max_size=5))
    corner = st.sampled_from(pool)
    boxes = []
    for _ in range(2):
        x0, y0, x1, y1 = (draw(corner) for _ in range(4))
        if draw(st.booleans()):
            x0, x1 = sorted((x0, x1))
            y0, y1 = sorted((y0, y1))
        boxes.append((x0, y0, x1, y1))
    return boxes


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50 / 150)

    @given(a=rects, b=rects)
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert iou(b, a) == pytest.approx(v)

    @given(pair=box_pairs())
    # an overlap whose area underflows to 0.0, as both boxes' areas do
    @example(pair=[(0.0, 0.0, 1e-200, 1e-200)] * 2)
    @settings(max_examples=1000, deadline=None)
    def test_bitwise_equal_to_reference(self, pair):
        a, b = pair
        assert bits(iou(a, b)) == bits(reference_iou(a, b))

    def test_overflowing_width_of_disjoint_boxes(self):
        # the width inf times the height 0.0 made the reference NaN; the
        # tracker skips such a pair as disjoint before it scores it
        a, b = (-1e308, 0, 1e308, 1), (-1e308, 5, 1e308, 6)
        assert math.isnan(reference_iou(a, b))
        assert bits(iou(a, b)) == bits(0.0)


class TestDetection2D:
    def test_face_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown detection kind"):
            det((0, 0, 10, 10), kind="face")

    @pytest.mark.parametrize("bbox", [
        (0.0, 0.0, math.inf, 10.0), (-math.inf, 0.0, 10.0, 10.0),
        (0.0, -math.inf, 10.0, 10.0), (0.0, 0.0, 10.0, math.inf),
        (-math.inf, -math.inf, math.inf, math.inf),
        (0.0, 0.0, math.nan, 10.0), (0.0, 0.0, 10.0, 0.0),
    ])
    def test_non_finite_or_degenerate_bbox_rejected(self, bbox):
        # an infinite corner used to pass, as x0 < x1 held; a track of it
        # scored NaN, and a confirmed one died in extract_object_cloud
        with pytest.raises(ValueError, match="not finite with x0 < x1"):
            det(bbox)

    def test_bbox_stored_as_floats(self):
        d = det((np.float64(1.5), 2, np.int64(3), 4.0))
        assert d.bbox == (1.5, 2.0, 3.0, 4.0)
        assert all(type(c) is float for c in d.bbox)


class TestStep:
    def test_single_confirmation_at_threshold(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=5, ttl=3)
        bbox = (10, 10, 50, 50)
        confirmed = []
        for frame in range(1, 9):
            confirmed += tracker.step([det(bbox)], frame)
        assert len(confirmed) == 1
        track_id, d = confirmed[0]
        assert d.bbox == bbox
        # confirmation lands exactly on the 5th sighting
        tracker2 = IoUTracker(iou_threshold=0.5, min_track_length=5, ttl=3)
        for frame in range(1, 5):
            assert tracker2.step([det(bbox)], frame) == []
        assert len(tracker2.step([det(bbox)], 5)) == 1

    def test_short_track_never_confirms(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=5, ttl=3)
        confirmed = []
        for frame in range(1, 5):
            confirmed += tracker.step([det((0, 0, 5, 5))], frame)
        for frame in range(5, 20):
            confirmed += tracker.step([], frame)
        assert confirmed == []

    def test_class_gating_keeps_tracks_disjoint(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=3, ttl=3)
        bbox = (10, 10, 40, 40)
        confirmed = []
        for frame in range(1, 6):
            confirmed += tracker.step(
                [det(bbox, "cup"), det(bbox, "book")], frame)
        labels = sorted(d.class_label for _, d in confirmed)
        assert labels == ["book", "cup"]
        assert len({tid for tid, _ in confirmed}) == 2

    def test_matching_is_injective(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=2, ttl=3)
        dets = [det((0, 0, 10, 10)), det((1, 0, 11, 10))]
        tracker.step(dets, 1)
        tracker.step(dets, 2)
        indices = [t.last_detection_index for t in tracker.tracks]
        assert sorted(indices) == [0, 1]

    def test_low_iou_spawns_new_track(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=5, ttl=3)
        tracker.step([det((0, 0, 10, 10))], 1)
        tracker.step([det((8, 0, 18, 10))], 2)  # IoU = 2/18 < 0.5
        assert len(tracker.tracks) == 2

    def test_low_score_detection_extends_but_never_starts(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=3, ttl=3)
        tracker.step([det((0, 0, 10, 10), score=0.3)], 1)
        assert tracker.tracks == []
        tracker.step([det((0, 0, 10, 10), score=0.5)], 2)
        confirmed = []
        for frame in (3, 4):
            confirmed += tracker.step([det((1, 0, 11, 10), score=0.3)], frame)
        assert [(t.track_id, t.length) for t in tracker.tracks] == [(0, 3)]
        assert [tid for tid, _ in confirmed] == [0]

    def test_ttl_drops_stale_tracks(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=5, ttl=2)
        tracker.step([det((0, 0, 10, 10))], 1)
        for frame in range(2, 5):
            tracker.step([], frame)
        assert tracker.tracks == []

    def test_track_never_confirms_twice(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=2, ttl=3)
        bbox = (0, 0, 10, 10)
        confirmed = []
        for frame in range(1, 20):
            confirmed += tracker.step([det(bbox)], frame)
        assert len(confirmed) == 1

    def test_non_monotonic_frame_rejected(self):
        tracker = IoUTracker(iou_threshold=0.5, min_track_length=5, ttl=3)
        tracker.step([], 5)
        with pytest.raises(NonMonotonicFrame):
            tracker.step([], 5)

    def test_deterministic_ids(self):
        rng = np.random.default_rng(3)
        frames = []
        for _ in range(30):
            n = rng.integers(0, 4)
            boxes = []
            for _ in range(n):
                x0, y0 = rng.uniform(0, 100, 2)
                w, h = rng.uniform(5, 40, 2)
                boxes.append((x0, y0, x0 + w, y0 + h))
            frames.append([det(b, label=str(rng.choice(["a", "b"])))
                           for b in boxes])
        runs = []
        for _ in range(2):
            tracker = IoUTracker(iou_threshold=0.5, min_track_length=2, ttl=3)
            out = []
            for i, dets in enumerate(frames):
                out.append([(tid, d.bbox) for tid, d in tracker.step(dets, i)])
            runs.append(out)
        assert runs[0] == runs[1]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_all_pairs_greedy(self, seed):
        """Same tracks and confirmations as scoring every same-class
        (track, detection) pair, touching and disjoint boxes included; new
        tracks are the unmatched detections that score at least the start
        score, in detection order."""
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(20):
            boxes = []
            for _ in range(rng.integers(0, 7)):
                # integer corners on a coarse grid make shared edges common
                x0, y0 = rng.integers(0, 12, 2) * 5.0
                w, h = rng.integers(1, 5, 2) * 5.0
                boxes.append((x0, y0, x0 + w, y0 + h))
            frames.append([det(b, label=str(rng.choice(["a", "b", "c"])),
                               score=float(rng.choice(SCORES)))
                           for b in boxes])
        tracker = IoUTracker(iou_threshold=0.3, min_track_length=2, ttl=1)
        for i, dets in enumerate(frames):
            expected = reference_matches(tracker, dets)
            tracker.step(dets, i)
            got = {t.track_id: t.last_detection_index for t in tracker.tracks
                   if t.misses == 0 and t.length > 1}
            assert got == expected
            started = [t.last_detection_index for t in tracker.tracks
                       if t.length == 1 and t.misses == 0]
            assert started == [
                di for di, d in enumerate(dets)
                if di not in expected.values()
                and d.score >= IoUTracker.START_SCORE]

    @given(seed=st.integers(0, 2**32 - 1), min_length=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_confirmations_follow_the_stored_flag_rule(self, seed,
                                                       min_length):
        """Confirmations are those of a per-track flag set the first step a
        matched or new track's length reaches the threshold."""
        rng = np.random.default_rng(seed)
        tracker = IoUTracker(iou_threshold=0.3, min_track_length=min_length,
                             ttl=1)
        flagged = set()
        for i in range(30):
            dets = []
            for _ in range(rng.integers(0, 6)):
                x0, y0 = rng.integers(0, 6, 2) * 10.0
                w, h = rng.integers(2, 5, 2) * 10.0
                dets.append(det((x0, y0, x0 + w, y0 + h),
                                label=str(rng.choice(["a", "b"])),
                                score=float(rng.choice(SCORES))))
            got = tracker.step(dets, i)
            expected = []
            for track in tracker.tracks:
                if (track.last_detection_index is not None
                        and track.track_id not in flagged
                        and track.length >= min_length):
                    flagged.add(track.track_id)
                    expected.append(
                        (track.track_id, dets[track.last_detection_index]))
            assert sorted(got, key=lambda c: c[0]) == expected


def reference_matches(tracker, dets):
    """Greedy global-best matching over all same-class pairs, before the
    step: {track_id: detection index}."""
    pairs = sorted(
        (-iou(t.last_bbox, d.bbox), t.track_id, di)
        for t in tracker.tracks for di, d in enumerate(dets)
        if d.class_label == t.class_label
        and iou(t.last_bbox, d.bbox) >= tracker.iou_threshold)
    matched, used = {}, set()
    for _, tid, di in pairs:
        if tid not in matched and di not in used:
            matched[tid] = di
            used.add(di)
    return matched


@functools.cache
def detection_stream(name: str) -> list:
    """Each frame's detections of the scenario tests/data/{name}.json."""
    sc = Scenario.from_json(DATA_DIR / f"{name}.json")
    return [synthesize_frame_data(sc, i)[0].detections
            for i in range(sc.num_frames)]


class TestReplay:
    """The tracker and a copy of its step from before it took min and max by
    comparison agree on every frame of a shipped detection stream.
    tabletop_sweep's false positives score 0.3, so at start score 0.5 they
    extend tracks but start none."""

    @staticmethod
    def state(tracker):
        return [(t.track_id, t.last_bbox, t.length, t.misses,
                 t.last_detection_index) for t in tracker.tracks]

    @pytest.mark.parametrize("threshold, min_length, ttl",
                             [(0.5, 5, 3), (0.3, 1, 0), (0.7, 3, 5)])
    @pytest.mark.parametrize("name, start_score", [
        ("cluttered_drift", 0.5), ("tabletop_sweep", 0.0),
        ("tabletop_sweep", 0.5)])
    def test_matches_reference_step(self, monkeypatch, name, start_score,
                                    threshold, min_length, ttl):
        monkeypatch.setattr(IoUTracker, "START_SCORE", start_score)
        stream = detection_stream(name)
        tracker = IoUTracker(threshold, min_length, ttl)
        reference = ReferenceTracker(threshold, min_length, ttl)
        confirmed = 0
        for i, dets in enumerate(stream):
            got = tracker.step(dets, i)
            assert got == reference.step(dets, i)
            assert self.state(tracker) == self.state(reference)
            confirmed += len(got)
        assert confirmed > 0


class TestFalsePositiveFlood:
    def test_false_positives_start_no_tracks(self, monkeypatch):
        """desk_orbit at 100 false positives a frame, all scoring 0.3: the
        tracker holds only the five objects' tracks, and the map only the
        five objects. Every false positive used to start a track that
        lived `ttl` frames: ~380 live tracks a frame, whose cost grew with
        the square of the rate, and 14 of them registered."""
        d = json.loads((SCENARIO_DIR / "desk_orbit.json").read_text())
        d["noise"]["false_positive_rate"] = 100
        live = []
        step = IoUTracker.step

        def counted(self, detections, frame_id):
            out = step(self, detections, frame_id)
            live.append(len(self.tracks))
            return out

        monkeypatch.setattr(IoUTracker, "step", counted)
        scenario = Scenario.from_dict(d)
        _, metrics, _ = run_scenario_detailed(scenario)
        assert len(live) == scenario.num_frames
        assert max(live) <= 5
        assert metrics.registered_count == 5
        assert metrics.precision == 1.0
