import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semmap.errors import NonMonotonicFrame
from semmap.tracker import Detection2D, IoUTracker, iou, read_detection_log


def det(bbox, label="cup", kind="object"):
    return Detection2D(bbox=bbox, class_label=label, kind=kind)


rects = st.tuples(
    st.floats(0, 500), st.floats(0, 500),
    st.floats(1, 300), st.floats(1, 300),
).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


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


class TestDetection2D:
    def test_face_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown detection kind"):
            det((0, 0, 10, 10), kind="face")


class TestStep:
    def test_single_confirmation_at_threshold(self):
        tracker = IoUTracker(min_track_length=5)
        bbox = (10, 10, 50, 50)
        confirmed = []
        for frame in range(1, 9):
            confirmed += tracker.step([det(bbox)], frame)
        assert len(confirmed) == 1
        track_id, d = confirmed[0]
        assert d.bbox == bbox
        # confirmation lands exactly on the 5th sighting
        tracker2 = IoUTracker(min_track_length=5)
        for frame in range(1, 5):
            assert tracker2.step([det(bbox)], frame) == []
        assert len(tracker2.step([det(bbox)], 5)) == 1

    def test_short_track_never_confirms(self):
        tracker = IoUTracker(min_track_length=5, ttl=3)
        confirmed = []
        for frame in range(1, 5):
            confirmed += tracker.step([det((0, 0, 5, 5))], frame)
        for frame in range(5, 20):
            confirmed += tracker.step([], frame)
        assert confirmed == []

    def test_class_gating_keeps_tracks_disjoint(self):
        tracker = IoUTracker(min_track_length=3)
        bbox = (10, 10, 40, 40)
        confirmed = []
        for frame in range(1, 6):
            confirmed += tracker.step(
                [det(bbox, "cup"), det(bbox, "book")], frame)
        labels = sorted(d.class_label for _, d in confirmed)
        assert labels == ["book", "cup"]
        assert len({tid for tid, _ in confirmed}) == 2

    def test_matching_is_injective(self):
        tracker = IoUTracker(min_track_length=2)
        dets = [det((0, 0, 10, 10)), det((1, 0, 11, 10))]
        tracker.step(dets, 1)
        tracker.step(dets, 2)
        indices = [t.last_detection_index for t in tracker.tracks]
        assert sorted(indices) == [0, 1]

    def test_low_iou_spawns_new_track(self):
        tracker = IoUTracker(iou_threshold=0.5)
        tracker.step([det((0, 0, 10, 10))], 1)
        tracker.step([det((8, 0, 18, 10))], 2)  # IoU = 2/18 < 0.5
        assert len(tracker.tracks) == 2

    def test_ttl_drops_stale_tracks(self):
        tracker = IoUTracker(ttl=2)
        tracker.step([det((0, 0, 10, 10))], 1)
        for frame in range(2, 5):
            tracker.step([], frame)
        assert tracker.tracks == []

    def test_track_never_confirms_twice(self):
        tracker = IoUTracker(min_track_length=2)
        bbox = (0, 0, 10, 10)
        confirmed = []
        for frame in range(1, 20):
            confirmed += tracker.step([det(bbox)], frame)
        assert len(confirmed) == 1

    def test_non_monotonic_frame_rejected(self):
        tracker = IoUTracker()
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
            tracker = IoUTracker(min_track_length=2)
            out = []
            for i, dets in enumerate(frames):
                out.append([(tid, d.bbox) for tid, d in tracker.step(dets, i)])
            runs.append(out)
        assert runs[0] == runs[1]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_all_pairs_greedy(self, seed):
        """Same tracks and confirmations as scoring every same-class
        (track, detection) pair, touching and disjoint boxes included."""
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(20):
            boxes = []
            for _ in range(rng.integers(0, 7)):
                # integer corners on a coarse grid make shared edges common
                x0, y0 = rng.integers(0, 12, 2) * 5.0
                w, h = rng.integers(1, 5, 2) * 5.0
                boxes.append((x0, y0, x0 + w, y0 + h))
            frames.append([det(b, label=str(rng.choice(["a", "b", "c"])))
                           for b in boxes])
        tracker = IoUTracker(iou_threshold=0.3, min_track_length=2, ttl=1)
        for i, dets in enumerate(frames):
            expected = reference_matches(tracker, dets)
            tracker.step(dets, i)
            got = {t.track_id: t.last_detection_index for t in tracker.tracks
                   if t.last_frame == i and t.length > 1}
            assert got == expected


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


def test_detection_log_round_trip(tmp_path):
    path = tmp_path / "dets.jsonl"
    rows = [
        {"frame": 0, "detections": [
            {"kind": "object", "class": "cup", "score": 0.9,
             "bbox": [1, 2, 3, 4]}]},
        {"frame": 1, "detections": []},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    parsed = list(read_detection_log(path))
    assert parsed[0][0] == 0
    assert parsed[0][1][0].class_label == "cup"
    assert parsed[0][1][0].bbox == (1.0, 2.0, 3.0, 4.0)
    assert parsed[1] == (1, [])



@pytest.mark.parametrize("line, error", [
    ('{"frame": 0, "detections": [{"class": "cup", "bbox": [1, 2, 3, 4], '
     '"colour": "red"}]}', "unknown detection keys: colour"),
    ('{"frame": 0, "detections": [{"class": "cup"}]}', "bad detection"),
    ('[0, []]', "line 3 must be a JSON object"),
    ('{"frame": 0, "detections": [', "malformed detection log line 3"),
], ids=["unknown_key", "no_bbox", "not_object", "bad_json"])
def test_detection_log_rejects_malformed_record(tmp_path, line, error):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"frame": 0, "detections": []}\n\n' + line + "\n")
    with pytest.raises(ValueError, match=error):
        list(read_detection_log(path))
