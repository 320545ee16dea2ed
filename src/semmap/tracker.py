"""IoU-based multi-object tracker over 2D detections.

Detections of equal class are associated frame-to-frame by bounding box
overlap. A track is confirmed on the step its length, the number of
detections it holds, reaches a threshold; length grows by one per match, so
that happens exactly once. Short-lived tracks (typically false positives)
never confirm and are dropped after a few missed frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonMonotonicFrame

KIND_OBJECT = "object"
KIND_PERSON = "person"
_KINDS = (KIND_OBJECT, KIND_PERSON)


@dataclass(frozen=True)
class Detection2D:
    bbox: tuple  # (x_min, y_min, x_max, y_max) in pixels
    class_label: str
    score: float = 1.0
    kind: str = KIND_OBJECT

    def __post_init__(self):
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate bbox {self.bbox}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown detection kind {self.kind!r}")
        object.__setattr__(self, "bbox", tuple(float(c) for c in self.bbox))


@dataclass
class Track:
    track_id: int
    class_label: str
    kind: str
    last_bbox: tuple
    length: int = 1
    misses: int = 0  # 0 exactly when matched or started at the last step
    last_detection_index: int | None = None


def iou(a, b) -> float:
    """Intersection-over-union of two (x0, y0, x1, y1) rects."""
    ix0 = max(a[0], b[0])
    iy0 = max(a[1], b[1])
    ix1 = min(a[2], b[2])
    iy1 = min(a[3], b[3])
    iw = max(0.0, ix1 - ix0)
    ih = max(0.0, iy1 - iy0)
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


class IoUTracker:
    """Greedy global-best IoU association with class gating.

    Deterministic: ties on IoU break toward the lower track id, then the
    earlier detection; new track ids are assigned in detection order.
    """

    def __init__(self, iou_threshold: float = 0.5, min_track_length: int = 5,
                 ttl: int = 3):
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")
        if min_track_length < 1 or ttl < 0:
            raise ValueError("min_track_length >= 1 and ttl >= 0 required")
        self.iou_threshold = iou_threshold
        self.min_track_length = min_track_length
        self.ttl = ttl
        self.tracks: list[Track] = []
        self._next_id = 0
        self._last_frame: int | None = None

    def step(self, detections, frame_id: int):
        """Advance one frame; returns [(track_id, Detection2D)] confirmations."""
        if self._last_frame is not None and frame_id <= self._last_frame:
            raise NonMonotonicFrame(
                f"frame {frame_id} after frame {self._last_frame}"
            )
        self._last_frame = frame_id

        boxes_by_class: dict[str, list] = {}
        for di, det in enumerate(detections):
            boxes_by_class.setdefault(det.class_label, []).append(
                (di, det.bbox))
        pairs = []
        for track in self.tracks:
            tx0, ty0, tx1, ty1 = box = track.last_bbox
            for di, bbox in boxes_by_class.get(track.class_label, ()):
                # disjoint boxes have IoU 0, below any threshold
                if (bbox[0] >= tx1 or bbox[2] <= tx0
                        or bbox[1] >= ty1 or bbox[3] <= ty0):
                    continue
                score = iou(box, bbox)
                if score >= self.iou_threshold:
                    pairs.append((-score, track.track_id, di))
        pairs.sort()

        matched_tracks: dict[int, int] = {}
        matched_dets: set[int] = set()
        for neg, track_id, di in pairs:
            if track_id in matched_tracks or di in matched_dets:
                continue
            matched_tracks[track_id] = di
            matched_dets.add(di)

        confirmations = []
        survivors = []
        for track in self.tracks:
            if track.track_id in matched_tracks:
                di = matched_tracks[track.track_id]
                det = detections[di]
                track.last_bbox = det.bbox
                track.length += 1
                track.misses = 0
                track.last_detection_index = di
                survivors.append(track)
                if track.length == self.min_track_length:
                    confirmations.append((track.track_id, det))
            else:
                track.misses += 1
                track.last_detection_index = None
                if track.misses <= self.ttl:
                    survivors.append(track)
        self.tracks = survivors

        for di, det in enumerate(detections):
            if di in matched_dets:
                continue
            track = Track(
                track_id=self._next_id,
                class_label=det.class_label,
                kind=det.kind,
                last_bbox=det.bbox,
                last_detection_index=di,
            )
            self._next_id += 1
            self.tracks.append(track)
            if track.length == self.min_track_length:
                confirmations.append((track.track_id, det))
        return confirmations

