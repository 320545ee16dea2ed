"""IoU-based multi-object tracker over 2D detections.

Detections of equal class are associated frame-to-frame by bounding box
overlap. Every detection can extend a live track, but only one scoring at
least a start score can start one: a detector's low-confidence boxes, most
of its false positives, never become tracks (ByteTrack's rule, Zhang et
al., arXiv 2110.06864). A track is confirmed on the step its length, the
number of detections it holds, reaches a threshold; length grows by one
per match, so that happens exactly once. Short-lived tracks never confirm
and are dropped after a few missed frames.
"""

from __future__ import annotations

import math
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
        # NaN fails every comparison, so this also rejects it
        if not (-math.inf < x0 < x1 < math.inf
                and -math.inf < y0 < y1 < math.inf):
            raise ValueError(
                f"bbox {self.bbox} is not finite with x0 < x1 and y0 < y1")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown detection kind {self.kind!r}")
        object.__setattr__(self, "bbox",
                           (float(x0), float(y0), float(x1), float(y1)))


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
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    # min and max as conditional expressions, with the builtins' tie rule
    # (the first argument wins), so that every score keeps its bits
    iw = (ax1 if ax1 <= bx1 else bx1) - (ax0 if ax0 >= bx0 else bx0)
    ih = (ay1 if ay1 <= by1 else by1) - (ay0 if ay0 >= by0 else by0)
    if not (iw > 0.0 and ih > 0.0):
        return 0.0
    inter = iw * ih
    if inter == 0.0:  # the product underflowed
        return 0.0
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    return inter / (area_a + area_b - inter)


class IoUTracker:
    """Greedy global-best IoU association with class gating.

    Every detection takes part in the association. An unmatched one starts
    a track only if its score is at least `START_SCORE`. Deterministic:
    ties on IoU break toward the lower track id, then the earlier
    detection; new track ids are assigned in detection order.
    """

    # the least score of a detection that starts a track; the frame source
    # scores its objects 1.0 and its false positives 0.3
    START_SCORE = 0.5

    def __init__(self, iou_threshold: float, min_track_length: int, ttl: int):
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

    def check_frame(self, frame_id: int):
        """NonMonotonicFrame unless `frame_id` follows the last step's."""
        if self._last_frame is not None and frame_id <= self._last_frame:
            raise NonMonotonicFrame(
                f"frame {frame_id} after frame {self._last_frame}")

    def step(self, detections, frame_id: int):
        """Advance one frame; returns [(track_id, Detection2D)] confirmations."""
        self.check_frame(frame_id)
        self._last_frame = frame_id

        # per class: (index, x0, y0, x1, y1, bbox) of each detection
        boxes_by_class: dict[str, list] = {}
        for di, det in enumerate(detections):
            boxes_by_class.setdefault(det.class_label, []).append(
                (di, *det.bbox, det.bbox))
        threshold = self.iou_threshold
        pairs = []
        for track in self.tracks:
            boxes = boxes_by_class.get(track.class_label)
            if boxes is None:
                continue
            tx0, ty0, tx1, ty1 = box = track.last_bbox
            track_id = track.track_id
            for di, x0, y0, x1, y1, bbox in boxes:
                # disjoint boxes have IoU 0, below any threshold
                if x0 >= tx1 or x1 <= tx0 or y0 >= ty1 or y1 <= ty0:
                    continue
                score = iou(box, bbox)
                if score >= threshold:
                    pairs.append((-score, track_id, di))
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
            di = matched_tracks.get(track.track_id)
            if di is not None:
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

        start_score = self.START_SCORE
        for di, det in enumerate(detections):
            if di in matched_dets or det.score < start_score:
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

