"""3D semantic object registry with recognition and correction-driven merging.

Object geometry is stored as keyframe-local observations so that a corrected
trajectory can re-derive world geometry retroactively. Re-sightings are
recognized by comparing whole point clouds (symmetric average nearest
neighbor distance), not centroids, so object extent participates in the
association decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

import numpy as np

from .config import PipelineConfig
from .errors import ClassMismatch, EmptyCloud, NonFiniteCloud, UnknownKeyframe
from .geometry import PointCloud, RigidPose, _trusted, voxel_downsample


# Pairs per block of the nearest-neighbour scan: the block's two arrays of
# float64 stay near 1 MB however large the clouds are.
_BLOCK_PAIRS = 1 << 16
# meters added to `assoc_dist` before an AABB gap rules an object out
_AABB_MARGIN = 1e-9


def _bounds(points: np.ndarray) -> tuple:
    """`(points.min(axis=0), points.max(axis=0))` of an (N, 3) array as two
    lists of Python floats, bit for bit, taken over a contiguous (3, N)
    copy: a reduction along rows of C-order points runs in inner loops of
    length 3, ~7x slower at 1,200 points. Min and max are exact either
    way, except that the two forms may pick different zeros from a column
    holding both 0.0 and -0.0, so a zero bound is taken the axis-0 way."""
    cols = np.ascontiguousarray(points.T)
    lo, hi = cols.min(axis=1).tolist(), cols.max(axis=1).tolist()
    if 0.0 in lo + hi:  # -0.0 == 0.0 too
        return points.min(axis=0).tolist(), points.max(axis=0).tolist()
    return lo, hi


def _nearest_sq_distances_both(a: np.ndarray, b: np.ndarray):
    """Squared distance from each point of `a` to its nearest point of `b`,
    and from each point of `b` to its nearest point of `a`.

    One exact scan over blocks of rows of `a`: each block's squared
    distances give the a->b minima along rows and a running minimum of
    the b->a minima along columns. A squared distance is (dx² + dy²) + dz²,
    the order in which `((p - q) ** 2).sum(-1)` adds an (n, m, 3) array,
    and (a_i - b_j)² equals (b_j - a_i)² exactly, so both directions are
    bitwise those of two separate brute-force scans.
    """
    rows = max(1, _BLOCK_PAIRS // len(b))
    bx, by, bz = b.T
    a_to_b, b_to_a = [], None
    for start in range(0, len(a), rows):
        ax, ay, az = a[start:start + rows].T[:, :, None]
        d2 = ax - bx
        d2 *= d2
        diff = ay - by
        diff *= diff
        d2 += diff
        diff = az - bz
        diff *= diff
        d2 += diff
        a_to_b.append(d2.min(1))
        col = d2.min(0)
        b_to_a = col if b_to_a is None else np.minimum(b_to_a, col, out=b_to_a)
    return (a_to_b[0] if len(a_to_b) == 1 else np.concatenate(a_to_b),
            b_to_a)


def chamfer_distance(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance between two clouds, meters."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("chamfer distance needs non-empty clouds")
    a_to_b, b_to_a = _nearest_sq_distances_both(a.points, b.points)
    # sqrt is correctly rounded and monotone, so sqrt(min) == min(sqrt).
    # Each mean is np.mean's own sum and division, without its overhead.
    return 0.5 * (float(np.add.reduce(np.sqrt(a_to_b, out=a_to_b))) / len(a)
                  + float(np.add.reduce(np.sqrt(b_to_a, out=b_to_a)))
                  / len(b))


def overlap_ratio(a: np.ndarray, b: np.ndarray, radius: float) -> float:
    """Fraction of the smaller cloud's points within `radius` of the larger."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("overlap ratio needs non-empty clouds")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    d2, _ = _nearest_sq_distances_both(small, large)
    return int(np.count_nonzero(d2 <= radius * radius)) / len(small)


@dataclass
class Observation:
    """One sighting: points as its keyframe's camera measured them."""
    keyframe_id: int
    local: np.ndarray
    pose: RigidPose | None = None  # the keyframe pose `world` was mapped by
    world: np.ndarray | None = None


@dataclass
class SemanticObject:
    object_id: int
    class_label: str
    observations: list = field(default_factory=list)  # Observation each
    world_points: np.ndarray | None = None
    # (min, max) of the world points, three Python floats each
    bounds: tuple | None = None
    # True while `world_points` is every observation's world points,
    # uncapped, each mapped by its keyframe's present pose
    appendable: bool = False

    @property
    def world_cloud(self) -> PointCloud:
        return _trusted(PointCloud, points=self.world_points)

    @property
    def aabb(self) -> tuple:
        """`bounds` as (min 3-vector, max 3-vector)."""
        return np.array(self.bounds[0]), np.array(self.bounds[1])

    @property
    def centroid(self) -> np.ndarray:
        """Mean of the world points, computed when read: only the export
        and the map metrics read it."""
        return self.world_points.mean(axis=0)

    def rebuild(self, keyframes: dict, leaf: float, max_points: int):
        """Recompute the cached world cloud from keyframe-local observations,
        transforming only those whose keyframe pose is not the very pose
        their world points were mapped by: a merge transforms nothing more,
        and a correction what it moved."""
        self._rebuild(self.observations, keyframes, leaf, max_points)

    def add(self, obs: Observation, bounds: tuple, keyframes: dict,
            leaf: float, max_points: int):
        """Add a sighting whose world points its keyframe's present pose
        mapped, and whose `_bounds` are `bounds`. An appendable object
        within `max_points` appends them, and its AABB becomes the running
        min and max, which is exact. A bound of ±0.0, whose sign `_bounds`
        takes from the whole cloud, and any other object rebuild."""
        lo, hi = bounds
        if (self.appendable
                and len(self.world_points) + len(obs.world) <= max_points
                and 0.0 not in self.bounds[0] + self.bounds[1] + lo + hi):
            self.world_points = np.concatenate((self.world_points, obs.world))
            self.bounds = (list(map(min, self.bounds[0], lo)),
                           list(map(max, self.bounds[1], hi)))
            self.observations.append(obs)
        else:
            self._rebuild(self.observations + [obs], keyframes, leaf,
                          max_points)

    def _rebuild(self, observations: list, keyframes: dict, leaf: float,
                 max_points: int):
        """Make `observations` this object's and derive its geometry from
        them. NonFiniteCloud if the capped cloud's centroids overflow; the
        object then keeps its observations and geometry, and only the
        world points cached in a moved observation are brought up to date."""
        for obs in observations:
            pose = keyframes[obs.keyframe_id]
            if obs.pose is not pose:
                obs.pose, obs.world = pose, pose.transform(obs.local)
        world = np.concatenate([obs.world for obs in observations])
        capped = len(world) > max_points
        if capped:
            world = voxel_downsample(PointCloud(world), leaf).points
        self.observations = observations
        self.world_points = world
        self.bounds = _bounds(world)
        self.appendable = not capped


@dataclass
class MergeReport:
    pairs: list  # (survivor_id, absorbed_id)
    objects_before: int
    objects_after: int

    def to_dict(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "objects_before": self.objects_before,
            "objects_after": self.objects_after,
        }


class SemanticMap:
    """Registry of keyframes and semantic objects. Single-writer."""

    def __init__(self, config: PipelineConfig | None = None):
        config = config or PipelineConfig()
        self.assoc_dist = config.assoc_dist_m
        self.merge_overlap = config.merge_overlap_ratio
        self.overlap_radius = config.overlap_radius_m
        self.voxel_leaf = config.voxel_leaf_m
        self.max_cloud_points = config.max_cloud_points
        self.keyframes: dict[int, RigidPose] = {}
        self.objects: dict[int, SemanticObject] = {}
        self._next_object_id = 0

    def add_keyframe(self, keyframe_id: int, pose: RigidPose):
        if keyframe_id in self.keyframes:
            # a replaced pose may move any object's points: none is
            # appended to until a rebuild re-derives it
            for obj in self.objects.values():
                obj.appendable = False
        self.keyframes[keyframe_id] = pose

    def check_keyframes(self, keyframe_ids, adding=()):
        """UnknownKeyframe for the first id that is neither registered nor
        in `adding`, the ids about to be added."""
        for kf_id in keyframe_ids:
            if kf_id not in self.keyframes and kf_id not in adding:
                raise UnknownKeyframe(f"keyframe {kf_id} not registered")

    def associate(self, candidate: PointCloud, class_label: str,
                  bounds: tuple | None = None) -> int | None:
        """Nearest same-class object by chamfer distance, if close enough.
        `bounds` is the candidate's `_bounds`, if the caller has taken it.

        Every nearest-neighbour distance between two clouds is at least the
        gap between their AABBs on any one axis, so their chamfer distance
        is too. An object whose AABB lies farther than `assoc_dist` from
        the candidate's on some axis can therefore not be the match, nor
        change which object is, and its chamfer scan is skipped. The
        margin keeps rounding from flipping a decision.
        """
        if len(candidate) == 0:
            raise EmptyCloud("empty candidate cloud")
        lo, hi = bounds or _bounds(candidate.points)
        reach = self.assoc_dist + _AABB_MARGIN
        best_id = None
        best_dist = np.inf
        for obj_id in sorted(self.objects):
            obj = self.objects[obj_id]
            if obj.class_label != class_label:
                continue
            obj_lo, obj_hi = obj.bounds
            # the gap on each axis, either way round
            if max(map(sub, lo + obj_lo, obj_hi + hi)) > reach:
                continue
            d = chamfer_distance(candidate, obj.world_cloud)
            if d < best_dist:
                best_dist = d
                best_id = obj_id
        if best_id is not None and best_dist <= self.assoc_dist:
            return best_id
        return None

    def register_candidate(self, local: np.ndarray, class_label: str,
                           keyframe_id: int) -> int:
        """Add a detection's keyframe-local (N, 3) points, kept if read-only
        and copied if not, to a recognized object or a new one. They are
        mapped to world once. The object's new geometry, or the new object,
        is computed before anything is committed: NonFiniteCloud with the
        map unchanged if the points overflow, to world or in the capped
        cloud's centroids."""
        self.check_keyframes((keyframe_id,))
        if not isinstance(local, np.ndarray) or local.flags.writeable:
            local = np.array(local, dtype=np.float64)  # the caller may edit it
        if local.ndim != 2 or local.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {local.shape}")
        pose = self.keyframes[keyframe_id]
        with np.errstate(over="ignore", invalid="ignore"):
            world = pose.transform(local)
        try:
            candidate = PointCloud(world)
        except ValueError as err:  # finite points can overflow
            raise NonFiniteCloud(err) from None
        bounds = _bounds(candidate.points)
        match = self.associate(candidate, class_label, bounds)
        obj = (self.objects[match] if match is not None
               else SemanticObject(self._next_object_id, class_label))
        obj.add(Observation(keyframe_id, local, pose, candidate.points),
                bounds, self.keyframes, self.voxel_leaf,
                self.max_cloud_points)
        if match is None:
            self.objects[obj.object_id] = obj
            self._next_object_id += 1
        return obj.object_id

    def merge_objects(self, survivor: SemanticObject,
                      absorbed: SemanticObject) -> SemanticObject:
        if survivor.class_label != absorbed.class_label:
            raise ClassMismatch(
                f"{survivor.class_label!r} vs {absorbed.class_label!r}"
            )
        if survivor is absorbed:
            raise ValueError(f"object {survivor.object_id} cannot absorb itself")
        survivor._rebuild(survivor.observations + absorbed.observations,
                          self.keyframes, self.voxel_leaf,
                          self.max_cloud_points)
        return survivor

    def _merge_pass(self) -> list:
        """Merge same-class objects whose clouds saliently overlap; returns
        the (survivor_id, absorbed_id) pairs in merge order.

        A scan that restarts after each merge: the next merge is the first
        pair, in `(id_a, id_b)` order of sorted ids, whose AABBs lie
        within `overlap_radius` and whose `overlap_ratio` reaches
        `merge_overlap`; the lower id survives. A pair that falls short
        leaves the candidates. A merge changes only its survivor, so its
        row and column are recomputed and every other failure still
        holds: each pair's ratio is taken once per change of its objects.
        """
        ids = sorted(self.objects)
        n = len(ids)
        objs = [self.objects[i] for i in ids]
        codes = {}
        cls = np.array([codes.setdefault(o.class_label, len(codes))
                        for o in objs])
        # one row per axis: a test over the axes combines rows of length n
        lo = np.array([o.bounds[0] for o in objs]).T
        reach = np.array([o.bounds[1] for o in objs]).T + self.overlap_radius
        index = np.arange(n)
        # below[i, j]: object i's box starts within the radius of j's end
        below = np.ones((n, n), dtype=bool)
        for lo_k, reach_k in zip(lo, reach):
            below &= lo_k[:, None] <= reach_k
        # candidate[i, j], i < j: same class, AABBs within the radius, and
        # no failed ratio since i or j last changed
        candidate = ((cls[:, None] == cls) & below & below.T
                     & (index[:, None] < index))
        pairs = []
        while True:
            for a, b in np.argwhere(candidate).tolist():
                if overlap_ratio(objs[a].world_points, objs[b].world_points,
                                 self.overlap_radius) >= self.merge_overlap:
                    break
                candidate[a, b] = False
            else:
                return pairs
            survivor = self.merge_objects(objs[a], objs[b])
            del self.objects[ids[b]]
            pairs.append((ids[a], ids[b]))
            cls[b] = -1  # matches nothing
            candidate[b] = candidate[:, b] = False
            lo[:, a] = survivor.bounds[0]
            reach[:, a] = np.add(survivor.bounds[1], self.overlap_radius)
            near = (cls == cls[a]) & np.logical_and.reduce(
                (lo[:, a, None] <= reach) & (lo <= reach[:, a, None]))
            candidate[a] = near & (index > a)
            candidate[:, a] = near & (index < a)

    def apply_trajectory_correction(self, corrected) -> MergeReport:
        """Replace keyframe poses, re-derive the geometry of the objects
        whose keyframes moved, then merge same-class objects whose
        corrected clouds saliently overlap. An object whose observations
        all keep the keyframe pose that mapped them would rebuild to the
        same bits, so it is left as it is."""
        self.check_keyframes(kf_id for kf_id, _pose in corrected)
        for kf_id, pose in corrected:
            self.keyframes[kf_id] = pose
        for obj in self.objects.values():
            if any(obs.pose is not self.keyframes[obs.keyframe_id]
                   for obs in obj.observations):
                obj.rebuild(self.keyframes, self.voxel_leaf,
                            self.max_cloud_points)
        before = len(self.objects)
        pairs = self._merge_pass()
        return MergeReport(pairs, before, len(self.objects))

    def export(self) -> dict:
        return {"objects": [{
            "id": obj.object_id,
            "class": obj.class_label,
            "centroid": obj.centroid.tolist(),
            "aabb": {"min": obj.aabb[0].tolist(), "max": obj.aabb[1].tolist()},
            "num_points": len(obj.world_points),
            "num_observations": len(obj.observations),
        } for _, obj in sorted(self.objects.items())]}

