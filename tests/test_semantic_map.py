import copy
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semmap.config import PipelineConfig
from semmap.errors import (
    ClassMismatch,
    EmptyCloud,
    NonFiniteCloud,
    UnknownKeyframe,
)
from semmap import semantic_map
from semmap.geometry import (
    DepthImage,
    PointCloud,
    RigidPose,
    extract_object_cloud,
)
from semmap.semantic_map import (
    Observation,
    SemanticMap,
    SemanticObject,
    _bounds,
    chamfer_distance,
    overlap_ratio,
)
from semmap.simulator import Scenario, run_scenario_detailed

import conftest
from conftest import (
    brute_force_chamfer,
    brute_force_overlap,
    random_pose,
    reference_apply_trajectory_correction,
    reference_associate,
    reference_rebuild,
)

ROOT = Path(__file__).resolve().parent.parent


class TestChamfer:
    def test_identical_clouds(self):
        a = PointCloud([[0, 0, 0], [1, 2, 3]])
        assert chamfer_distance(a, a) == 0.0

    def test_single_points(self):
        assert chamfer_distance(PointCloud([[0, 0, 0]]),
                                PointCloud([[1, 0, 0]])) == 1.0

    def test_hand_case(self):
        a = PointCloud([[0, 0, 0], [1, 0, 0]])
        b = PointCloud([[0, 0, 0]])
        assert chamfer_distance(a, b) == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            chamfer_distance(PointCloud(np.empty((0, 3))),
                             PointCloud([[0, 0, 0]]))

    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.tuples(st.integers(1, 80), st.integers(1, 80)))
    # more than _BLOCK_PAIRS pairs: the b->a minima run across two blocks
    @example(seed=0, sizes=(300, 300))
    # len(b) > _BLOCK_PAIRS: every block holds one row of a
    @example(seed=1, sizes=(4, semantic_map._BLOCK_PAIRS + 7))
    # exactly _BLOCK_PAIRS pairs: the largest pair one block covers
    @example(seed=2, sizes=(256, 256))
    # _BLOCK_PAIRS + 1 pairs (a prime): a block of 2**16 rows, then one
    @example(seed=3, sizes=(semantic_map._BLOCK_PAIRS + 1, 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_exactly(self, seed, sizes):
        rng = np.random.default_rng(seed)
        a, b = (rng.uniform(-2, 2, (n, 3)) for n in sizes)
        assert chamfer_distance(PointCloud(a), PointCloud(b)) \
            == brute_force_chamfer(a, b)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = PointCloud(rng.uniform(-1, 1, (rng.integers(1, 40), 3)))
        b = PointCloud(rng.uniform(-1, 1, (rng.integers(1, 40), 3)))
        d = chamfer_distance(a, b)
        assert d >= 0
        assert chamfer_distance(b, a) == d


class TestOverlapRatio:
    @given(seed=st.integers(0, 2**32 - 1),
           radius=st.sampled_from([0.05, 0.25, 1.0]),
           sizes=st.tuples(st.integers(1, 400), st.integers(1, 400)),
           jitter=st.booleans())
    # 400 x 400 points: more than 2**16 pairs, so a block boundary is crossed
    @example(seed=0, radius=0.25, sizes=(400, 400), jitter=False)
    # exactly _BLOCK_PAIRS pairs: the largest pair one block covers
    @example(seed=1, radius=0.25, sizes=(256, 256), jitter=True)
    # _BLOCK_PAIRS + 1 pairs: the scan goes from the one-point cloud, a
    # block of one row
    @example(seed=2, radius=0.25, sizes=(semantic_map._BLOCK_PAIRS + 1, 1),
             jitter=False)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_exactly(self, seed, radius, sizes, jitter):
        rng = np.random.default_rng(seed)
        # lattice coordinates put many pairs exactly `radius` apart
        a, b = (rng.integers(-4, 5, (n, 3)) * radius for n in sizes)
        if jitter:
            b = b + rng.uniform(-radius, radius, b.shape)
        assert overlap_ratio(a, b, radius) == brute_force_overlap(a, b, radius)

    @pytest.mark.parametrize("sizes", [(0, 3), (3, 0), (0, 0)])
    def test_empty_raises(self, sizes):
        a, b = (np.zeros((n, 3)) for n in sizes)
        with pytest.raises(EmptyCloud):
            overlap_ratio(a, b, 0.05)


class TestBounds:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
    # the axis-0 min of the last column is 0.0, the contiguous one -0.0
    @example(seed=4, n=9)
    # the same for the max of the first column
    @example(seed=14, n=9)
    @settings(max_examples=200, deadline=None)
    def test_bitwise_axis0_min_max_with_both_zeros(self, seed, n):
        rng = np.random.default_rng(seed)
        points = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(n, 3))
        lo, hi = _bounds(points)
        for got, want in ((lo, points.min(axis=0)),
                          (hi, points.max(axis=0))):
            got = np.array(got)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000))
    @settings(max_examples=50, deadline=None)
    def test_bitwise_axis0_min_max(self, seed, n):
        points = np.random.default_rng(seed).normal(0.0, 3.0, (n, 3))
        lo, hi = _bounds(points)
        assert np.array(lo).tobytes() == points.min(axis=0).tobytes()
        assert np.array(hi).tobytes() == points.max(axis=0).tobytes()


def make_map(**config):
    m = SemanticMap(PipelineConfig(**config))
    m.add_keyframe(0, RigidPose.identity())
    return m


def cube_cloud(center, n=60, half=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(np.asarray(center) + rng.uniform(-half, half, (n, 3)))


class TestAssociate:
    def test_empty_registry(self):
        m = make_map()
        assert m.associate(cube_cloud([0, 0, 1]), "cup") is None

    def test_close_same_class_matches(self):
        m = make_map()
        obj_id = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        assert m.associate(cube_cloud([0.05, 0, 1], seed=1), "cup") == obj_id

    def test_class_gating(self):
        m = make_map()
        m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        assert m.associate(cube_cloud([0, 0, 1]), "book") is None

    def test_far_same_class_object_is_not_scanned(self, monkeypatch):
        m = make_map()
        near = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        far = m.register_candidate(cube_cloud([2, 0, 1]).points, "cup", 0)
        scanned = []

        def spy(a, b):
            scanned.append(next(obj_id for obj_id, obj in m.objects.items()
                                if np.array_equal(obj.world_points,
                                                  b.points)))
            return chamfer_distance(a, b)

        monkeypatch.setattr(semantic_map, "chamfer_distance", spy)
        assert m.associate(cube_cloud([0.05, 0, 1], seed=1), "cup") == near
        assert scanned == [near]
        assert m.associate(cube_cloud([1.0, 0, 1], seed=2), "cup") is None
        assert scanned == [near]
        assert far not in scanned

    @given(seed=st.integers(0, 2**32 - 1),
           assoc_dist=st.sampled_from([0.05, 0.3, 1.0]),
           count=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    # a single point at exactly assoc_dist from a one-point object: the
    # chamfer distance equals the AABB gap, and the object still matches
    @example(seed=0, assoc_dist=0.3, count=0)
    def test_same_choice_as_scanning_every_object(self, seed, assoc_dist,
                                                  count):
        rng = np.random.default_rng(seed)
        m = make_map(assoc_dist_m=assoc_dist)
        if count == 0:
            m.register_candidate(np.array([[0.3, 0.0, 1.0]], float), "cup", 0)
            candidate = PointCloud([[0.0, 0.0, 1.0]])
        else:
            for _ in range(count):
                m.register_candidate(
                    cube_cloud(rng.uniform(-1, 1, 3), n=int(rng.integers(1, 40)),
                               half=rng.uniform(0.01, 0.3),
                               seed=int(rng.integers(1e6))).points,
                    str(rng.choice(["cup", "book"])), 0)
            candidate = cube_cloud(rng.uniform(-1, 1, 3),
                                   n=int(rng.integers(1, 40)),
                                   half=rng.uniform(0.01, 0.3),
                                   seed=int(rng.integers(1e6)))
        want = reference_associate(m, candidate, "cup")
        assert m.associate(candidate, "cup") == want
        if count == 0:
            assert want == 0


class TestRegisterCandidate:
    def test_second_sighting_extends_object(self):
        m = make_map()
        m.add_keyframe(1, RigidPose(np.eye(3), [0.1, 0, 0]))
        a = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        # the same cup from keyframe 1, 0.1 m to the right
        b = m.register_candidate(cube_cloud([-0.1, 0, 1], seed=1).points,
                                 "cup", 1)
        assert a == b
        assert len(m.objects) == 1
        assert len(m.objects[a].observations) == 2

    def test_distant_same_class_is_new_object(self):
        m = make_map()
        m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        m.register_candidate(cube_cloud([5, 0, 1]).points, "cup", 0)
        assert len(m.objects) == 2

    def test_first_registration(self):
        m = make_map()
        obj_id = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        assert len(m.objects) == 1
        assert len(m.objects[obj_id].observations) == 1

    def test_unknown_keyframe(self):
        m = make_map()
        with pytest.raises(UnknownKeyframe):
            m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 99)

    def test_fresh_sighting_is_the_measurement_mapped_once(self,
                                                           intrinsics):
        rng = np.random.default_rng(3)
        data = np.where(rng.uniform(size=(480, 640)) < 0.8,
                        rng.uniform(1.5, 2.5, (480, 640)), 0.0)
        local = extract_object_cloud((100, 80, 220, 200), DepthImage(data),
                                     intrinsics, stride=4)
        pose = random_pose(rng)
        m = SemanticMap()
        m.add_keyframe(0, pose)
        obj = m.objects[m.register_candidate(local, "cup", 0)]
        # the map stores what the camera measured, and maps it to world
        # once: no round trip through the keyframe's inverse
        assert obj.observations[0].local is local
        assert obj.world_points.tobytes() == pose.transform(local).tobytes()

    def test_caller_array_changed_later_leaves_the_map_as_it_was(self):
        m = make_map()
        pts = np.array([[0.0, 0.0, 1.0], [0.01, 0.0, 1.0]])
        m.register_candidate(pts, "cup", 0)
        pts += 5.0
        m.apply_trajectory_correction([(0, RigidPose.identity())])
        assert m.objects[0].centroid.tolist() == [0.005, 0.0, 1.0]

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 1)])
    def test_points_must_be_n_by_3(self, shape):
        # a (3,) point registered, then broke the next correction's rebuild
        m = make_map()
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            m.register_candidate(np.ones(shape), "cup", 0)
        assert m.objects == {}

    def test_overflow_to_world_raises_and_registers_nothing(self):
        # finite points under a finite pose: their world points overflow
        m = make_map()
        m.add_keyframe(1, RigidPose(np.eye(3), [1e308, 0, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                m.register_candidate(np.array([[1e308, 0.0, 1.0]]), "cup", 1)
        assert m.objects == {}

    @pytest.mark.parametrize("seen", [False, True], ids=["new", "sighting"])
    def test_overflow_in_the_capped_cloud_changes_nothing(self, seen):
        # past the cap of one point, one voxel sums points 1.7e308 m out.
        # A new object was in the map, and a sighting had been appended,
        # before the rebuild raised
        m = make_map(max_cloud_points=1, voxel_leaf_m=1e300)
        far = np.array([[1.7e308, 0.0, 0.0]])
        if seen:
            first = m.objects[m.register_candidate(far, "cup", 0)]
            world, aabb = first.world_points, first.aabb
        with pytest.raises(NonFiniteCloud):
            m.register_candidate(far if seen else np.vstack([far, far]),
                                 "cup", 0)
        if seen:
            assert list(m.objects.values()) == [first]
            assert len(first.observations) == 1
            assert first.world_points is world
            assert [a.tobytes() for a in first.aabb] \
                == [a.tobytes() for a in aabb]
        else:
            assert m.objects == {}
        assert m.register_candidate(np.ones((1, 3)), "cup", 0) == int(seen)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_size_law(self, seed):
        rng = np.random.default_rng(seed)
        m = make_map()
        for _ in range(6):
            cloud = cube_cloud(rng.uniform(-2, 2, 3), seed=int(rng.integers(1e6)))
            before = len(m.objects)
            was_new = m.associate(cloud, "cup") is None
            m.register_candidate(cloud.points, "cup", 0)
            assert len(m.objects) == before + int(was_new)


class TestMerge:
    def test_merge_with_copy_keeps_centroid(self):
        m = make_map()
        a = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        obj = m.objects[a]
        centroid = obj.centroid.copy()
        other = m.objects[m.register_candidate(cube_cloud([5, 0, 1]).points,
                                               "cup", 0)]
        other.observations = list(obj.observations)
        other.rebuild(m.keyframes, m.voxel_leaf, m.max_cloud_points)
        merged = m.merge_objects(obj, other)
        np.testing.assert_allclose(merged.centroid, centroid, atol=1e-12)

    def test_two_point_merge_geometry(self):
        m = make_map()
        a = m.register_candidate(np.array([[0, 0, 0]], float), "cup", 0)
        b = m.register_candidate(np.array([[1, 0, 0]], float), "cup", 0)
        assert a != b  # 1 m apart, beyond the association threshold
        merged = m.merge_objects(m.objects[a], m.objects[b])
        np.testing.assert_allclose(merged.centroid, [0.5, 0, 0])
        np.testing.assert_allclose(merged.aabb[0], [0, 0, 0])
        np.testing.assert_allclose(merged.aabb[1], [1, 0, 0])
        assert len(merged.observations) == 2

    def test_class_mismatch(self):
        m = make_map()
        a = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        b = m.register_candidate(cube_cloud([5, 0, 1]).points, "book", 0)
        with pytest.raises(ClassMismatch):
            m.merge_objects(m.objects[a], m.objects[b])

    def test_object_cannot_absorb_itself(self):
        m = make_map()
        obj = m.objects[m.register_candidate(cube_cloud([0, 0, 1]).points,
                                             "cup", 0)]
        points = obj.world_points
        with pytest.raises(ValueError, match="cannot absorb itself"):
            m.merge_objects(obj, obj)
        assert len(obj.observations) == 1 and obj.world_points is points


class TestTrajectoryCorrection:
    def test_identity_correction_is_noop(self):
        m = make_map()
        m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        centroid = m.objects[0].centroid.copy()
        report = m.apply_trajectory_correction([(0, RigidPose.identity())])
        assert report.pairs == []
        np.testing.assert_allclose(m.objects[0].centroid, centroid,
                                   atol=1e-12)

    def test_translation_moves_centroid(self):
        m = make_map()
        m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        centroid = m.objects[0].centroid.copy()
        m.apply_trajectory_correction([(0, RigidPose(np.eye(3), [1, 0, 0]))])
        np.testing.assert_allclose(m.objects[0].centroid - centroid,
                                   [1, 0, 0], atol=1e-12)

    def test_drift_duplicates_merge_after_correction(self):
        m = make_map()
        drifted = RigidPose(np.eye(3), [0.5, 0, 0])
        m.add_keyframe(1, drifted)
        cloud = cube_cloud([0, 0, 1], n=120)
        a = m.register_candidate(cloud.points, "cup", 0)
        # same physical points observed under a drifted keyframe pose
        b = m.register_candidate(cloud.points, "cup", 1)
        assert a != b
        report = m.apply_trajectory_correction([(1, RigidPose.identity())])
        assert report.pairs == [(a, b)]
        assert len(m.objects) == 1

    def test_unknown_keyframe(self):
        m = make_map()
        with pytest.raises(UnknownKeyframe):
            m.apply_trajectory_correction([(42, RigidPose.identity())])

    def test_correction_round_trip_restores_centroids(self):
        rng = np.random.default_rng(8)
        m = make_map()
        m.add_keyframe(1, random_pose(rng))
        m.register_candidate(cube_cloud([0, 0, 2]).points, "cup", 0)
        m.register_candidate(cube_cloud([4, 0, 2]).points, "book", 1)
        centroids = {i: o.centroid.copy() for i, o in m.objects.items()}
        perturb = random_pose(rng, trans_scale=0.5)
        original = dict(m.keyframes)
        m.apply_trajectory_correction(
            [(i, perturb.compose(p)) for i, p in original.items()])
        m.apply_trajectory_correction(list(original.items()))
        for i, c in centroids.items():
            assert np.abs(m.objects[i].centroid - c).max() < 1e-9

    def test_fixpoint_no_salient_overlap_remains(self):
        m = make_map()
        base = cube_cloud([0, 0, 1], n=100)
        # seed overlapping objects directly, bypassing association
        for i, dx in enumerate([0.0, 0.02, 0.04, 5.0]):
            obj = SemanticObject(i, "cup")
            obj.observations.append(Observation(0, base.points + [dx, 0, 0]))
            obj.rebuild(m.keyframes, m.voxel_leaf, m.max_cloud_points)
            m.objects[i] = obj
        m.apply_trajectory_correction([(0, RigidPose.identity())])
        ids = sorted(m.objects)
        for i, id_a in enumerate(ids):
            for id_b in ids[i + 1:]:
                r = overlap_ratio(m.objects[id_a].world_points,
                                  m.objects[id_b].world_points,
                                  m.overlap_radius)
                assert r < m.merge_overlap

    def test_world_cache_matches_fresh_recompute(self):
        rng = np.random.default_rng(5)
        m = make_map()
        for i in range(1, 4):
            m.add_keyframe(i, random_pose(rng))
        for i in range(4):
            m.register_candidate(cube_cloud(rng.uniform(-3, 3, 3),
                                            seed=i).points, "cup", i)
        m.apply_trajectory_correction(
            [(i, random_pose(rng)) for i in range(4)])
        for obj in m.objects.values():
            fresh = np.concatenate([
                m.keyframes[obs.keyframe_id].transform(obs.local)
                for obs in obj.observations
            ])
            assert np.abs(np.sort(fresh, axis=0)
                          - np.sort(obj.world_points, axis=0)).max() < 1e-9


class TestRebuild:
    @staticmethod
    def assert_fresh(m):
        """Each object's world points, centroid and AABB, and the export,
        are bitwise those of a fresh rebuild."""
        objects = []
        for obj_id, obj in sorted(m.objects.items()):
            world, centroid, (lo, hi) = reference_rebuild(
                obj, m.keyframes, m.voxel_leaf, m.max_cloud_points)
            assert obj.world_points.tobytes() == world.tobytes()
            assert obj.centroid.tobytes() == centroid.tobytes()
            assert obj.aabb[0].tobytes() == lo.tobytes()
            assert obj.aabb[1].tobytes() == hi.tobytes()
            objects.append({
                "id": obj_id, "class": obj.class_label,
                "centroid": centroid.tolist(),
                "aabb": {"min": lo.tolist(), "max": hi.tolist()},
                "num_points": len(world),
                "num_observations": len(obj.observations)})
        # JSON spells -0.0, which == takes for 0.0
        assert json.dumps(m.export()) == json.dumps({"objects": objects})

    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.sampled_from(["see", "see", "correct", "merge"]),
                          min_size=4, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_appended_sightings_equal_fresh_rebuild(self, seed, steps):
        """Sightings appended between corrections and merges leave world
        points, AABB and export bitwise those of a fresh rebuild: also
        with coordinates of ±0.0, where a zero bound makes the sighting
        rebuild, and across `max_cloud_points`, past which every sighting
        rebuilds."""
        rng = np.random.default_rng(seed)
        m = make_map(assoc_dist_m=0.05, max_cloud_points=int(
            rng.integers(10, 60)), voxel_leaf_m=0.02,
            merge_overlap_ratio=0.2, overlap_radius_m=0.05)
        # translations keep exact zeros in world coordinates
        poses = [RigidPose.identity(), RigidPose(np.eye(3), [-0.01, 0, 0]),
                 RigidPose(np.eye(3), [0.0, 0.02, 0.0]),
                 random_pose(rng, trans_scale=0.05)]
        for kf, pose in enumerate(poses):
            m.add_keyframe(kf, pose)
        for step in steps:
            if step == "see":
                grid = [0.0, -0.0, 0.01] if rng.integers(3) == 0 \
                    else [0.03, 0.035, 0.04]
                m.register_candidate(
                    rng.choice(grid, size=(int(rng.integers(1, 16)), 3)),
                    str(rng.choice(["cup", "cup", "book"])),
                    int(rng.integers(len(poses))))
            elif step == "correct":
                m.apply_trajectory_correction(
                    [(int(rng.integers(len(poses))),
                      poses[int(rng.integers(len(poses)))])])
            else:
                pairs = [(a, b) for a in sorted(m.objects)
                         for b in sorted(m.objects) if a != b
                         and m.objects[a].class_label
                         == m.objects[b].class_label]
                if pairs:
                    a, b = pairs[int(rng.integers(len(pairs)))]
                    m.merge_objects(m.objects[a], m.objects.pop(b))
            self.assert_fresh(m)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cached_geometry_equals_fresh_rebuild(self, seed):
        """After every registration, correction and merge, an object's
        world points, centroid and AABB are bitwise those of transforming
        every observation afresh, also once the cap makes rebuild
        voxel-downsample."""
        rng = np.random.default_rng(seed)
        m = make_map(max_cloud_points=150, voxel_leaf_m=0.02)
        true = {0: RigidPose.identity()}
        for kf in range(1, 7):
            true[kf] = random_pose(rng)
            m.add_keyframe(kf, true[kf])

        def seen(kf, world_cloud):
            """`world_cloud` as keyframe `kf`'s camera measured it."""
            return true[kf].inverse().transform(world_cloud.points)

        cloud = cube_cloud([0, 0, 1], n=60, seed=int(rng.integers(1e6)))
        for kf in range(1, 5):
            m.register_candidate(
                seen(kf, cube_cloud([0.01 * kf, 0, 1], n=60,
                                    seed=int(rng.integers(1e6)))), "cup", kf)
            self.assert_fresh(m)
        m.register_candidate(seen(2, cube_cloud([3, 0, 1], n=40)), "cup", 2)
        self.assert_fresh(m)
        first = m.objects[0]
        assert len(first.observations) == 4
        assert len(first.world_points) < 240  # downsampled past the cap
        # keyframe 5's estimate drifted 0.5 m: its sighting of the cup
        # becomes a new object
        drift = RigidPose(np.eye(3), [0.5, 0, 0])
        m.add_keyframe(5, drift.compose(true[5]))
        dup = m.register_candidate(seen(5, cloud), "cup", 5)
        assert dup not in (0, 1)
        self.assert_fresh(m)
        # moves only keyframe 2, which holds observations of two objects
        m.apply_trajectory_correction(
            [(2, random_pose(rng, trans_scale=0.01).compose(true[2]))])
        self.assert_fresh(m)
        # undoes the drift: the duplicate overlaps the cup and is merged
        report = m.apply_trajectory_correction([(5, true[5]), (2, true[2])])
        assert report.pairs == [(0, dup)]
        self.assert_fresh(m)
        m.merge_objects(m.objects[0], m.objects.pop(1))
        self.assert_fresh(m)
        m.register_candidate(seen(6, cloud), "cup", 6)
        self.assert_fresh(m)

    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 12), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_appended_aabb_is_bounds_of_the_whole_cloud(self, seed, sizes):
        """The AABB of appended sightings is `_bounds` of their whole
        cloud, bitwise, also for columns holding both -0.0 and 0.0. The
        sightings are given in world: `RigidPose.transform`'s matmul sums
        from +0.0 and gives no -0.0."""
        rng = np.random.default_rng(seed)
        pose = RigidPose.identity()
        obj = SemanticObject(0, "cup")
        for n in sizes:
            world = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(n, 3))
            obj.add(Observation(0, world, pose, world), _bounds(world),
                    {0: pose}, 0.01, 100)
            assert np.array(obj.bounds).tobytes() \
                == np.array(_bounds(obj.world_points)).tobytes()

    def test_sighting_after_a_replaced_keyframe_equals_fresh_rebuild(self):
        # add_keyframe gives keyframe 1 a new pose: the cup's first
        # sighting, seen from it, moves at the next sighting
        m = make_map()
        m.add_keyframe(1, RigidPose.identity())
        m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 1)
        m.add_keyframe(1, RigidPose(np.eye(3), [0.01, 0, 0]))
        m.register_candidate(cube_cloud([0, 0, 1], seed=1).points, "cup", 0)
        assert len(m.objects) == 1
        self.assert_fresh(m)

    def test_new_sighting_transforms_only_its_own_points(self, monkeypatch):
        m = make_map()
        for kf in range(1, 5):
            m.add_keyframe(kf, RigidPose(np.eye(3), [0.01 * kf, 0, 0]))
            m.register_candidate(cube_cloud([0, 0, 1], seed=kf).points,
                                 "cup", kf)
        sizes = []
        transform = RigidPose.transform

        def spy(pose, points):
            sizes.append(len(points))
            return transform(pose, points)

        monkeypatch.setattr(RigidPose, "transform", spy)
        m.register_candidate(cube_cloud([0, 0, 1], n=25, seed=9).points,
                             "cup", 0)
        # to world, once
        assert sizes == [25]
        sizes.clear()
        m.apply_trajectory_correction([(3, RigidPose.identity())])
        assert sizes == [60]

    def test_merge_that_moves_no_keyframe_transforms_nothing(self,
                                                             monkeypatch):
        # association too tight to match: two sightings of one cup become
        # two objects, which the correction's merge pass then joins
        m = make_map(assoc_dist_m=1e-6)
        m.add_keyframe(1, RigidPose(np.eye(3), [0.01, 0, 0]))
        a = m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        b = m.register_candidate(cube_cloud([0, 0, 1], seed=1).points,
                                 "cup", 1)
        assert a != b
        sizes = []
        transform = RigidPose.transform

        def spy(pose, points):
            sizes.append(len(points))
            return transform(pose, points)

        monkeypatch.setattr(RigidPose, "transform", spy)
        report = m.apply_trajectory_correction([(1, m.keyframes[1])])
        assert report.pairs == [(a, b)]
        # the survivor keeps the absorbed object's world points
        assert sizes == []
        self.assert_fresh(m)


    @pytest.mark.parametrize("seed", range(4))
    def test_zero_bounds_equal_fresh_rebuild(self, seed):
        """Points on the coordinate planes put AABB bounds at exactly 0,
        where the bounds helper falls back to the axis-0 reductions: after
        registrations, a correction and merges, centroid and AABB are
        still bitwise those of a fresh rebuild."""
        rng = np.random.default_rng(seed)
        m = make_map(assoc_dist_m=1e-6)
        m.add_keyframe(1, RigidPose(np.eye(3), [0.0, 0.02, 0.0]))
        for kf in (0, 1, 0, 1):
            local = rng.choice([0.0, 0.01, 0.02], size=(30, 3)) * [1, -1, 1]
            m.register_candidate(local, "cup", kf)
            self.assert_fresh(m)
        assert any(0.0 in obj.aabb[0] or 0.0 in obj.aabb[1]
                   for obj in m.objects.values())
        report = m.apply_trajectory_correction([(1, RigidPose.identity())])
        assert report.pairs
        self.assert_fresh(m)


def counting_overlaps(module, fn, *args):
    """`fn(*args)` and the number of `overlap_ratio` calls it made through
    `module`'s global of that name."""
    calls = []

    def counted(*a):
        calls.append(a)
        return overlap_ratio(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "overlap_ratio", counted)
        return fn(*args), len(calls)


def random_clusters(seed: int, count: int) -> SemanticMap:
    """Objects scattered about a few centres, with ids in shuffled order:
    merges chain, and a survivor often overlaps a lower id."""
    rng = np.random.default_rng(seed)
    m = make_map(merge_overlap_ratio=float(rng.choice([0.2, 0.5])),
                 overlap_radius_m=0.05)
    centres = rng.uniform(-0.3, 0.3, (3, 3))
    for obj_id in rng.permutation(count).tolist():
        obj = SemanticObject(obj_id, str(rng.choice(["cup", "book"])))
        centre = centres[rng.integers(len(centres))]
        obj.observations.append(Observation(
            0, centre + rng.uniform(-0.06, 0.06, (int(rng.integers(5, 40)),
                                                  3))))
        obj.rebuild(m.keyframes, m.voxel_leaf, m.max_cloud_points)
        m.objects[obj_id] = obj
    return m


def distinct_overlap_pairs(fn, *args) -> int:
    """Run `fn(*args)` and return its number of `overlap_ratio` calls, after
    checking that no two of them got the same pair of arrays. A merge
    gives its survivor a new `world_points` array, so a repeated pair is
    a ratio taken again with neither object changed."""
    calls = []  # holds the arrays, so that no id is reused

    def spy(a, b, radius):
        calls.append((a, b))
        return overlap_ratio(a, b, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantic_map, "overlap_ratio", spy)
        fn(*args)
    pairs = [(id(a), id(b)) for a, b in calls]
    assert len(set(pairs)) == len(pairs)
    return len(pairs)


class TestMergePass:
    """The merge pass, a restarting scan that memoizes failed pairs,
    against the restarting all-pairs scan without the memo
    (`conftest.reference_apply_trajectory_correction`)."""

    @staticmethod
    def assert_same(got, want):
        assert sorted(got.objects) == sorted(want.objects)
        for obj_id, obj in got.objects.items():
            ref = want.objects[obj_id]
            assert obj.class_label == ref.class_label
            assert [o.keyframe_id for o in obj.observations] \
                == [o.keyframe_id for o in ref.observations]
            assert obj.world_points.tobytes() == ref.world_points.tobytes()
            assert obj.aabb[0].tobytes() == ref.aabb[0].tobytes()
            assert obj.aabb[1].tobytes() == ref.aabb[1].tobytes()

    def correct_both(self, m, corrected,
                     apply=SemanticMap.apply_trajectory_correction):
        """Apply `corrected` to `m` and to a copy by the reference; both
        must end bitwise equal, with the same report."""
        shadow = copy.deepcopy(m)
        want, want_calls = counting_overlaps(
            conftest, reference_apply_trajectory_correction, shadow,
            corrected)
        got, got_calls = counting_overlaps(semantic_map, apply, m, corrected)
        assert got.to_dict() == want.to_dict()
        self.assert_same(m, shadow)
        # each pair's ratio once per change of its objects
        assert got_calls <= want_calls
        return got

    @pytest.mark.parametrize("path, merges", [
        ("tests/data/cluttered_drift.json", True),
        ("tests/data/tabletop_sweep.json", False),
        ("tests/data/attention_crowd.json", False),
        ("configs/scenarios/drift_loop.json", True)])
    # tight association leaves many duplicates, and a looser overlap
    # merges them in chains of up to ~20 a correction
    @pytest.mark.parametrize("config", [
        {}, {"assoc_dist_m": 0.02, "merge_overlap_ratio": 0.3,
             "overlap_radius_m": 0.08}], ids=["default", "merge_heavy"])
    def test_replayed_corrections_merge_as_the_restarting_scan(
            self, monkeypatch, path, merges, config):
        """Each correction of a whole run, from the run's own map state;
        a scenario without corrections gets two "true" ones."""
        d = json.loads((ROOT / path).read_text())
        if not d.get("correction_events"):
            frames = Scenario.from_dict(d).num_frames
            d["correction_events"] = [{"frame": frames // 2, "poses": "true"},
                                      {"frame": frames - 1, "poses": "true"}]
        reports = []
        apply = SemanticMap.apply_trajectory_correction

        def checked(registry, corrected):
            reports.append(self.correct_both(registry, corrected, apply))
            return reports[-1]

        monkeypatch.setattr(SemanticMap, "apply_trajectory_correction",
                            checked)
        run_scenario_detailed(Scenario.from_dict(d), PipelineConfig(**config))
        assert len(reports) == len(d["correction_events"])
        # attention_crowd has one object, which nothing can merge
        if merges or (config and "attention" not in path):
            assert any(r.pairs for r in reports)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 14))
    @settings(max_examples=60, deadline=None)
    def test_random_clusters_merge_as_the_restarting_scan(self, seed, count):
        m = random_clusters(seed, count)
        self.correct_both(m, [(0, m.keyframes[0])])

    @pytest.mark.parametrize("xs, pairs", [
        # a cloud covering half of each of two objects passes against
        # neither, then against the two merged: the pass takes the
        # survivor's failed pairs again
        ([[0.0, 0.01, 0.02, 0.03, 2.0, 2.01, 2.02, 2.03, 5.0, 5.01],
          np.arange(51) * 0.01,
          [0.40, 0.41, 0.42, 0.43, 0.44, 0.45, 2.0, 2.01, 2.02, 2.03]],
         [(1, 2), (0, 1)]),
        # the merged box reaches object 2, whose box lay beyond object 0's
        ([np.arange(10) * 0.01, np.arange(10) * 0.01 + 0.05,
          np.arange(8) * 0.01 + 0.15], [(0, 1), (0, 2)]),
        # object 1 holds all of the absorbed 2, and nothing merges it
        # with the dead one
        ([np.arange(20) * 0.01 + 0.805, np.arange(100) * 0.01 + 1.0,
          np.arange(8) * 0.01 + 1.0], [(0, 2)]),
    ], ids=["lower_id_after_merge", "grown_box", "absorbed_is_gone"])
    def test_merge_changes_later_pairs(self, xs, pairs):
        m = make_map()
        for obj_id, x in enumerate(xs):
            obj = SemanticObject(obj_id, "cup", [
                Observation(0, np.outer(x, [1.0, 0.0, 0.0]))])
            obj.rebuild(m.keyframes, m.voxel_leaf, m.max_cloud_points)
            m.objects[obj_id] = obj
        assert self.correct_both(m, [(0, m.keyframes[0])]).pairs == pairs

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_and_one_object_maps(self, count):
        m = make_map()
        for _ in range(count):
            m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        report = self.correct_both(m, [(0, RigidPose.identity())])
        assert report.to_dict() == {"pairs": [], "objects_before": count,
                                    "objects_after": count}

    def test_overlap_ratio_is_called_as_a_module_global(self, monkeypatch):
        # the benchmark's tracer wraps `semantic_map.overlap_ratio` by name
        calls = []

        def spy(a, b, radius):
            calls.append((len(a), len(b), radius))
            return overlap_ratio(a, b, radius)

        monkeypatch.setattr(semantic_map, "overlap_ratio", spy)
        m = make_map()
        m.add_keyframe(1, RigidPose(np.eye(3), [0.5, 0, 0]))
        cloud = cube_cloud([0, 0, 1], n=120)
        m.register_candidate(cloud.points, "cup", 0)
        m.register_candidate(cloud.points, "cup", 1)
        m.apply_trajectory_correction([(1, RigidPose.identity())])
        assert calls == [(120, 120, m.overlap_radius)]

    def test_merge_heavy_run_takes_no_ratio_twice(self):
        d = json.loads((ROOT / "tests/data/cluttered_drift.json").read_text())
        config = PipelineConfig(assoc_dist_m=0.02, merge_overlap_ratio=0.3,
                                overlap_radius_m=0.08)
        assert distinct_overlap_pairs(run_scenario_detailed,
                                      Scenario.from_dict(d), config) > 30

    # every ratio of that run merges; here many fall short
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 14))
    @settings(max_examples=60, deadline=None)
    def test_random_clusters_take_no_ratio_twice(self, seed, count):
        m = random_clusters(seed, count)
        distinct_overlap_pairs(m.apply_trajectory_correction,
                               [(0, m.keyframes[0])])

    def test_correction_rebuilds_only_objects_whose_keyframes_moved(
            self, monkeypatch):
        m = make_map()
        m.add_keyframe(1, RigidPose(np.eye(3), [0.1, 0, 0]))
        m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
        m.register_candidate(cube_cloud([3, 0, 1]).points, "book", 1)
        rebuilt = []
        rebuild = SemanticObject.rebuild

        def spy(obj, *args):
            rebuilt.append(obj.object_id)
            return rebuild(obj, *args)

        monkeypatch.setattr(SemanticObject, "rebuild", spy)
        # the same pose object again: nothing moved
        m.apply_trajectory_correction([(0, m.keyframes[0])])
        assert rebuilt == []
        m.apply_trajectory_correction([(1, RigidPose.identity())])
        assert rebuilt == [1]


def test_export_schema():
    m = make_map()
    m.register_candidate(cube_cloud([0, 0, 1]).points, "cup", 0)
    out = m.export()
    obj = out["objects"][0]
    assert set(obj) == {"id", "class", "centroid", "aabb", "num_points",
                        "num_observations"}
    assert obj["class"] == "cup"
    assert set(obj["aabb"]) == {"min", "max"}
