"""Semantic object mapping, head-pose, and interaction-willingness pipeline."""

from .config import PipelineConfig
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    PointCloud,
    RigidPose,
    backproject,
    extract_object_cloud,
    project,
    voxel_downsample,
)
from .headpose import (
    FaceModel3D,
    HeadPose,
    LandmarkSet2D,
    euler_from_rotation,
    is_attending,
    lm_solve_pose,
)
from .pipeline import FrameInput, Pipeline
from .semantic_map import MergeReport, SemanticMap, SemanticObject, chamfer_distance
from .simulator import (
    MetricsReport,
    Scenario,
    run_scenario_detailed,
    synthesize_frame_data,
)
from .tracker import Detection2D, IoUTracker, Track, iou
from .willingness import PersonWillingnessMap, WillingnessState, update

__all__ = [
    "PipelineConfig",
    "CameraIntrinsics", "DepthImage", "PointCloud", "RigidPose",
    "project", "backproject", "extract_object_cloud", "voxel_downsample",
    "FaceModel3D", "HeadPose", "LandmarkSet2D",
    "euler_from_rotation", "is_attending", "lm_solve_pose",
    "FrameInput", "Pipeline",
    "MergeReport", "SemanticMap", "SemanticObject", "chamfer_distance",
    "MetricsReport", "Scenario", "run_scenario_detailed",
    "synthesize_frame_data",
    "Detection2D", "IoUTracker", "Track", "iou",
    "PersonWillingnessMap", "WillingnessState", "update",
]
