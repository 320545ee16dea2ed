import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from semmap.cli import main
from semmap.geometry import RigidPose
from semmap.headpose import FaceModel3D, project_model, rotation_from_euler
from semmap.tracker import IoUTracker

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"

# one face of interaction at 1 px landmark jitter
FACE = json.loads(
    (DATA_DIR / "interaction_landmarks.jsonl").read_text().splitlines()[0])

INTRINSICS = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
              "width": 640, "height": 480}

SCENARIO = {
    "seed": 11,
    "intrinsics": INTRINSICS,
    "world_objects": [
        {"class": "cup", "centroid": [0.0, 0.0, 1.0],
         "extents": [0.1, 0.1, 0.12]},
        {"class": "book", "centroid": [0.5, 0.2, 1.0],
         "extents": [0.2, 0.15, 0.03]},
    ],
    "trajectory": {"kind": "segments", "segments": [
        {"position": [0.0, -2.0, 1.0], "look_at": [0.2, 0.0, 1.0],
         "frames": 10},
    ]},
}


# json.dumps cannot write an integer past Python's int digit limit (4,300
# digits), so write_scenario puts one in place of this string
PAST_DIGIT_LIMIT = "<an integer of 5,001 digits>"


def write_scenario(tmp_path, d=SCENARIO):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d).replace(json.dumps(PAST_DIGIT_LIMIT),
                                          "9" * 5001))
    return path


class TestRun:
    def test_success_writes_outputs(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        map_doc = json.loads((out / "map.json").read_text())
        assert len(map_doc["objects"]) == 2
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["recall"] == 1.0
        events = (out / "events.jsonl").read_text().strip().splitlines()
        assert len(events) == 10

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--scenario", str(scenario),
                         "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("map.json", "metrics.json", "events.jsonl"):
            assert (outs[0] / fname).read_bytes() \
                == (outs[1] / fname).read_bytes()

    def test_export_ply(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario), "--out", str(out),
                     "--export-ply"])
        assert code == 0
        assert sorted(p.name for p in out.glob("*.ply")) \
            == ["object_0000.ply", "object_0001.ply"]

    def test_malformed_scenario_no_partial_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(bad), "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/out"])
    def test_output_path_under_a_file_exit_2(self, tmp_path, capsys, out):
        # checked before the first frame runs, not after the whole run
        (tmp_path / "taken").write_text("kept")
        scenario = SCENARIO_DIR / "drift_loop.json"
        code = main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert (tmp_path / "taken").read_text() == "kept"

    def test_schema_error_exit_code(self, tmp_path):
        d = dict(SCENARIO)
        del d["trajectory"]
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("event", [
        {"frame": 500, "poses": "true"},
        {"frame": 3, "poses": {"7": RigidPose.identity().to_dict()}},
    ])
    def test_bad_correction_event_exit_3(self, tmp_path, capsys, event):
        d = dict(SCENARIO, correction_events=[event])
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda d: d["persons"][0].update(attention_windows=[[1.0, 2.0, 3.0]]),
        lambda d: d["persons"][0].update(attention_windows=[[3.0, 1.0]]),
        lambda d: d.update(fps=0),
        lambda d: d.update(fps=-10),
        lambda d: d.update(max_range=-1.0),
        lambda d: d["world_objects"][0].update(sample_count=0),
        lambda d: d["world_objects"][0].update(extents=[0.08, 0.0, 0.12]),
        lambda d: d.update(noise={"landmark_jitter_px": -1.0}),
        lambda d: d["trajectory"]["segments"].append(
            dict(d["trajectory"]["segments"][0], frames=-3)),
        lambda d: d["trajectory"]["segments"].append(
            dict(d["trajectory"]["segments"][0], frames=0)),
        lambda d: d.update(trajectory={"kind": "orbit", "radius": -2.0,
                                       "center": [0.0, 2.0, 1.5],
                                       "frames": 80}),
        lambda d: d.update(fps=True),
        lambda d: d.update(noise={"dropout_prob": True}),
        lambda d: d["persons"][0].update(away_yaw_deg="60"),
        lambda d: d["persons"][0].update(position=[0.0, 2.0]),
        lambda d: d["persons"][0].update(position=[0.0, 2.0, 1.5, 1.0]),
        lambda d: d.update(drift={"translation_per_frame": [0.01, 0.0]}),
        lambda d: d["world_objects"][0].update({"class": 5}),
        lambda d: d["world_objects"][0].update({"class": None}),
        lambda d: d["world_objects"][0].update(centroid=[0.0, True, 0.8]),
        lambda d: d["world_objects"][0].update(centroid=["0", 0.1, 0.8]),
        lambda d: d["world_objects"][0].update(extents=[True, 0.1, 0.1]),
        lambda d: d.update(trajectory={"kind": "orbit", "radius": 2.0,
                                       "center": [0, True, 1], "frames": 80}),
        lambda d: d["trajectory"]["segments"][0].update(
            position=[0, True, 1.5]),
        lambda d: d["trajectory"]["segments"][0].update(
            look_at=["0", 2, 1.5]),
        lambda d: d.update(trajectory=[{
            "rotation": [["1", 0, 0], [0, "1", 0], [0, 0, "1"]],
            "translation": [0, 0, 1.5]}]),
        lambda d: d.update(trajectory={"kind": "poses", "poses": [{
            "rotation": [[True, False, False], [False, True, False],
                         [False, False, True]],
            "translation": [0, 0, 1.5]}]}),
        lambda d: d.update(correction_events=[{"frame": 3, "poses": {"0": {
            "rotation": np.eye(3).tolist(), "translation": ["0", 0, 0]}}}]),
        lambda d: d["persons"][0].update(attention_windows=[[False, True]]),
        lambda d: d["world_objects"][0].update({"class": ["cup"]}),
        lambda d: d["persons"][0].update(attention_windows=[["1", "6"]]),
        lambda d: d.update(fps=10**400),
        lambda d: d.update(max_range=10**400),
        lambda d: d.update(background_depth=10**400),
        lambda d: d.update(trajectory={"kind": "poses", "poses": [{
            "rotation": [[0.5 ** 0.5, -0.5 ** 0.5, 0.0],
                         [0.5 ** 0.5, 0.5 ** 0.5, 0.0], [0.0, 0.0, 1.0]],
            "translation": [1.7e308, 1.7e308, 1.0]}]}),
        lambda d: d.update(fps=PAST_DIGIT_LIMIT),
        lambda d: d["world_objects"][0].update(sample_count=10**400),
        lambda d: d["intrinsics"].update(width=10**400),
        lambda d: d.update(trajectory={"kind": "poses", "poses": [{
            "rotation": [[0.5 ** 0.5, -0.5 ** 0.5, 0.0],
                         [0.5 ** 0.5, 0.5 ** 0.5, 0.0], [0.0, 0.0, 1.0]],
            "translation": [1.2e308, 0.0, 1.0]}] * 3},
            drift={"translation_per_frame": [5e307, 0.0, 0.0]}),
        lambda d: d.update(noise={"false_positive_rate": 1e308}),
        lambda d: d.update(noise={"false_positive_rate": 2**63}),
        lambda d: d.update(fps=1e-307),
    ], ids=["window_of_three", "window_reversed", "fps_zero", "fps_negative",
            "max_range_negative", "no_samples", "flat_extents",
            "negative_jitter", "segment_negative_frames",
            "segment_zero_frames", "orbit_negative_radius",
            # these loaded: true as 1 fps or a dropout of 1, then a run
            # with no objects; the rest died mid-run (exit 1)
            "fps_true", "dropout_true", "away_yaw_string",
            "position_of_two", "position_of_four", "drift_of_two",
            # these loaded and ran to exit 0: a label or a vector of the
            # wrong JSON type, true as a 1 m side, strings or booleans as
            # pose entries, and a window of booleans
            "class_number", "class_null", "centroid_true", "centroid_string",
            "extents_true", "orbit_center_true", "segment_position_true",
            "look_at_string", "trajectory_rotation_strings",
            "poses_rotation_booleans", "correction_translation_string",
            "window_of_booleans",
            # and these died mid-run (exit 1)
            "class_list", "window_strings",
            # an integer beyond float range: fps ran to exit 0 with every
            # frame at t = 0, the others died in float() (exit 1)
            "fps_10**400", "max_range_10**400", "background_depth_10**400",
            # a pose turned 45 degrees whose inverse overflows: died at frame
            # 0 (exit 1)
            "pose_inverse_overflows",
            # these died in json.loads, in int conversion, or, under a
            # drift that overflows the estimate at frame 1, mid-run (exit 1)
            "fps_5001_digits", "sample_count_10**400", "width_10**400",
            "drifted_estimate_overflows",
            # false positives past the per-frame cap died in the Poisson
            # draw, "lam value too large" (exit 1)
            "false_positive_rate_1e308", "false_positive_rate_2**63",
            # frame 79 at 7.9e308 s: ran to exit 0, and wrote "t": Infinity,
            # which is no JSON, in 62 of the 80 events.jsonl rows
            "fps_frame_times_overflow"])
    def test_out_of_range_scenario_exit_3(self, tmp_path, capsys, edit):
        d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
        edit(d)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["fx", "fy"])
    def test_infinite_focal_length_exit_3(self, tmp_path, capsys, axis):
        d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
        d["intrinsics"][axis] = float("inf")
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
        # the loader takes only finite numbers, and names the key
        assert f"finite JSON numbers: {axis}" in capsys.readouterr().err

    def test_huge_value_cut_in_the_error(self, tmp_path, capsys):
        # the 401 digits of 10**400 were repeated in a 471-character error
        d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
        d["intrinsics"]["fx"] = 10**400
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "finite JSON numbers: fx (got intrinsics fx = 1000" in err
        assert len(err) < 150

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"iou_threshold": 0.4, "bogus_knob": 1}))
        code = main(["run", "--scenario", str(write_scenario(tmp_path)),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_knob" in err
        assert not (tmp_path / "out").exists()

    def test_non_object_scenario_with_seed_exit_3(self, tmp_path, capsys):
        # the seed override once indexed the file's value before any check
        out = tmp_path / "out"
        code = main(["run", "--scenario",
                     str(write_scenario(tmp_path, [SCENARIO])),
                     "--seed", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d["intrinsics"].update(k1=-0.2), "k1"),
        (lambda d: d.update(trajectory={
            "kind": "orbit", "center": [0.0, 0.0, 1.0], "radius": 2.0,
            "frames": 10, "sweep": 90}), "sweep"),
    ], ids=["intrinsics_distortion", "orbit_sweep"])
    def test_unknown_nested_key_exit_3(self, tmp_path, capsys, edit, key):
        # both were ignored: a distortion term, and a misspelled sweep_deg
        # that left the orbit at a full 360 degrees
        d = json.loads(json.dumps(SCENARIO))
        edit(d)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_config_field_exit_2(self, tmp_path, capsys, value):
        # 2.5 passed validation, then the first head-pose solve died on it
        d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
        d["trajectory"]["segments"][0]["frames"] = 2
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lm_max_iterations": value}))
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "lm_max_iterations" in capsys.readouterr().err

    def test_unsolvable_face_recorded_not_fatal(self, tmp_path):
        # 2 px landmark jitter cannot fit within a 0.5 px accept bound
        d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
        d["noise"] = {"landmark_jitter_px": 2.0}
        d["trajectory"]["segments"][0]["frames"] = 8
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lm_accept_rms_px": 0.5}))
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        events = [json.loads(line) for line in
                  (out / "events.jsonl").read_text().splitlines()]
        assert [ev["frame"] for ev in events] == list(range(8))
        rows = [row for ev in events for row in ev["persons"]]
        assert len(rows) == 16
        for row in rows:
            assert set(row) == {"track", "person", "error", "attending",
                                "value", "triggered"}
            assert row["error"] == "NoConvergence"
            assert row["attending"] is False

    def test_pose_accepted_by_loader_survives_inversion(self, tmp_path):
        # R Rᵀ is within the loader's 1e-9 of I, Rᵀ R is not (1.26e-9): the
        # frame source's inverse() re-checked it and died at frame 0
        d = json.loads((SCENARIO_DIR / "desk_orbit.json").read_text())
        d["trajectory"] = [{"rotation": [
            [-0.5604458127538101, -0.16390230555423974, -0.8118106466466686],
            [-0.7251904082447582, -0.37630649495033897, 0.5766214478301669],
            [-0.39999920242879594, 0.911882370337713, 0.09203901975339669]],
            "translation": [0.0, 0.0, 0.0]}]
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, d)),
                     "--out", str(out)]) == 0
        assert len((out / "events.jsonl").read_text().splitlines()) == 1

    def test_seed_override_changes_nothing_when_equal(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", "--scenario", str(scenario), "--out", str(out_a)])
        main(["run", "--scenario", str(scenario), "--out", str(out_b),
              "--seed", str(SCENARIO["seed"])])
        assert (out_a / "events.jsonl").read_bytes() \
            == (out_b / "events.jsonl").read_bytes()


class TestShippedDigests:
    """sha256 of the files `semmap run` writes for each shipped scenario.

    These pin the project's byte-identical reference outputs. They were
    taken with numpy 2.4.6 on Python 3.11.7 (x86-64); another numpy may
    round some float in the last bit and change a digest. interaction's
    events.jsonl carries the last bits of the head-pose fits: a track's
    first face starts from the closed-form start and stops there, as every
    clean face does, and each later face starts warm from the track's
    previous pose.
    """

    EXPECTED = {
        "desk_orbit": {
            "map.json": "a648f12ee88977b7064daeb42733852d"
                        "994ccc0d7caeb5b6b4dcfad95d246be7",
            "metrics.json": "1aa0f96c06186f3a85c3982e6ca2243e"
                            "55e0489655e3c38503096968ba68721a",
            "events.jsonl": "d5d280052dd27f6be4fa45b310244f69"
                            "dab387b56fc0e738d5c6920245b24257",
        },
        "drift_loop": {
            "map.json": "46bb42e35b9fbcd242c57d67122250ca"
                        "bf45e5b8cb59e7920f3b4c9be32ac715",
            "metrics.json": "09a14915e2bc97bbe551a33592456116"
                            "2dafbfa856c5f4b2454acba2e2b408a7",
            "events.jsonl": "7ccb584c1f84d709167f757b335b7c76"
                            "d162a55ea2b82653660d2c73a34217f2",
        },
        "interaction": {
            "map.json": "b5e1594fe2ef3daf770a320f9ccb272e"
                        "16cc05e6f5caa55be37feeb4db1b2a54",
            "metrics.json": "c10df717be9fffc0bfec0a91057cdb2a"
                            "a5eaa39f771aae7d6b29ab01ef6099d3",
            "events.jsonl": "7fb2f71c019d05d86a1964e57d56a903"
                            "56d5e0a6cada34dc711ef74d131dbced",
        },
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_outputs_match_reference(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                     "--out", str(out)]) == 0
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in self.EXPECTED[name]}
        assert digests == self.EXPECTED[name]


class TestWorkloadDigests:
    """sha256 of the files `semmap run` writes for one scenario of each
    benchmark workload: the first that seed 1 generates, frozen as JSON in
    tests/data/. The pins hold a speed-up to byte-identical outputs on the
    paths the benchmark times. Taken as in TestShippedDigests.
    """

    EXPECTED = {
        "attention_crowd": {
            "map.json": "4f06562320b1daba55e064664aaf52f5"
                        "799828cac6b9ba7f75415062e1406268",
            "metrics.json": "052039519048a03177947c79d04e1b5c"
                            "7d72a58d9884d344c0b4c9371758f7de",
            "events.jsonl": "24389b1584aef7e39a57899bd25fec62"
                            "9909084b7a96edf5f6b30d0eb0c5cc14",
        },
        "cluttered_drift": {
            "map.json": "e7f1c0a1f6a46f33a5c1665126629de2"
                        "2b762428afc4e9584f44c5ec70fdd9c1",
            "metrics.json": "34782f6cc3f0c7821600354ee20f81a9"
                            "4f0c531ac2356bee855ba4c5e61cac04",
            "events.jsonl": "e318ceeba55800af555944ad25b9ff8c"
                            "af5b017ae3cea64c13d9c02063c257a6",
        },
        "tabletop_sweep": {
            "map.json": "d665a622acefc3614985e6920f38b331"
                        "6815f1ce1e0a0f07ef9262f7e9efdcf9",
            "metrics.json": "c324a08987dac5c67670f3aa52eb906f"
                            "424e65b29ab890661853521e65297963",
            "events.jsonl": "8edfb54d16e353d3be5ce0d8e73a439a"
                            "aae37efe0440350005068c92d2bccb37",
        },
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_outputs_match_reference(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(DATA_DIR / f"{name}.json"),
                     "--out", str(out)]) == 0
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in self.EXPECTED[name]}
        assert digests == self.EXPECTED[name]

    def test_tabletop_sweep_events_before_the_start_rule(self, tmp_path,
                                                         monkeypatch):
        """At start score 0 every unmatched detection starts a track, as
        before the start rule, and events.jsonl keeps its old digest: the
        rule alone moved the pin above."""
        monkeypatch.setattr(IoUTracker, "START_SCORE", 0.0)
        out = tmp_path / "out"
        scenario = DATA_DIR / "tabletop_sweep.json"
        assert main(["run", "--scenario", str(scenario), "--out",
                     str(out)]) == 0
        assert hashlib.sha256((out / "events.jsonl").read_bytes()) \
            .hexdigest() == ("0d24f7313c272e95db91b124abc675a6"
                             "7d80aa1b3967396fbb2a3e06c7b0f29d")


class TestCliDigests:
    """sha256 of `semmap headpose` and `semmap willingness` stdout on the
    inputs in tests/data/: interaction's faces at 1 px landmark jitter (at
    interaction's intrinsics), and a 10 Hz timeline of three persons with
    gaps, a person who leaves and returns, and a retrigger after a reset.
    Taken as in TestShippedDigests.
    """

    def test_headpose(self, tmp_path, capsys):
        scenario = json.loads((SCENARIO_DIR / "interaction.json").read_text())
        kpath = tmp_path / "intrinsics.json"
        kpath.write_text(json.dumps(scenario["intrinsics"]))
        assert main(["headpose", "--intrinsics", str(kpath), "--landmarks",
                     str(DATA_DIR / "interaction_landmarks.jsonl")]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == ("ca861b7f8cac0f3ca94ce46ef3a21155"
                "f0439901d7075a9ab1b0d1923b9a7ec6")

    def test_willingness(self, capsys):
        assert main(["willingness", "--timeline",
                     str(DATA_DIR / "willingness_timeline.jsonl")]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == ("cfd8fad954848b578b4eae5efcafeb4a"
                "f67a13901a80f1ae66c9df0c72d11549")


class TestHeadpose:
    def write_inputs(self, tmp_path, records):
        kpath = tmp_path / "intrinsics.json"
        kpath.write_text(json.dumps(INTRINSICS))
        lpath = tmp_path / "landmarks.jsonl"
        lpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return kpath, lpath

    def test_synthetic_round_trip(self, tmp_path, capsys):
        from semmap.geometry import CameraIntrinsics
        k = CameraIntrinsics.from_dict(INTRINSICS)
        model = FaceModel3D.default()
        records = []
        truths = [(20.0, -5.0, 3.0), (0.0, 0.0, 0.0), (-35.0, 12.0, -8.0)]
        for frame, (yaw, pitch, roll) in enumerate(truths):
            rot = rotation_from_euler(yaw, pitch, roll)
            lmks = project_model(model, rot, np.array([0.0, 0.0, 1.2]), k)
            records.append({"frame": frame, "face_id": 0,
                            "landmarks": {n: list(uv)
                                          for n, uv in lmks.items()}})
        kpath, lpath = self.write_inputs(tmp_path, records)
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        for line, (yaw, pitch, roll) in zip(out, truths):
            rec = json.loads(line)
            assert rec["yaw"] == pytest.approx(yaw, abs=0.1)
            assert rec["pitch"] == pytest.approx(pitch, abs=0.1)
            assert rec["roll"] == pytest.approx(roll, abs=0.1)

    def test_empty_input_ok(self, tmp_path, capsys):
        kpath, lpath = self.write_inputs(tmp_path, [])
        lpath.write_text("")
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("axis", ["fx", "fy"])
    def test_infinite_focal_length_exit_2(self, tmp_path, capsys, axis):
        from semmap.geometry import CameraIntrinsics
        k = CameraIntrinsics.from_dict(INTRINSICS)
        lmks = project_model(FaceModel3D.default(), np.eye(3),
                             np.array([0.0, 0.0, 1.0]), k)
        kpath, lpath = self.write_inputs(tmp_path, [
            {"frame": 0, "landmarks": {n: list(uv)
                                       for n, uv in lmks.items()}}])
        kpath.write_text(json.dumps(dict(INTRINSICS, **{axis: float("inf")})))
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"finite JSON numbers: {axis}" in captured.err

    def test_too_few_landmarks_exit_4(self, tmp_path, capsys):
        from semmap.geometry import CameraIntrinsics
        k = CameraIntrinsics.from_dict(INTRINSICS)
        model = FaceModel3D.default()
        lmks = project_model(model, np.eye(3), np.array([0.0, 0.0, 1.0]), k)
        partial = dict(list(lmks.items())[:5])
        kpath, lpath = self.write_inputs(tmp_path, [
            {"frame": 0, "landmarks": {n: list(uv)
                                       for n, uv in partial.items()}}])
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 4
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_face_after_good_ones_exit_4(self, tmp_path, capsys):
        # the whole file is solved in one batch; its first degenerate face
        # still ends the run, names its frame and prints no rows
        partial = dict(list(self.frontal().items())[:5])
        records = [self.face_record(0, self.frontal()),
                   self.face_record(1, self.frontal()),
                   self.face_record(7, partial),
                   self.face_record(8, partial)]
        kpath, lpath = self.write_inputs(tmp_path, records)
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "degenerate configuration at frame 7:")

    def test_coplanar_model_exit_4(self, tmp_path, capsys):
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps({
            n: [float(i), float(i * i % 5), 0.0]
            for i, n in enumerate("abcdef")
        }))
        kpath, lpath = self.write_inputs(tmp_path, [])
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath), "--model", str(mpath)])
        assert code == 4


    @pytest.mark.parametrize("flag, text", [
        ("--intrinsics", "[500.0, 500.0, 320.0, 240.0, 640, 480]"),
        ("--intrinsics", json.dumps(dict(INTRINSICS, k1=-0.2))),
        ("--model", "[[0.0, 0.0, 0.0]]"),
    ], ids=["intrinsics_list", "intrinsics_distortion", "model_list"])
    def test_bad_input_file_exit_2(self, tmp_path, capsys, flag, text):
        # a list crashed the loader; an unknown intrinsics key was ignored
        kpath, lpath = self.write_inputs(tmp_path, [
            self.face_record(0, self.frontal())])
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = {"--landmarks": lpath, "--intrinsics": kpath, flag: bad}
        code = main(["headpose"] + [str(a) for kv in args.items() for a in kv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err

    def face_record(self, frame, landmarks):
        return {"frame": frame, "face_id": 0,
                "landmarks": {n: list(uv) for n, uv in landmarks.items()}}

    def frontal(self, model=None, spread=1.0):
        from semmap.geometry import CameraIntrinsics
        k = CameraIntrinsics.from_dict(INTRINSICS)
        lmks = project_model(model or FaceModel3D.default(), np.eye(3),
                             np.array([0.0, 0.0, 1.2]), k)
        return {n: (k.cx + spread * (u - k.cx), k.cy + spread * (v - k.cy))
                for n, (u, v) in lmks.items()}

    @pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], "ab", None, [1.0],
                                     ["1", "2"], [True, 250.0]])
    def test_malformed_landmark_exit_2(self, tmp_path, capsys, bad):
        rec = self.face_record(0, self.frontal())
        rec["landmarks"]["chin"] = bad
        kpath, lpath = self.write_inputs(tmp_path, [rec])
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 2
        captured = capsys.readouterr()
        assert "landmark input error" in captured.err
        assert "chin" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("record", [[1, 2], "face",
                                        {"frame": 0, "landmarks": [[1, 2]]},
                                        dict(FACE, camera=0)])
    def test_malformed_record_exit_2(self, tmp_path, capsys, record):
        # an unknown key, like the camera, was ignored
        kpath, lpath = self.write_inputs(tmp_path, [record])
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 2
        assert "landmark input error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_landmark_exit_2(self, tmp_path, capsys, bad):
        # Python's json reads NaN and Infinity; they are not pixels
        rec = self.face_record(0, self.frontal())
        rec["landmarks"]["nose_tip"] = [bad, 250.0]
        kpath, lpath = self.write_inputs(tmp_path, [rec])
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 2
        assert "landmark input error" in capsys.readouterr().err

    def test_unconverged_face_recorded_not_fatal(self, tmp_path, capsys):
        # a scrambled face: the best fit stays ~460 px rms, above the
        # 100 px accept bound
        scrambled = {"left_eye_outer": (320, -180),
                     "right_eye_outer": (350, 720), "nose_tip": (-340, 240),
                     "mouth_left": (1160, -330), "mouth_right": (-490, 870),
                     "chin": (1220, 810)}
        records = [self.face_record(0, self.frontal()),
                   self.face_record(1, scrambled),
                   self.face_record(2, self.frontal())]
        kpath, lpath = self.write_inputs(tmp_path, records)
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [r["frame"] for r in rows] == [0, 1, 2]
        assert rows[1] == {"frame": 1, "face_id": 0,
                           "error": "NoConvergence"}
        for r in (rows[0], rows[2]):
            assert "error" not in r
            assert r["rms"] < 1e-6

    def test_behind_camera_face_recorded_not_fatal(self, tmp_path, capsys):
        # a model whose nose lies 0.2 m behind the eye plane, seen 40x too
        # large: neither closed-form candidate is in front of the camera,
        # and the frontal start at the SOP depth (3 cm) puts the nose
        # behind it
        mpath = tmp_path / "model.json"
        points = {n: list(p) for n, p in zip(FaceModel3D.default().names,
                                              FaceModel3D.default().points)}
        points["nose_tip"][2] = -0.2
        mpath.write_text(json.dumps(points))
        model = FaceModel3D.from_json(mpath)
        records = [self.face_record(0, self.frontal(model, spread=40.0)),
                   self.face_record(1, self.frontal(model))]
        kpath, lpath = self.write_inputs(tmp_path, records)
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath), "--model", str(mpath)])
        assert code == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == {"frame": 0, "face_id": 0,
                           "error": "PointBehindCamera"}
        assert rows[1]["rms"] < 1e-6


class TestWillingness:
    def write_timeline(self, tmp_path, rows):
        path = tmp_path / "timeline.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_trigger_after_three_seconds(self, tmp_path, capsys):
        rows = [{"t": round(i * 0.1, 3),
                 "persons": [{"id": 1, "attending": True}]}
                for i in range(40)]
        path = self.write_timeline(tmp_path, rows)
        code = main(["willingness", "--timeline", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert len(summary["triggers"]) == 1
        assert summary["triggers"][0]["id"] == 1
        assert summary["triggers"][0]["t"] == pytest.approx(3.0, abs=0.15)
        assert len(lines) == 41  # one state line per step plus the summary

    def test_empty_timeline(self, tmp_path, capsys):
        path = tmp_path / "timeline.jsonl"
        path.write_text("")
        code = main(["willingness", "--timeline", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out.strip()) == {"triggers": []}

    @pytest.mark.parametrize("line", [
        [{"id": 1, "attending": True}],
        {"t": [0.2], "persons": []},
        {"t": 0.2, "persons": [5]},
        {"t": 0.2, "persons": [{"id": [1], "attending": True}]},
        {"t": 0.2, "persons": [{"id": "a", "attending": True}]},
        {"t": 0.2, "persons": [{"id": 1, "attending": "false"}]},
        {"t": "4", "persons": []},
        {"t": True, "persons": []},
        {"t": float("nan"), "persons": []},
        {"t": 0.2, "person": [{"id": 1, "attending": True}]},
        {"t": 0.2, "persons": [{"id": 1, "attending": True, "yaw": 3.0}]},
    ], ids=["record_not_object", "t_not_number", "person_not_object",
            "unhashable_id", "ids_of_two_types", "attending_string",
            "t_string", "t_bool", "t_nan", "persons_misspelled",
            "unknown_person_key"])
    def test_malformed_timeline_exit_2(self, tmp_path, capsys, line):
        # the first five raised a TypeError traceback (exit 1); the rest
        # were read loosely: "false" attended, "4" was 4 s, a misspelled
        # or unknown key was ignored
        path = self.write_timeline(tmp_path, [
            {"t": 0.1, "persons": [{"id": 1, "attending": True}]}, line])
        code = main(["willingness", "--timeline", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeline input error" in captured.err

    def test_id_twice_in_one_record_exit_2(self, tmp_path, capsys):
        # the last observation silently won, and the run exited 0
        path = self.write_timeline(tmp_path, [
            {"t": 0.1, "persons": [{"id": 1, "attending": True},
                                   {"id": 1, "attending": False}]}])
        code = main(["willingness", "--timeline", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeline input error: person 1 observed twice" \
            in captured.err

    def test_repeated_time_after_gap_ok(self, tmp_path, capsys):
        # each state once kept its own clock as last + dt, which drifted to
        # 0.9000000000000001 over the gap and took the second 0.9 for a
        # clock going backwards (exit 5)
        path = self.write_timeline(tmp_path, [
            {"t": t, "persons": [{"id": 1, "attending": True}]}
            for t in (0.3, 0.9, 0.9)])
        code = main(["willingness", "--timeline", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["value"] for line in lines[:-1]] \
            == pytest.approx([0.0, 0.2, 0.2])

    def test_clock_backwards_exit_5(self, tmp_path, capsys):
        rows = [
            {"t": 1.0, "persons": [{"id": 1, "attending": True}]},
            {"t": 0.5, "persons": [{"id": 1, "attending": True}]},
        ]
        path = self.write_timeline(tmp_path, rows)
        code = main(["willingness", "--timeline", str(path)])
        assert code == 5
        assert "timeline error" in capsys.readouterr().err


def repeat_first_key(text: str, value: str) -> str:
    """JSON object `text` with its first key written once more, first, with
    `value`: json.dumps cannot write a repeated key."""
    key = text[1:text.index(":")]
    return "{" + key + ": " + value + ", " + text[1:]


class TestRepeatedKeys:
    """A key repeated in one JSON object is an input error: a plain
    json.loads kept its last value without a word."""

    def run(self, tmp_path, scenario_text, config_text=None):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(scenario_text)
        argv = ["run", "--scenario", str(scenario),
                "--out", str(tmp_path / "out")]
        if config_text is not None:
            config = tmp_path / "config.json"
            config.write_text(config_text)
            argv += ["--config", str(config)]
        return main(argv)

    def test_scenario_key_exit_3(self, tmp_path, capsys):
        # "seed": 99, "seed": 11 loaded as seed 11
        code = self.run(tmp_path, repeat_first_key(json.dumps(SCENARIO), "99"))
        assert code == 3
        assert 'scenario error: malformed scenario JSON: repeated key "seed"' \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nested_correction_keyframe_exit_3(self, tmp_path, capsys):
        # {"1": A, "1": B} kept only B
        poses = json.dumps({"1": RigidPose.identity().to_dict()})
        d = dict(SCENARIO, correction_events=[{"frame": 3, "poses": "P"}])
        text = json.dumps(d).replace(
            '"P"', repeat_first_key(poses, poses[poses.index(":") + 2:-1]))
        assert text.count('"1": ') == 2
        code = self.run(tmp_path, text)
        assert code == 3
        assert 'repeated key "1"' in capsys.readouterr().err

    def test_config_key_exit_2(self, tmp_path, capsys):
        code = self.run(tmp_path, json.dumps(SCENARIO),
                        repeat_first_key('{"track_ttl": 3}', "30"))
        assert code == 2
        assert 'config error: malformed config JSON: repeated key ' \
            '"track_ttl"' in capsys.readouterr().err

    def test_headpose_record_exit_2(self, tmp_path, capsys):
        kpath = tmp_path / "intrinsics.json"
        kpath.write_text(json.dumps(INTRINSICS))
        lpath = tmp_path / "landmarks.jsonl"
        # a landmark named twice in one face
        lpath.write_text(json.dumps(FACE) + "\n" + json.dumps(FACE).replace(
            '"landmarks": {', '"landmarks": {"nose_tip": [1.0, 2.0], ')
            + "\n")
        code = main(["headpose", "--landmarks", str(lpath),
                     "--intrinsics", str(kpath)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed landmarks line 2 JSON: repeated key " \
            '"nose_tip"' in captured.err

    def test_willingness_record_exit_2(self, tmp_path, capsys):
        path = tmp_path / "timeline.jsonl"
        path.write_text('{"t": 0.1, "persons": []}\n'
                        '{"t": 9.0, "t": 0.2, "persons": []}\n')
        code = main(["willingness", "--timeline", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert 'malformed timeline line 2 JSON: repeated key "t"' \
            in captured.err
