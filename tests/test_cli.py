import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from semmap.cli import main
from semmap.geometry import RigidPose
from semmap.headpose import FaceModel3D, project_model, rotation_from_euler

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"

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


def write_scenario(tmp_path, d=SCENARIO):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
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
    ], ids=["window_of_three", "window_reversed", "fps_zero", "fps_negative",
            "max_range_negative", "no_samples", "flat_extents",
            "negative_jitter", "segment_negative_frames",
            "segment_zero_frames", "orbit_negative_radius"])
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
        assert "focal lengths" in capsys.readouterr().err

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
            "map.json": "715b49268edcbf799bd31b4eaee26ad8"
                        "752ee50de8c3a094cfdad95a9b02440f",
            "metrics.json": "e6cc567aacecee37833379a41a5b26d8"
                            "88216cb23af207cb06baeccfabecfdcb",
            "events.jsonl": "d5d280052dd27f6be4fa45b310244f69"
                            "dab387b56fc0e738d5c6920245b24257",
        },
        "drift_loop": {
            "map.json": "fc032114f893ff7cbcb41ac25f5932a3"
                        "c99c42d4f501c9b5fc58cf4f395544a4",
            "metrics.json": "eb2dcacce174575a8d0aba49928593c9"
                            "d50075cbad59af167e874954bb879b45",
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
        assert "focal lengths" in captured.err

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
                                     ["1", "2"]])
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
                                        {"frame": 0, "landmarks": [[1, 2]]}])
    def test_malformed_record_exit_2(self, tmp_path, capsys, record):
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
    ], ids=["record_not_object", "t_not_number", "person_not_object",
            "unhashable_id", "ids_of_two_types"])
    def test_malformed_timeline_exit_2(self, tmp_path, capsys, line):
        # each raised a TypeError traceback (exit 1)
        path = self.write_timeline(tmp_path, [
            {"t": 0.1, "persons": [{"id": 1, "attending": True}]}, line])
        code = main(["willingness", "--timeline", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeline input error" in captured.err

    def test_clock_backwards_exit_5(self, tmp_path, capsys):
        rows = [
            {"t": 1.0, "persons": [{"id": 1, "attending": True}]},
            {"t": 0.5, "persons": [{"id": 1, "attending": True}]},
        ]
        path = self.write_timeline(tmp_path, rows)
        code = main(["willingness", "--timeline", str(path)])
        assert code == 5
        assert "timeline error" in capsys.readouterr().err
