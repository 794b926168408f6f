"""File formats: KMVT dense tensors, KMVP PCA models, PLY clouds, TUM trajectories,
label-set CSVs, segmentation-metrics CSVs, and the problem-bundle directory.

All binary payloads are little-endian. KMVT carries a dtype tag: 0 = binary32
(interchange), 1 = binary64 (default for writes, preserving oracle exactness
through round trips). KMVP is binary32 throughout.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .evaluation import LabelSet, SegMetrics
from .features import PcaModel
from .geometry import Intrinsics, Pose
from .graph import Keyframe, KeyframeGraph
from .residuals import FlowObservation

TENSOR_MAGIC = b"KMVT"
PCA_MAGIC = b"KMVP"
TENSOR_VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TAGS = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class FileFormatError(ValueError):
    """Raised on malformed files; the message always names the offending path."""


def write_tensor(path, array, dtype=None) -> None:
    """Write a (C, H, W) or (H, W) array as a KMVT tensor."""
    array = np.asarray(array)
    if array.ndim == 2:
        array = array[None]
    if array.ndim != 3:
        raise ValueError(f"tensor must be (C, H, W) or (H, W), got shape {array.shape}")
    dt = np.dtype(dtype) if dtype is not None else (
        array.dtype if array.dtype in _DTYPE_TAGS else np.dtype("float64"))
    tag = _DTYPE_TAGS[np.dtype(dt)]
    c, h, w = array.shape
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<5I", TENSOR_VERSION, tag, c, h, w))
        f.write(np.ascontiguousarray(array, dtype=_DTYPES[tag]).tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a KMVT tensor as (C, H, W) in its stored dtype."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != TENSOR_MAGIC:
            raise FileFormatError(f"{path}: bad tensor magic {magic!r}")
        header = f.read(20)
        if len(header) != 20:
            raise FileFormatError(f"{path}: truncated tensor header")
        version, tag, c, h, w = struct.unpack("<5I", header)
        if version != TENSOR_VERSION:
            raise FileFormatError(f"{path}: unsupported tensor version {version}")
        if tag not in _DTYPES:
            raise FileFormatError(f"{path}: unknown dtype tag {tag}")
        dt = _DTYPES[tag]
        payload = f.read(c * h * w * dt.itemsize)
        if len(payload) != c * h * w * dt.itemsize:
            raise FileFormatError(f"{path}: truncated tensor payload")
        return np.frombuffer(payload, dtype=dt).reshape(c, h, w).copy()


def read_map(path) -> np.ndarray:
    """Read a single-channel KMVT tensor as a 2-D float64 map."""
    t = read_tensor(path)
    if t.shape[0] != 1:
        raise FileFormatError(f"{path}: expected a single-channel map, got C={t.shape[0]}")
    return t[0].astype(float)


def write_pca(path, model: PcaModel) -> None:
    """KMVP: magic, C, K (u32), mean (C f32), basis (C*K f32 column-major)."""
    with open(path, "wb") as f:
        f.write(PCA_MAGIC)
        f.write(struct.pack("<2I", model.input_dim, model.output_dim))
        f.write(model.mean.astype("<f4").tobytes())
        f.write(np.asfortranarray(model.basis.astype("<f4")).tobytes(order="F"))


def read_pca(path) -> PcaModel:
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != PCA_MAGIC:
            raise FileFormatError(f"{path}: bad PCA magic {magic!r}")
        header = f.read(8)
        if len(header) != 8:
            raise FileFormatError(f"{path}: truncated PCA header")
        c, k = struct.unpack("<2I", header)
        mean = np.frombuffer(f.read(4 * c), dtype="<f4").astype(float)
        basis_raw = f.read(4 * c * k)
        if len(basis_raw) != 4 * c * k:
            raise FileFormatError(f"{path}: truncated PCA basis")
        basis = np.frombuffer(basis_raw, dtype="<f4").reshape(k, c).T.astype(float)
        return PcaModel(mean, basis)


def write_trajectory(path, poses, timestamps=None, world_to_camera: bool = True) -> None:
    """TUM text trajectory: `timestamp tx ty tz qx qy qz qw` per line.

    Files always store camera-to-world (camera position + orientation); pass
    world_to_camera=False when the poses are already camera-to-world.
    """
    if timestamps is None:
        timestamps = [float(k) for k in range(len(poses))]
    lines = []
    for ts, pose in zip(timestamps, poses):
        c2w = pose.inverse() if world_to_camera else pose
        t = c2w.translation
        q = c2w.rotation
        lines.append(" ".join(repr(float(v)) for v in (ts, t[0], t[1], t[2],
                                                       q[0], q[1], q[2], q[3])))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path):
    """Parse a TUM trajectory; returns (timestamps (N,), positions (N, 3), quaternions (N, 4)).

    Positions/quaternions are camera-to-world as stored.
    """
    path = Path(path)
    timestamps, positions, quats = [], [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise FileFormatError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        vals = [float(p) for p in parts]
        timestamps.append(vals[0])
        positions.append(vals[1:4])
        quats.append(vals[4:8])
    if not timestamps:
        raise FileFormatError(f"{path}: empty trajectory")
    return np.array(timestamps), np.array(positions), np.array(quats)


def write_point_cloud(path, points, labels=None) -> None:
    """Binary little-endian PLY with float x/y/z and an int32 label per vertex."""
    points = np.asarray(points)
    n = points.shape[0]
    if labels is None:
        labels = np.full(n, -1, dtype=np.int32)
    labels = np.asarray(labels, dtype=np.int32)
    if labels.shape[0] != n:
        raise ValueError("labels must match the point count")
    header = "\n".join([
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property int label",
        "end_header",
    ]) + "\n"
    rec = np.empty(n, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("label", "<i4")])
    rec["x"], rec["y"], rec["z"] = (points[:, k].astype("<f4") for k in range(3))
    rec["label"] = labels
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.tobytes())


def read_point_cloud(path):
    """Read a PLY written by write_point_cloud; returns (points (N, 3) f32, labels (N,) i32 or None)."""
    path = Path(path)
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply\n") or end < 0:
        raise FileFormatError(f"{path}: not a PLY file")
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()
    if "format binary_little_endian 1.0" not in header_lines:
        raise FileFormatError(f"{path}: unsupported PLY format")
    n = None
    fields = []
    for line in header_lines:
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("property"):
            _, ptype, name = line.split()
            fields.append((name, {"float": "<f4", "int": "<i4"}[ptype]))
    if n is None or [f[0] for f in fields[:3]] != ["x", "y", "z"]:
        raise FileFormatError(f"{path}: unexpected PLY layout")
    rec = np.frombuffer(blob[end + len(b"end_header\n"):], dtype=fields, count=n)
    points = np.stack([rec["x"], rec["y"], rec["z"]], axis=1)
    labels = rec["label"].copy() if "label" in rec.dtype.names else None
    return points, labels


def write_labelset(path, labels: LabelSet) -> None:
    """CSV-like rows `name,v1,...,vC`."""
    lines = []
    for name, vec in zip(labels.names, labels.vectors):
        lines.append(",".join([name] + [repr(float(v)) for v in vec]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_labelset(path) -> LabelSet:
    path = Path(path)
    names, rows = [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise FileFormatError(f"{path}:{lineno}: expected `name,v1,...`")
        names.append(parts[0])
        rows.append([float(p) for p in parts[1:]])
    if not names:
        raise FileFormatError(f"{path}: empty label set")
    return LabelSet(names=names, vectors=np.array(rows))


def write_seg_metrics(path, metrics: SegMetrics) -> None:
    """Per-class rows plus a trailing summary block."""
    lines = ["class,iou,acc,count,group"]
    for k, cid in enumerate(metrics.class_ids):
        name = metrics.class_names[k] if metrics.class_names else str(cid)
        lines.append(f"{name},{metrics.iou[k]:.6f},{metrics.acc[k]:.6f},"
                     f"{int(metrics.counts[k])},{metrics.groups[k]}")
    lines.append(f"summary,miou,{metrics.miou:.6f}")
    lines.append(f"summary,fmiou,{metrics.fmiou:.6f}")
    lines.append(f"summary,macc,{metrics.macc:.6f}")
    for group, vals in metrics.group_metrics.items():
        for key, val in vals.items():
            lines.append(f"summary,{key}_{group},{val:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_energy_trace(path, trace) -> None:
    lines = ["iter,E_total,E_photo_ark,E_embed,E_reg,accepted"]
    for rec in trace:
        lines.append(f"{rec.iteration},{repr(rec.e_total)},{repr(rec.e_photo_ark)},"
                     f"{repr(rec.e_embed)},{repr(rec.e_reg)},{int(rec.accepted)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _pose_to_list(pose: Pose):
    return [float(v) for v in np.concatenate([pose.translation, pose.rotation])]


def _pose_from_list(vals) -> Pose:
    vals = [float(v) for v in vals]
    return Pose(np.array(vals[3:7]), np.array(vals[0:3]))


def write_problem_bundle(out_dir, bundle) -> None:
    """Lay out a problem-bundle directory: graph.json, keyframe and edge tensors,
    plus ground_truth/ (poses, labels, masks, label set, reference cloud)."""
    out = Path(out_dir)
    (out / "keyframes").mkdir(parents=True, exist_ok=True)
    (out / "edges").mkdir(exist_ok=True)
    gt_dir = out / "ground_truth"
    gt_dir.mkdir(exist_ok=True)

    keyframes = []
    for k in range(bundle.config.num_keyframes):
        names = {
            "features": f"keyframes/kf_{k:03d}_features.kmvt",
            "disparity": f"keyframes/kf_{k:03d}_disparity.kmvt",
            "disparity_prior": f"keyframes/kf_{k:03d}_disparity_prior.kmvt",
        }
        write_tensor(out / names["features"], bundle.features[k])
        write_tensor(out / names["disparity"], bundle.init_disparity[k])
        write_tensor(out / names["disparity_prior"], bundle.prior_disparity[k])
        keyframes.append({
            "index": k,
            "stream": 0,
            "timestamp": float(k),
            "pose_w2c": _pose_to_list(bundle.init_poses[k]),
            "frozen": k == 0,
            **names,
        })
        write_tensor(gt_dir / f"kf_{k:03d}_labels.kmvt", bundle.labels[k].astype(float))
        write_tensor(gt_dir / f"kf_{k:03d}_dynamic.kmvt", bundle.dynamic_masks[k].astype(float))

    edges = []
    for obs in bundle.edges:
        stem = f"edges/e_{obs.i:03d}_{obs.j:03d}"
        write_tensor(out / f"{stem}_flow.kmvt", obs.flow)
        write_tensor(out / f"{stem}_confidence.kmvt", obs.confidence)
        edges.append({"i": obs.i, "j": obs.j, "flow": f"{stem}_flow.kmvt",
                      "confidence": f"{stem}_confidence.kmvt"})

    doc = {
        "version": 1,
        "grid": {"height": bundle.config.height, "width": bundle.config.width},
        "intrinsics": {"0": {"fx": bundle.intrinsics.fx, "fy": bundle.intrinsics.fy,
                             "cx": bundle.intrinsics.cx, "cy": bundle.intrinsics.cy}},
        "keyframes": keyframes,
        "edges": edges,
    }
    (out / "graph.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    write_trajectory(gt_dir / "trajectory.txt", bundle.gt_poses)
    names = [f"class_{c}" for c in range(bundle.class_vectors.shape[0])]
    write_labelset(gt_dir / "labelset.csv", LabelSet(names=names, vectors=bundle.class_vectors))
    points, labels = _ground_truth_cloud(bundle)
    write_point_cloud(gt_dir / "cloud.ply", points, labels)


def _ground_truth_cloud(bundle, stride: int = 2):
    """World points and class labels unprojected from the ground-truth geometry."""
    from .geometry import unproject

    pts, labs = [], []
    h, w = bundle.config.height, bundle.config.width
    for k in range(bundle.config.num_keyframes):
        ys, xs = np.mgrid[0:h:stride, 0:w:stride]
        d = bundle.gt_disparity[k][ys, xs].reshape(-1)
        ok = d > 0
        u = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(float)[ok]
        cam = unproject(u, d[ok], bundle.intrinsics)
        world = bundle.gt_poses[k].inverse().apply(cam)
        pts.append(world)
        labs.append(bundle.labels[k][ys, xs].reshape(-1)[ok])
    return np.concatenate(pts), np.concatenate(labs)


def load_problem_bundle(bundle_dir) -> KeyframeGraph:
    """Reconstruct a KeyframeGraph from a problem-bundle directory holding one camera."""
    root = Path(bundle_dir)
    graph_path = root / "graph.json"
    if not graph_path.exists():
        raise FileFormatError(f"{graph_path}: missing graph description")
    try:
        doc = json.loads(graph_path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{graph_path}: invalid JSON ({exc})") from None

    def field(obj, key, kind, where):
        value = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise FileFormatError(f"{graph_path}: {where} field {key!r} is missing or is "
                                  f"not of type {getattr(kind, '__name__', 'number')}")
        return value

    cameras = field(doc, "intrinsics", dict, "top-level")
    if len(cameras) != 1:
        raise FileFormatError(f"{graph_path}: 'intrinsics' must hold exactly one camera, "
                              f"got {cameras!r}")
    [(stream, v)] = cameras.items()
    intrinsics = Intrinsics(*(field(v, key, (int, float), f"camera {stream!r}")
                              for key in ("fx", "fy", "cx", "cy")))
    keyframes = []
    for n, entry in enumerate(field(doc, "keyframes", list, "top-level")):
        where = f"keyframes[{n}]"
        index = field(entry, "index", int, where)
        if str(entry.get("stream", stream)) != stream:
            raise FileFormatError(f"{graph_path}: keyframe {index} names stream "
                                  f"{entry['stream']!r}, but the only camera is {stream!r}")
        features = read_tensor(root / field(entry, "features", str, where)).astype(float)
        disparity = read_map(root / field(entry, "disparity", str, where))
        prior = read_map(root / field(entry, "disparity_prior", str, where))
        keyframes.append(Keyframe(
            index=index, pose=_pose_from_list(field(entry, "pose_w2c", list, where)),
            disparity=disparity, disparity_prior=prior, features=features,
            frozen=field(entry, "frozen", bool, where) if "frozen" in entry else False,
            timestamp=(field(entry, "timestamp", (int, float), where)
                       if "timestamp" in entry else None)))
    edges = []
    for n, entry in enumerate(field(doc, "edges", list, "top-level")):
        where = f"edges[{n}]"
        flow = read_tensor(root / field(entry, "flow", str, where)).astype(float)
        confidence = read_map(root / field(entry, "confidence", str, where))
        edges.append(FlowObservation(i=field(entry, "i", int, where),
                                     j=field(entry, "j", int, where), flow=flow,
                                     confidence=confidence))
    return KeyframeGraph(keyframes=keyframes, edges=edges, intrinsics=intrinsics)
