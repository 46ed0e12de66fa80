"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images/audio/video are carried as ``binary`` columns with a metadata
struct; decode / feature-extract / resize / frame-sample run as
task ``map_batches`` stages (a callable-class instance each).

Decode is REAL for PNG, binary PPM, and baseline JPEG — pure-stdlib
codecs implemented from the public specs (``functions/imagecodec.py``:
zlib container + scanline unfiltering, netpbm header;
``functions/jpegcodec.py``: T.81 sequential DCT + Annex K tables) — so
the pipeline exercises true pixel math (decode → nearest-resize →
feature extraction). The remaining codec-bound formats (WEBP/video,
progressive JPEG) stay behind the stub boundary:
``require_real_codecs=True`` raises ``NotImplementedError`` when a
payload is not a format the in-repo codecs can decode, while the
default falls back to a deterministic fake for them (exercising the
Ray-side plumbing). The reference's analogue: rasterizer/OCR engines
behind factory seams (deed_ocr/utils/pdf_converter.py:17-26,
deed_ocr/ocr/vision_ocr.py:24-46).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.imagecodec import (
    PNG_MAGIC,
    decode_png,
    decode_ppm,
    encode_png,
    image_features,
    png_info,
    resize_nearest,
)
from ..functions.jpegcodec import JPEG_MAGIC, decode_jpeg, jpeg_info
from ..functions.wavcodec import WAV_MAGIC, audio_features, decode_wav, wav_info
from ..sources.pages import read_pq

# For audio payloads the image-shaped fields carry (width := n_samples,
# height := channels); n_frames stays 1.
MEDIA_META_TYPE = pa.struct(
    [
        ("format", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_frames", pa.int32()),
        ("bytes", pa.int64()),
        ("sha1", pa.string()),
    ]
)


def sniff_media(payload: bytes) -> str:
    if payload.startswith(PNG_MAGIC):
        return "png"
    if payload.startswith(b"P6"):
        return "ppm"
    if payload.startswith(JPEG_MAGIC):
        return "jpeg"
    if payload.startswith(WAV_MAGIC) and payload[8:12] == b"WAVE":
        return "wav"
    return "unknown"


def _fake_decode(payload: bytes) -> dict:
    """Deterministic stand-in decoder for formats without an in-repo
    codec: metadata derived purely from the payload bytes (stable
    across runs/platforms)."""
    h = hashlib.sha1(payload).digest()
    return {
        "format": ["jpeg", "webp", "tiff", "mp4"][h[0] % 4],
        "width": 64 + (h[1] % 64) * 16,
        "height": 64 + (h[2] % 64) * 16,
        "n_frames": 1 + h[3] % 4,
        "bytes": len(payload),
        "sha1": h.hex(),
    }


def decode_image(payload: bytes) -> np.ndarray:
    """Real pixel decode for the in-repo codecs. Raises
    ``NotImplementedError`` for anything else — the stub boundary."""
    kind = sniff_media(payload)
    if kind == "png":
        return decode_png(payload)
    if kind == "ppm":
        return decode_ppm(payload)
    if kind == "jpeg":
        return decode_jpeg(payload)
    raise NotImplementedError(
        "no in-repo codec for this payload (PNG/PPM/baseline-JPEG decode "
        "is real; WEBP/video need external codecs absent from this "
        "environment)"
    )


class MediaDecoder:
    """Decode stage: binary column in, metadata struct out.

    PNG/PPM/JPEG payloads get REAL header/pixel-derived metadata; other
    formats use the deterministic fake unless ``require_real_codecs``
    (then they raise at decode time — the per-format stub boundary).

    Keep ``batch_size`` SMALL for fat binary rows (payload × batch ×
    concurrent tasks must fit the worker heap); the pipeline builder below
    defaults to 32 rows/batch for exactly that reason.
    """

    def __init__(self, payload_column: str = "payload",
                 require_real_codecs: bool = False) -> None:
        self.payload_column = payload_column
        self.require_real_codecs = require_real_codecs

    def _meta(self, payload: bytes) -> dict:
        kind = sniff_media(payload)
        try:
            if kind == "png":
                w, h, _ = png_info(payload)
            elif kind == "ppm":
                arr = decode_ppm(payload)
                h, w = arr.shape[:2]
            elif kind == "jpeg":
                w, h, _ = jpeg_info(payload)
            elif kind == "wav":
                w, h, _rate = wav_info(payload)  # n_samples, channels
            elif self.require_real_codecs:
                decode_image(payload)  # raises NotImplementedError
                raise AssertionError("unreachable")
            else:
                return _fake_decode(payload)
        except (ValueError, NotImplementedError):
            # Lenient mode stays TOTAL: bytes that merely sniff as
            # PNG/PPM/JPEG but are malformed fall back to the
            # deterministic fake instead of failing the whole map task.
            if self.require_real_codecs:
                raise
            return _fake_decode(payload)
        return {
            "format": kind,
            "width": int(w),
            "height": int(h),
            "n_frames": 1,
            "bytes": len(payload),
            "sha1": hashlib.sha1(payload).hexdigest(),
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        metas = [
            self._meta(p if p is not None else b"")
            for p in t[self.payload_column].to_pylist()
        ]
        return t.drop_columns([self.payload_column]).append_column(
            "media_meta", pa.array(metas, type=MEDIA_META_TYPE)
        )


class ImageFeatures:
    """Stage doing REAL pixel work per row: decode
    (PNG/PPM/JPEG) → nearest-resize to ``thumb`` × ``thumb`` → feature
    extraction
    (channel means, std, brightness-histogram entropy). The A4
    model-weights analogue with actual math instead of a stub."""

    def __init__(self, payload_column: str = "payload", thumb: int = 32) -> None:
        self.payload_column = payload_column
        self.thumb = thumb

    def __call__(self, t: pa.Table) -> pa.Table:
        cols = {"doc_id": [], "width": [], "height": [],
                "mean_r": [], "mean_g": [], "mean_b": [], "std": [], "entropy": []}
        for did, p in zip(t["doc_id"].to_pylist(), t[self.payload_column].to_pylist()):
            img = decode_image(bytes(p))
            h, w = img.shape[:2]
            feats = image_features(resize_nearest(img, self.thumb, self.thumb))
            cols["doc_id"].append(did)
            cols["width"].append(w)
            cols["height"].append(h)
            for k in ("mean_r", "mean_g", "mean_b", "std", "entropy"):
                cols[k].append(feats[k])
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], type=pa.int64()),
            "width": pa.array(cols["width"], type=pa.int32()),
            "height": pa.array(cols["height"], type=pa.int32()),
            "mean_r": pa.array(cols["mean_r"], type=pa.float64()),
            "mean_g": pa.array(cols["mean_g"], type=pa.float64()),
            "mean_b": pa.array(cols["mean_b"], type=pa.float64()),
            "std": pa.array(cols["std"], type=pa.float64()),
            "entropy": pa.array(cols["entropy"], type=pa.float64()),
        })


class FrameSampler:
    """Frame-sampling stage (video analogue of the PDF
    page-explode S2): emits one row per sampled frame index, payload
    replaced by a per-frame sha1 (the stub 'decoded frame')."""

    def __init__(self, every_n: int = 1) -> None:
        self.every_n = max(1, every_n)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, frames, keys = [], [], []
        metas = t["media_meta"].to_pylist()
        id_col = t["doc_id"].to_pylist()
        for did, m in zip(id_col, metas):
            for f in range(0, m["n_frames"], self.every_n):
                ids.append(did)
                frames.append(f)
                keys.append(hashlib.sha1(f"{m['sha1']}:{f}".encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "frame_idx": pa.array(frames, type=pa.int32()),
            "frame_key": pa.array(keys, type=pa.string()),
        })


def synth_png(doc_id: int, w: int = 24, h: int = 16) -> bytes:
    """Deterministic RGB PNG payload for a doc_id (fixture generator —
    real encoded pixels, stable across runs/platforms)."""
    rng = np.random.RandomState(doc_id & 0x7FFFFFFF)
    base = rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)
    y = np.arange(h, dtype=np.uint16)[:, None, None]
    img = ((base.astype(np.uint16) + y * 5) % 256).astype(np.uint8)
    return encode_png(img, filter_type=doc_id % 5)  # exercise every filter


def synth_jpeg(doc_id: int, w: int = 24, h: int = 16) -> bytes:
    """Deterministic baseline-JPEG payload for a doc_id — smooth
    gradient content (JPEG-friendly), 4:2:0 for odd ids so both
    sampling layouts flow through the pipeline."""
    from ..functions.jpegcodec import encode_jpeg

    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    img = np.stack([
        (yy * 7 + (doc_id * 31) % 97) % 256 + 0 * xx,
        (xx * 5 + (doc_id * 17) % 89) % 256 + 0 * yy,
        ((xx + yy) * 3 + doc_id % 83) % 256,
    ], axis=2).astype(np.uint8)
    return encode_jpeg(img, quality=90, subsample=bool(doc_id % 2))


def q_media_pipeline(sf_dir: str) -> "ray.data.Dataset":
    """Media plumbing demo over documents-as-payloads: text bytes stand
    in for an undecodable column; decode (fake for unknown formats)
    then frame-sample. Columns: doc_id, frame_idx, frame_key.
    (No SQL oracle: stubbed decode for unknown formats.)"""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "payload": t["text"].cast(pa.binary()),
        }),
        batch_format="pyarrow",
    )
    ds = ds.map_batches(MediaDecoder(), batch_format="pyarrow", batch_size=32)
    return ds.map_batches(FrameSampler(every_n=2), batch_format="pyarrow",
                          batch_size=256)


def q_image_features(sf_dir: str) -> "ray.data.Dataset":
    """REAL image pipeline: deterministic payloads — PNG for two of
    every three docs (every scanline filter exercised), baseline JPEG
    for the third (both 4:4:4 and 4:2:0) — → in-repo decode → resize →
    features, all in task stages with small batches (fat-row
    guidance). Columns: doc_id, width, height, mean_r, mean_g, mean_b,
    std, entropy. (No SQL oracle: pixel math not expressible in SQL.)"""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def make_payloads(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "payload": pa.array(
                [synth_jpeg(int(d)) if d % 3 == 0 else synth_png(int(d))
                 for d in t["doc_id"].to_pylist()],
                type=pa.binary()),
        })

    ds = ds.map_batches(make_payloads, batch_format="pyarrow")
    return ds.map_batches(ImageFeatures(), batch_format="pyarrow", batch_size=64)


class AudioFeatures:
    """Stage doing REAL signal work per row: PCM WAV decode
    (``functions/wavcodec.py``) → mono mix → numpy features (RMS,
    zero-crossing rate, rFFT spectral centroid). The audio sibling of
    ``ImageFeatures`` — same fat-row guidance (small batches)."""

    def __init__(self, payload_column: str = "payload") -> None:
        self.payload_column = payload_column

    def __call__(self, t: pa.Table) -> pa.Table:
        cols = {"doc_id": [], "n_samples": [], "channels": [],
                "sample_rate": [], "duration_s": [], "rms": [],
                "zcr": [], "centroid_hz": []}
        for did, p in zip(t["doc_id"].to_pylist(), t[self.payload_column].to_pylist()):
            samples, rate = decode_wav(bytes(p))
            f = audio_features(samples, rate)
            cols["doc_id"].append(did)
            cols["n_samples"].append(samples.shape[0])
            cols["channels"].append(samples.shape[1])
            cols["sample_rate"].append(rate)
            for k in ("duration_s", "rms", "zcr", "centroid_hz"):
                cols[k].append(f[k])
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], type=pa.int64()),
            "n_samples": pa.array(cols["n_samples"], type=pa.int64()),
            "channels": pa.array(cols["channels"], type=pa.int32()),
            "sample_rate": pa.array(cols["sample_rate"], type=pa.int32()),
            "duration_s": pa.array(cols["duration_s"], type=pa.float64()),
            "rms": pa.array(cols["rms"], type=pa.float64()),
            "zcr": pa.array(cols["zcr"], type=pa.float64()),
            "centroid_hz": pa.array(cols["centroid_hz"], type=pa.float64()),
        })


def synth_wav(doc_id: int, rate: int = 8000, n: int = 1024) -> bytes:
    """Deterministic PCM-WAV payload for a doc_id: a two-tone sine
    mixture whose frequencies derive from the id (so centroid/zcr vary
    meaningfully across docs); stereo for odd ids, 8-bit for every
    fifth, exercising the codec's layout paths."""
    from ..functions.wavcodec import encode_wav

    f1 = 200.0 + (doc_id * 37) % 1800
    f2 = 150.0 + (doc_id * 53) % 2400
    t = np.arange(n, dtype=np.float64) / rate
    mono = 0.6 * np.sin(2 * np.pi * f1 * t) + 0.3 * np.sin(2 * np.pi * f2 * t)
    sig = np.stack([mono, -mono], axis=1) if doc_id % 2 else mono
    return encode_wav(sig, sample_rate=rate, bits=8 if doc_id % 5 == 0 else 16)


def q_audio_features(sf_dir: str) -> "ray.data.Dataset":
    """REAL audio pipeline: deterministic PCM-WAV payloads (mono/stereo,
    8/16-bit) → in-repo decode → numpy signal features, in task
    stages with small batches. Columns: doc_id, n_samples, channels,
    sample_rate, duration_s, rms, zcr, centroid_hz. (No SQL oracle:
    FFT math not expressible in SQL; exactness vs a local decode is
    asserted in tests.)"""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def make_payloads(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "payload": pa.array(
                [synth_wav(int(d)) for d in t["doc_id"].to_pylist()],
                type=pa.binary()),
        })

    ds = ds.map_batches(make_payloads, batch_format="pyarrow")
    return ds.map_batches(AudioFeatures(), batch_format="pyarrow", batch_size=64)
