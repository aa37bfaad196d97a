"""Baseline (GPU-only) frame times, anchored to the paper's measurements.

The paper reports end-to-end FHD frame times for the hashgrid encoding
(Section III).  Frame times for the densegrid schemes are derived by
holding the absolute "rest"-kernel time fixed (ray marching and
compositing do not depend on the encoding) and applying each scheme's
kernel-time fractions.  Times scale linearly with pixel count — the
workload is embarrassingly parallel and far exceeds the GPU's occupancy
needs at any resolution of interest.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.calibration import current, paper

FHD_PIXELS = 1920 * 1080

_HASH = "multi_res_hashgrid"


def _check(app: str, scheme: str) -> None:
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    if scheme not in ENCODING_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")


def baseline_frame_time_ms(app: str, scheme: str, n_pixels=FHD_PIXELS) -> float:
    """End-to-end GPU frame time in milliseconds.

    ``n_pixels`` may be a scalar or a NumPy array of pixel counts; times
    are linear in pixels, so the result broadcasts elementwise.
    """
    _check(app, scheme)
    if (np.asarray(n_pixels) <= 0).any():
        raise ValueError("n_pixels must be positive")
    hash_total = paper.BASELINE_FHD_MS[app]
    if scheme == _HASH:
        total_fhd = hash_total
    else:
        fractions = current().kernel_fractions
        rest_abs = hash_total * fractions[(app, _HASH)][2]
        total_fhd = rest_abs / fractions[(app, scheme)][2]
    return total_fhd * (n_pixels / FHD_PIXELS)


def baseline_kernel_times_ms(
    app: str, scheme: str, n_pixels=FHD_PIXELS
) -> Dict[str, float]:
    """Per-kernel-class times: encoding, mlp, rest and total (ms).

    Accepts scalar or array ``n_pixels`` (values broadcast elementwise).
    """
    total = baseline_frame_time_ms(app, scheme, n_pixels)
    enc_f, mlp_f, rest_f = current().kernel_fractions[(app, scheme)]
    return {
        "encoding": total * enc_f,
        "mlp": total * mlp_f,
        "rest": total * rest_f,
        "total": total,
    }


def achieved_fps(app: str, scheme: str, n_pixels: int) -> float:
    """Frames per second the GPU baseline sustains at ``n_pixels``."""
    return 1000.0 / baseline_frame_time_ms(app, scheme, n_pixels)


def performance_gap(
    app: str,
    scheme: str = _HASH,
    n_pixels: int = paper.RESOLUTIONS["4k"],
    fps: float = 60.0,
) -> float:
    """Desired-over-achieved performance ratio (>1 means a gap).

    The paper's headline: 55.50x (NeRF), 6.68x (NSDF), 1.51x (NVR) for
    4K at 60 FPS; GIA meets the target (gap < 1).
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    budget_ms = 1000.0 / fps
    return baseline_frame_time_ms(app, scheme, n_pixels) / budget_ms
