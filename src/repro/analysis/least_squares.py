"""Ordinary least-squares line fit, shared by the Sec. III power-law fits.

The Zipf fit of rank-frequency curves (Kinouchi et al. [7]) and the
Heaps-law fit of vocabulary growth are both straight lines in log-log
space.  :func:`linear_fit` computes one with the textbook closed forms,
operation for operation as ``scipy.stats.linregress`` does, so the fits
are bit-identical to it without the package depending on scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear_fit"]


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line ``y ≈ intercept + slope * x``.

    Args:
        x: Abscissae; at least two distinct values.
        y: Ordinates, same length as ``x``.

    Returns:
        ``(slope, intercept, rvalue)``.  ``rvalue`` is Pearson's
        correlation clipped to [-1, 1]; when ``x`` or ``y`` has no
        spread it is 0.0, or ``nan`` when the covariance is 0 too.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    return float(slope), float(intercept), float(r)
