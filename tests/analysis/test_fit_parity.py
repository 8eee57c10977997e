"""The Sec. III fits equal, bit for bit, the scipy fits they replaced.

``fit_zipf`` and ``fit_heaps`` once called ``scipy.stats.linregress``
and ``size_distribution`` called ``scipy.stats.norm.fit``.  The values
below are what those scipy calls returned (scipy 1.17, numpy 2.4),
recorded as ``float.hex`` strings; the numpy fits must reproduce them
exactly, with no scipy installed.  Where scipy is importable, the fits
are also compared against it live.

``np.log`` rounds a few inputs in ten thousand differently depending on
the SIMD kernel numpy dispatches to.  These inputs give the recorded
values under the x86 AVX-512, AVX2 and baseline kernels alike (checked
with ``NPY_DISABLE_CPU_FEATURES``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ingredient_usage import cuisine_ingredient_curves, fit_zipf
from repro.analysis.least_squares import linear_fit
from repro.analysis.rank_frequency import RankFrequencyCurve
from repro.analysis.size_distribution import (
    aggregate_size_distribution,
    cuisine_size_distributions,
    size_distribution,
)
from repro.analysis.vocabulary_growth import (
    fit_heaps,
    growth_from_sets,
    vocabulary_growth_curve,
)
from repro.lexicon.categories import Category
from repro.models.copy_mutate import CopyMutateRandom
from repro.models.params import CuisineSpec

#: ``(exponent, intercept, r_squared)`` per cuisine of ``small_corpus``.
ZIPF = {
    "ITA": ("0x1.40238c8e1e184p+0", "0x1.cda636ff3c1f8p-1", "0x1.eef6e2db9bd3fp-1"),
    "KOR": ("0x1.241a0562f14c6p+0", "0x1.6775e57dd8a00p-1", "0x1.dedfeff4458dep-1"),
    "MEX": ("0x1.4086486cbb0aep+0", "0x1.f83e0b710b408p-1", "0x1.ec2e2d7e75d9fp-1"),
}
#: ``(k, beta, r_squared)`` of ``small_corpus``'s ITA vocabulary growth.
HEAPS_EMPIRICAL = (
    "0x1.2373edd8541bdp+4", "0x1.e69ff901340a5p-2", "0x1.ebd7b7c1cdfbep-1"
)
#: ``(k, beta, r_squared)`` of one CM-R run's vocabulary growth.
HEAPS_MODEL = (
    "0x1.b33d3f7e7e7d3p+2", "0x1.39b034cc48cafp-2", "0x1.9f46a0c789a6bp-1"
)
#: ``(gaussian_mu, gaussian_sigma)`` per cuisine and pooled (``ALL``).
GAUSSIAN = {
    "ITA": ("0x1.158e435bd609fp+3", "0x1.906156a0b00a4p+1"),
    "KOR": ("0x1.0dd67c8a60dd6p+3", "0x1.96ff6acc5da8ep+1"),
    "MEX": ("0x1.1d4fab054fab0p+3", "0x1.98f3f0a9b971fp+1"),
    "ALL": ("0x1.1866054508538p+3", "0x1.945aac025e0fap+1"),
}


def _hex(*values: float) -> tuple[str, ...]:
    # Comparing hex strings is exact equality that also matches nan and
    # tells 0.0 from -0.0.
    return tuple(float(value).hex() for value in values)


def _zipf(fit) -> tuple[str, ...]:
    return _hex(fit.exponent, fit.intercept, fit.r_squared)


def _heaps(fit) -> tuple[str, ...]:
    return _hex(fit.k, fit.beta, fit.r_squared)


def _model_growth() -> np.ndarray:
    spec = CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(60)),
        categories=tuple([Category.SPICE] * 60),
        avg_recipe_size=5.0,
        n_recipes=200,
        phi=0.3,
    )
    return growth_from_sets(CopyMutateRandom().run(spec, seed=1).transactions)


def test_zipf_fits_match_recorded(small_corpus):
    curves = cuisine_ingredient_curves(small_corpus)
    assert {code: _zipf(fit_zipf(curve)) for code, curve in curves.items()} == ZIPF


def test_heaps_fits_match_recorded(small_corpus):
    empirical = vocabulary_growth_curve(small_corpus.cuisine("ITA"))
    assert _heaps(fit_heaps(empirical)) == HEAPS_EMPIRICAL
    assert _heaps(fit_heaps(_model_growth())) == HEAPS_MODEL


def test_gaussian_fits_match_recorded(small_corpus):
    fits = {
        code: _hex(dist.gaussian_mu, dist.gaussian_sigma)
        for code, dist in cuisine_size_distributions(small_corpus).items()
    }
    pooled = aggregate_size_distribution(small_corpus)
    fits["ALL"] = _hex(pooled.gaussian_mu, pooled.gaussian_sigma)
    assert fits == GAUSSIAN


def test_constant_values_take_the_zero_spread_path():
    # Every ingredient in every recipe: log frequencies are all 0.
    flat = fit_zipf(RankFrequencyCurve("c", np.ones(5)))
    assert _zipf(flat) == ("-0x0.0p+0", "0x0.0p+0", "nan")
    assert _heaps(fit_heaps([1] * 6)) == ("0x1.0000000000000p+0", "0x0.0p+0", "nan")
    assert _heaps(fit_heaps([7] * 6)) == ("0x1.bffffffffffffp+2", "0x0.0p+0", "nan")


def test_three_points():
    curve = RankFrequencyCurve("t", np.array([0.5, 0.3, 0.1]))
    assert _zipf(fit_zipf(curve)) == (
        "0x1.62f6ea97b606ap+0", "-0x1.24be08094604ap-1", "0x1.c12edd9181fbep-1"
    )
    assert _heaps(fit_heaps([2, 3, 5])) == (
        "0x1.eb2bf925de571p+0", "0x1.9d4c3a0eb9fa9p-1", "0x1.e868a580ed15ap-1"
    )


def test_single_distinct_size_has_zero_sigma():
    dist = size_distribution(np.full(7, 9, dtype=np.int64), "one")
    assert _hex(dist.gaussian_mu, dist.gaussian_sigma) == (
        "0x1.2000000000000p+3", "0x0.0p+0"
    )


def _line_cases(small_corpus) -> list[tuple[np.ndarray, np.ndarray]]:
    cases = []
    for curve in cuisine_ingredient_curves(small_corpus).values():
        ranks = np.arange(1, len(curve) + 1, dtype=float)
        cases.append((np.log(ranks), np.log(curve.frequencies)))
    for growth in (
        vocabulary_growth_curve(small_corpus.cuisine("KOR")),
        _model_growth(),
        np.ones(4),
        np.array([2.0, 3.0, 5.0]),
    ):
        n = np.arange(1, growth.size + 1, dtype=float)
        cases.append((np.log(n), np.log(growth.astype(float))))
    rng = np.random.default_rng(7)
    for size in (3, 10, 1000):
        x = rng.normal(size=size)
        cases.append((x, 0.3 * x + rng.normal(size=size)))
        cases.append((x, -2.0 * x))
    return cases


def test_linear_fit_matches_scipy_live(small_corpus):
    scipy_stats = pytest.importorskip("scipy.stats")
    for x, y in _line_cases(small_corpus):
        fit = scipy_stats.linregress(x, y)
        assert _hex(*linear_fit(x, y)) == _hex(fit.slope, fit.intercept, fit.rvalue)


def test_gaussian_fit_matches_scipy_live(small_corpus):
    scipy_stats = pytest.importorskip("scipy.stats")
    samples = [small_corpus.cuisine(code).sizes() for code in ("ITA", "KOR", "MEX")]
    samples += [small_corpus.sizes(), np.full(7, 9, dtype=np.int64)]
    for sizes in samples:
        dist = size_distribution(sizes, "x")
        assert _hex(dist.gaussian_mu, dist.gaussian_sigma) == _hex(
            *scipy_stats.norm.fit(sizes)
        )
