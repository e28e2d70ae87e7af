"""Canned scenario generators reproducing the paper's simulations.

These mirror §2's feasibility simulations and the challenge cases of
Figure 1 and Figure 7:

- :func:`single_server_cpu` — Figure 1(a): one server, N(0.5, 0.01),
  +0.005% mid-series, clipped to [0, 1].
- :func:`process_level_average` — Figure 2: the average of *m* servers of
  two generations (N(0.40, 0.01) gaining +0.003% and N(0.60, 0.02)
  gaining +0.007% mid-series).
- :func:`subroutine_level_average` — Figure 3: the Figure 2 population's
  CPU spread over k=1000 subroutines, averaged over m servers.
- :func:`cost_shift_series` — Figure 1(b): a subroutine whose gCPU rises
  purely because a refactor moved code into it.
- :func:`transient_throughput_drop` — Figure 1(c): a throughput dip that
  recovers on its own.
- :func:`spike_then_regression` — Figure 7: a temporary spike mid-series
  and a true regression at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "single_server_cpu",
    "process_level_average",
    "subroutine_level_average",
    "cost_shift_series",
    "transient_throughput_drop",
    "spike_then_regression",
    "noisy_step_series",
]


def single_server_cpu(
    n_points: int = 500,
    mean: float = 0.5,
    variance: float = 0.01,
    regression: float = 0.00005,
    seed: int = 0,
) -> np.ndarray:
    """Figure 1(a): one server's CPU usage with a tiny mid-series shift.

    Args:
        n_points: Series length; the shift lands at the midpoint.
        mean: Pre-change mean CPU fraction (paper: 0.5).
        variance: Per-sample variance (paper: 0.01).
        regression: Absolute mean increase (paper: 0.00005 = 0.005%).
        seed: RNG seed.

    Returns:
        The series, clipped to [0, 1].
    """
    rng = np.random.default_rng(seed)
    std = np.sqrt(variance)
    half = n_points // 2
    before = rng.normal(mean, std, half)
    after = rng.normal(mean + regression, std, n_points - half)
    return np.clip(np.concatenate([before, after]), 0.0, 1.0)


def process_level_average(
    m_servers: int,
    n_points: int = 500,
    seed: int = 0,
) -> np.ndarray:
    """Figure 2: average CPU of ``m_servers`` across two generations.

    Half the servers are N(0.40, 0.01) regressing by +0.003% mid-series;
    the other half N(0.60, 0.02) regressing by +0.007% — the same code
    change performing differently across generations.

    Rather than materializing ``m`` series, the average of ``m`` IID
    normals is drawn directly from its exact sampling distribution
    ``N(mu, sigma^2 / m)`` — the Law of Large Numbers shortcut the
    figure itself illustrates.  Clipping is negligible at these means.
    """
    rng = np.random.default_rng(seed)
    half_m = m_servers / 2.0
    half_n = n_points // 2

    def segment(mu_a: float, mu_b: float, length: int) -> np.ndarray:
        # Mean of the two-generation mixture; variance of the average of
        # m/2 draws at 0.01 plus m/2 draws at 0.02.
        mixture_mean = (mu_a + mu_b) / 2.0
        variance = (0.01 + 0.02) / 2.0 / m_servers
        return rng.normal(mixture_mean, np.sqrt(variance), length)

    before = segment(0.40, 0.60, half_n)
    after = segment(0.40 + 0.00003, 0.60 + 0.00007, n_points - half_n)
    return np.concatenate([before, after])


def _censored_normal_moments(mu: float, sigma: float) -> Tuple[float, float]:
    """Mean and variance of ``max(N(mu, sigma^2), 0)`` (censored at zero)."""
    from scipy import stats as sp_stats

    alpha = mu / sigma
    phi = float(sp_stats.norm.pdf(alpha))
    cdf = float(sp_stats.norm.cdf(alpha))
    mean = mu * cdf + sigma * phi
    second_moment = (mu ** 2 + sigma ** 2) * cdf + mu * sigma * phi
    return mean, max(second_moment - mean ** 2, 0.0)


def subroutine_level_average(
    m_servers: int,
    k_subroutines: int = 1000,
    n_points: int = 500,
    seed: int = 0,
) -> np.ndarray:
    """Figure 3: one subroutine's gCPU-scale CPU averaged over ``m_servers``.

    The process-level CPU of Figure 2 is distributed across ``k``
    subroutines, so the per-subroutine mean shrinks by ``k`` and the
    variance by ``k`` (Expression 2); the regression under study lands in
    *this* subroutine, so its full magnitude (0.003%/0.007% by server
    generation) appears here.  Per-server samples are censored at zero,
    which (per the paper's footnote 2) raises the sample mean above
    ``mu / k`` — visible in Figure 3's ~0.17% level versus the naive
    0.05%.

    As in :func:`process_level_average`, the average over ``m`` servers
    is drawn from its exact CLT distribution using censored-normal
    moments, so hyperscale fleets simulate in microseconds.
    """
    rng = np.random.default_rng(seed)
    half_n = n_points // 2
    k = k_subroutines

    def segment(regression: Tuple[float, float], length: int) -> np.ndarray:
        # Two generations: (mu, sigma^2) of (0.40, 0.01) and (0.60, 0.02)
        # at the process level, scaled to one of k subroutines; the
        # regression adds to this subroutine's mean in full.
        mean_a, var_a = _censored_normal_moments(
            0.40 / k + regression[0], np.sqrt(0.01 / k)
        )
        mean_b, var_b = _censored_normal_moments(
            0.60 / k + regression[1], np.sqrt(0.02 / k)
        )
        mixture_mean = (mean_a + mean_b) / 2.0
        mixture_var = (var_a + var_b) / 2.0 / m_servers
        return rng.normal(mixture_mean, np.sqrt(mixture_var), length)

    before = segment((0.0, 0.0), half_n)
    after = segment((0.00003, 0.00007), n_points - half_n)
    return np.concatenate([before, after])


def cost_shift_series(
    n_points: int = 500,
    target_gcpu: float = 0.0001,
    shifted_gcpu: float = 0.0003,
    noise_std: float = 0.00002,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Figure 1(b): a refactor moves cost into the target subroutine.

    Returns:
        ``(target_series, domain_series)`` — the target subroutine's gCPU
        (which jumps from ``target_gcpu`` to ``target_gcpu +
        shifted_gcpu``) and the enclosing cost domain's gCPU (which stays
        flat, revealing the false positive).
    """
    rng = np.random.default_rng(seed)
    half = n_points // 2
    target = np.concatenate(
        [
            rng.normal(target_gcpu, noise_std, half),
            rng.normal(target_gcpu + shifted_gcpu, noise_std, n_points - half),
        ]
    )
    domain_level = target_gcpu + shifted_gcpu + 0.0004
    domain = rng.normal(domain_level, noise_std * 2, n_points)
    return np.clip(target, 0.0, 1.0), np.clip(domain, 0.0, 1.0)


def transient_throughput_drop(
    n_points: int = 500,
    drop_start: Optional[int] = None,
    drop_length: int = 40,
    seed: int = 0,
) -> np.ndarray:
    """Figure 1(c): throughput (120 ± 4) halves for a while, then fully recovers."""
    rng = np.random.default_rng(seed)
    series = rng.normal(120.0, 4.0, n_points)
    start = drop_start if drop_start is not None else int(0.55 * n_points)
    end = min(n_points, start + drop_length)
    series[start:end] *= 0.5
    return np.maximum(series, 0.0)


def spike_then_regression(
    n_points: int = 500,
    base: float = 0.001,
    spike_magnitude: float = 0.0008,
    regression_magnitude: float = 0.0004,
    noise_std: float = 0.00004,
    seed: int = 0,
) -> np.ndarray:
    """Figure 7: a transient spike mid-series, a true regression at the end.

    The went-away detector must not let the spike mask the regression:
    the spike and the end regression have different post-change patterns,
    so they are "caused by different reasons".
    """
    rng = np.random.default_rng(seed)
    series = rng.normal(base, noise_std, n_points)
    spike_start = int(0.45 * n_points)
    spike_end = spike_start + max(4, n_points // 25)
    series[spike_start:spike_end] += spike_magnitude
    regression_start = int(0.85 * n_points)
    series[regression_start:] += regression_magnitude
    return np.maximum(series, 0.0)


def noisy_step_series(
    n_points: int,
    change_index: int,
    base: float,
    shift: float,
    noise_std: float,
    seed: int = 0,
) -> np.ndarray:
    """A generic step series: N(base, noise) then N(base+shift, noise)."""
    rng = np.random.default_rng(seed)
    series = rng.normal(base, noise_std, n_points)
    series[change_index:] += shift
    return series
