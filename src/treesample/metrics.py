"""Approximation-error metrics: the budget-free KL surrogate (entropy plus
expected unnormalized density), the exact KL when an oracle supplies log Z,
and the energy/entropy split of the gap.

Atom approximations are scored exactly from their weights. Samplers are
scored by Monte Carlo with a reported standard error, in one batched pass:
the sampler's sample_batch returns every draw with its log q, the graph
scores all draws at once, and the ΔKL estimate, its standard error and the
energy/entropy split all come from that one set of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logmath import NEG_INF, json_float
from .model import FactorGraph


@dataclass
class EvalReport:
    method: str
    delta_kl: float
    num_samples: int
    stderr: float | None = None
    kl: float | None = None
    log_z: float | None = None
    delta_energy: float | None = None
    delta_entropy: float | None = None
    budget: int | None = None
    budget_spent: int | None = None
    oracle: str | None = None
    wall_clock_s: float | None = None  # telemetry only, excluded from determinism

    def to_json_dict(self) -> dict:
        return {k: json_float(v) if isinstance(v, float) else v for k, v in self.__dict__.items()}


class SamplerEstimate(NamedTuple):
    """Monte Carlo estimates from one set of draws x_i ~ q.

    delta_kl = mean(log q(x_i) - log-density(x_i)) with its standard error,
    energy = mean(log-density(x_i)) and entropy = -mean(log q(x_i)). For an
    atom approximation the means are exact sums over the atoms' weights, and
    the standard error is 0.
    """

    delta_kl: float
    stderr: float
    energy: float
    entropy: float


def sampler_estimate(log_q: np.ndarray, log_density: np.ndarray) -> SamplerEstimate:
    """SamplerEstimate from per-draw log q and log-density arrays.

    A draw of zero target mass (log-density -inf) makes the ΔKL estimate and
    its standard error +inf.
    """
    num = len(log_q)
    energy = float(np.mean(log_density))
    entropy = -float(np.mean(log_q))
    if energy == NEG_INF:
        return SamplerEstimate(math.inf, math.inf, energy, entropy)
    terms = log_q - log_density
    stderr = float(np.std(terms, ddof=1) / math.sqrt(num)) if num > 1 else 0.0
    return SamplerEstimate(float(np.mean(terms)), stderr, energy, entropy)


def delta_kl_sampler(sampler, graph: FactorGraph, num_samples: int, seed: int = 0) -> SamplerEstimate:
    """E[log P_X(X) - log-density(X)] over the sampler, with its stderr and
    the energy and entropy of the same draws.

    One batched pass: sampler.sample_batch draws every configuration with
    its log q, and the graph scores all of them at once.
    """
    xs, log_q = sampler.sample_batch(num_samples, np.random.default_rng(seed))
    return sampler_estimate(log_q, graph.log_unnormalized_density_batch(xs))


def _atoms_estimate(approx, graph: FactorGraph) -> SamplerEstimate:
    """SamplerEstimate of an atom approximation, scoring every atom in one
    batched call. A zero-mass atom (log-density -inf, weight > 0) makes
    delta_kl +inf and the energy -inf."""
    atoms = approx.atoms
    log_densities = graph.log_unnormalized_density_batch(atoms).tolist() if atoms else []
    delta_kl = energy = entropy = 0.0
    for w, ld in zip(approx.weights, log_densities):
        log_w = math.log(w)
        delta_kl += w * (log_w - ld)
        energy += w * ld
        entropy -= w * log_w
    return SamplerEstimate(delta_kl, 0.0, energy, entropy)


def delta_kl_atoms(atoms, graph: FactorGraph) -> float:
    """Exact surrogate for an atom approximation:
    sum_i p_i log p_i - sum_i p_i * log-density(x_i). No sampling involved."""
    return _atoms_estimate(atoms, graph).delta_kl


def _estimate(approx, graph: FactorGraph, num_samples: int, seed: int) -> SamplerEstimate:
    """Exact for atoms; num_samples Monte Carlo draws for samplers."""
    if getattr(approx, "atoms", None) is not None:
        return _atoms_estimate(approx, graph)
    return delta_kl_sampler(approx, graph, num_samples, seed)


def _oracle_deltas(oracle, est: SamplerEstimate):
    """(delta_energy, delta_entropy) of an estimate's energy and entropy.

    The oracle's entropy H* is computed once, and E* = log Z - H*.
    """
    h_star = oracle.entropy()
    e_star = oracle.log_z - h_star
    delta_energy = e_star - est.energy if est.energy > NEG_INF else math.inf
    return delta_energy, est.entropy - h_star


def energy_entropy_deltas(approx, oracle, graph: FactorGraph, num_samples: int = 10_000, seed: int = 0):
    """(delta_energy, delta_entropy) against an exact oracle.

    delta_energy = E*[sum psi] - E_approx[sum psi] (lower is better);
    delta_entropy = H[approx] - H[P*] (higher is better). Exact for atoms,
    by Monte Carlo over num_samples draws for samplers.
    """
    return _oracle_deltas(oracle, _estimate(approx, graph, num_samples, seed))


def evaluate_method(
    method: str,
    approx,
    graph: FactorGraph,
    oracle=None,
    num_samples: int = 10_000,
    seed: int = 0,
    budget: int | None = None,
) -> EvalReport:
    """Full report for one finished approximation; exact KL and the
    energy/entropy split are filled in only when an oracle is available.
    The split comes from the same atoms or draws as the ΔKL estimate."""
    est = _estimate(approx, graph, num_samples, seed)
    atoms = getattr(approx, "atoms", None)
    report = EvalReport(
        method=method,
        delta_kl=est.delta_kl,
        num_samples=num_samples if atoms is None else len(atoms),
        stderr=est.stderr,
        budget=budget,
        budget_spent=approx.budget_spent,
    )
    if oracle is not None:
        report.log_z = oracle.log_z
        report.kl = est.delta_kl + oracle.log_z
        report.delta_energy, report.delta_entropy = _oracle_deltas(oracle, est)
        report.oracle = type(oracle).__name__
    return report
