"""Stationary analysis of finite birth-death chains.

Product-form solutions for a single queue with state-dependent service,
used as an independent oracle for both the simulator and the
uniformised control model: neither of those goes through the balance
equations, this module does nothing else.
"""

from __future__ import annotations

import numpy as np


def stationary_distribution(arrival_rate: float, service_rates, n_states: int | None = None) -> np.ndarray:
    """Stationary law of the birth-death chain on {0..N}.

    service_rates may be a scalar (constant rate), a length-N array
    giving the death rate out of states 1..N, or a callable on the
    state index.  Detailed balance gives pi_x proportional to the
    product of lambda / mu(i) over i = 1..x.
    """
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be nonnegative, got {arrival_rate}")
    if callable(service_rates):
        if n_states is None:
            raise ValueError("n_states is required when service_rates is a callable")
        mu = np.array([service_rates(i) for i in range(1, n_states + 1)], dtype=float)
    else:
        mu = np.atleast_1d(np.asarray(service_rates, dtype=float))
        if mu.size == 1 and n_states is not None:
            mu = np.full(n_states, mu[0])
    if np.any(mu <= 0):
        raise ValueError("service rates must be positive")
    with np.errstate(divide="ignore"):
        log_weights = np.concatenate(([0.0], np.cumsum(np.log(arrival_rate) - np.log(mu))))
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    return weights / weights.sum()


def expected_queue_length(pi: np.ndarray) -> float:
    return float(np.dot(np.arange(len(pi)), pi))


def truncated_mm1_queue_length(arrival_rate: float, service_rate: float, n_states: int) -> float:
    """E[n] for the M/M/1 queue truncated at N (arrivals blocked at N)."""
    pi = stationary_distribution(arrival_rate, service_rate, n_states)
    return expected_queue_length(pi)
