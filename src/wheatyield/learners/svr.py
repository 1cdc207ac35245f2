"""Linear epsilon-insensitive support vector regression.

Minimizes 0.5*||w||^2 + c * sum_i max(0, |w.x_i + b - y_i| - epsilon) by
deterministic full-batch subgradient descent (no randomness anywhere).
Features are standardized internally; columns with zero spread stay at
zero and receive no weight. The intercept starts at mean(y), so when every
initial residual sits inside the epsilon tube the weights never move.
"""

from __future__ import annotations

import math

import numpy as np


class LinearSVR:
    kind = "svr"

    def __init__(self, params):
        self.params = params
        self.w: np.ndarray | None = None
        self.b = 0.0
        self.mu: np.ndarray | None = None
        self.scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVR":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot train on an empty matrix")
        n, d = X.shape
        p = self.params

        self.mu = X.mean(axis=0)
        sd = X.std(axis=0)
        # numerically constant columns (std at rounding level) carry no
        # information; pin them to exactly zero so they never get weight
        constant = sd <= 1e-12 * (1.0 + np.abs(self.mu))
        self.scale = np.where(constant, 1.0, sd)
        Z = (X - self.mu) / self.scale
        Z[:, constant] = 0.0

        w = np.zeros(d)
        b = float(np.mean(y))
        # Descend on the mean-form objective (same minimizer); base step is
        # proportional to the target spread and damped by large c so the
        # subgradient magnitude c*mean|z| stays step-compatible.
        eta0 = p.svr_step_size * float(np.std(y)) / max(1.0, p.svr_c)
        for t in range(p.svr_iterations):
            r = Z @ w + b - y
            s = np.sign(r) * (np.abs(r) > p.svr_epsilon)
            gw = w / n + (p.svr_c / n) * (Z.T @ s)
            gb = (p.svr_c / n) * s.sum()
            step = eta0 / math.sqrt(t + 1.0)
            w -= step * gw
            b -= step * gb
        self.w = w
        self.b = float(b)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.w is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mu) / self.scale @ self.w + self.b

    def to_state(self) -> dict:
        if self.w is None:
            raise RuntimeError("model is not fitted")
        return {
            "w": self.w.tolist(),
            "b": self.b,
            "mu": self.mu.tolist(),
            "scale": self.scale.tolist(),
        }

    def load_state(self, state: dict, n_columns: int) -> None:
        for name in ("w", "mu", "scale"):
            if not isinstance(state[name], list) or not all(
                    type(v) in (int, float) for v in state[name]):
                raise ValueError(f"{name} is not a list of numbers")
            if len(state[name]) != n_columns:
                raise ValueError(f"{name} needs one entry per column ({n_columns})")
        if type(state["b"]) not in (int, float):
            raise ValueError("b is not a number")
        if not all(v > 0 for v in state["scale"]):
            raise ValueError("a scale entry is not > 0")
        self.w = np.asarray(state["w"], dtype=np.float64)
        self.b = float(state["b"])
        self.mu = np.asarray(state["mu"], dtype=np.float64)
        self.scale = np.asarray(state["scale"], dtype=np.float64)
