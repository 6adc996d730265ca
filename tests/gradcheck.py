"""Finite-difference gradient checker for the autodiff engine.

finite_difference_check() compares analytic gradients against central
differences, skipping coordinates whose perturbation lands on or crosses an
activation kink (those points have no two-sided derivative to agree with).
KinkRecorder finds the kinks through autodiff.kink_hook, which every kinked
op reaches through autodiff.kink. weighted_sum turns an op's output into the
scalar a test differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from proxyrec import autodiff
from proxyrec.autodiff import Tensor


def weighted_sum(*terms) -> Tensor:
    """sum(t * w) over the pairs t, w in terms (t1, w1, t2, w2, ...), each w
    a fixed array, as one recorded op: a scalar whose gradient in each t is
    its w (summed where a t repeats)."""
    pairs = [(t, np.asarray(w, dtype=np.float64)) for t, w in zip(terms[::2], terms[1::2])]

    def backward(g):
        for t, w in pairs:
            t.accum(g * w)

    total = sum((t.data * w).sum() for t, w in pairs)
    return Tensor.record(total, tuple(t for t, _ in pairs), backward)


class KinkRecorder:
    """Collects copies of the kinked pre-activation arrays that the block
    ops (the selector's leaky relu; the encoder's query, key and head relus;
    the loss head's hinge and orthogonality term) report through
    autodiff.kink, which hands each to autodiff.kink_hook.

    Used as a context manager around a forward evaluation. Two evaluations of
    the same deterministic graph produce aligned lists, which lets the
    finite-difference checker detect a kink sitting between or near the two
    perturbed points. The hook is cleared on exit, also when the body raises.
    """

    def __init__(self):
        self.preacts: list[np.ndarray] = []

    def __enter__(self):
        if autodiff.kink_hook is not None:
            raise RuntimeError("nested KinkRecorder")
        autodiff.kink_hook = lambda arr: self.preacts.append(np.array(arr, copy=True))
        return self

    def __exit__(self, *exc):
        autodiff.kink_hook = None
        return False

    def flat(self) -> np.ndarray:
        if not self.preacts:
            return np.empty(0)
        return np.concatenate([a.ravel() for a in self.preacts])


@dataclass
class FdReport:
    """Outcome of one finite-difference sweep over named parameters."""

    max_rel_err: float
    per_tensor: dict[str, float] = field(default_factory=dict)
    checked: int = 0
    skipped: int = 0

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


def _rel_err(a: float, b: float) -> float:
    # floor near the certification limit of central differences on an O(1)
    # objective: below ~1e-6 total magnitude the quotient is cancellation
    # noise in f(x+h)-f(x-h), not gradient signal
    return abs(a - b) / max(1e-6, abs(a) + abs(b))


def finite_difference_check(
    objective,
    leaves: dict[str, Tensor],
    *,
    h: float = 1e-5,
    max_coords: int = 1000,
    kink_margin: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> FdReport:
    """Compare analytic gradients of objective() against central differences.

    objective is a zero-argument callable returning a scalar Tensor built from
    the given leaves; it is re-evaluated with individual coordinates nudged by
    +/- h. Tensors larger than max_coords get a random coordinate subsample.
    A coordinate is skipped when either perturbed evaluation drives some
    kinked pre-activation within kink_margin of zero, or flips its sign
    between the two evaluations: the two-sided difference quotient is not
    meaningful across a kink.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for t in leaves.values():
        t.grad = None
    out = objective()
    out.backward()
    grads = {}
    for name, t in leaves.items():
        grads[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()

    report = FdReport(max_rel_err=0.0)
    for name, t in leaves.items():
        size = t.data.size
        if size > max_coords:
            coords = rng.choice(size, size=max_coords, replace=False)
        else:
            coords = np.arange(size)
        worst = 0.0
        for c in coords:
            saved = t.data.flat[c]
            t.data.flat[c] = saved + h
            # the graph a perturbed evaluation records is freed with the
            # scalar it returns: no closure refers to its own output
            with KinkRecorder() as rec_plus:
                f_plus = float(objective().data)
            t.data.flat[c] = saved - h
            with KinkRecorder() as rec_minus:
                f_minus = float(objective().data)
            t.data.flat[c] = saved
            pre_p = rec_plus.flat()
            pre_m = rec_minus.flat()
            near = (np.abs(pre_p) < kink_margin).any() or (np.abs(pre_m) < kink_margin).any()
            crossed = pre_p.size == pre_m.size and (np.sign(pre_p) != np.sign(pre_m)).any()
            if near or crossed:
                report.skipped += 1
                continue
            fd = (f_plus - f_minus) / (2.0 * h)
            err = _rel_err(float(grads[name].flat[c]), fd)
            worst = max(worst, err)
            report.checked += 1
        report.per_tensor[name] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report
