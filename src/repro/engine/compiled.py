"""Numba-compiled kernel tier (``kernel="jit"``) of the vectorized engine.

A native-code port of the flat kernel's per-(unit, element) slot
reductions — the decay-sum and bincount core factored out of
:meth:`repro.engine.vectorized.VectorizedEngine._low_power_flat` as
:func:`repro.engine.vectorized._reduce_tile_arrays`.  The array program is
unchanged; this module re-derives it as a scalar recurrence per segment
shape, weighted by the shape's multiplicity, under
``@numba.njit(parallel=True, cache=True)``:

* the shape tile is partitioned into contiguous blocks, each reduced by
  one ``prange`` worker into its *own* row of a per-block accumulator
  (no scatter races on shared slots);
* the per-block partials are summed once at the end.

Integer counters are exact under any summation order, so the jit tier's
verdicts and stress counts are bit-identical to the flat tier.  The float
energy sums may differ from numpy's ``bincount`` only by summation order
(associativity), which is inside the project-wide 1e-9 differential gate.

``cache=True`` persists the compiled kernel on disk, so the one-time
compile cost is paid per machine, not per process; :func:`warm` loads (or
builds) the cache eagerly with a dummy one-segment reduction, which is how
:meth:`BackendDispatcher.warm` amortizes warm-up ahead of a measured run.

This module is imported lazily by
:func:`repro.engine.vectorized.kernel_module` — never at ``import repro``
time — and its import fails cleanly (``ImportError``) when numba is
absent, which :func:`repro.engine.vectorized.resolve_kernel` turns into a
single-warning fallback to the ``"flat"`` tier.
"""

from __future__ import annotations

import math

import numba
import numpy as np

#: Cap on prange blocks: enough to saturate threads with load imbalance
#: headroom, small enough that the (n_blocks, total_slots) partials stay
#: cache-resident for typical slot counts.
MAX_BLOCKS = 64


@numba.njit(parallel=True, cache=True)
def _reduce_segments(slots, m, first, last, carry, chained, mult, delta_seg,
                     x, n_words, bits, coeff, ratio, total_slots,
                     n_blocks):
    wl = np.zeros((n_blocks, total_slots), dtype=np.int64)
    enabled_sum = np.zeros((n_blocks, total_slots), dtype=np.int64)
    prc = np.zeros((n_blocks, total_slots), dtype=np.int64)
    recharge = np.zeros((n_blocks, total_slots), dtype=np.float64)
    restore = np.zeros((n_blocks, total_slots), dtype=np.float64)
    n = slots.shape[0]
    step = (n + n_blocks - 1) // n_blocks
    for b in numba.prange(n_blocks):
        lo = b * step
        hi = min(lo + step, n)
        for i in range(lo, hi):
            slot = slots[i]
            m_i = m[i]
            count = mult[i]
            out_word = last[i] + delta_seg[i]
            valid_out = 1 if (out_word >= 0 and out_word < n_words) else 0
            if not carry[i]:
                wl[b, slot] += count
            enabled_sum[b, slot] += ((m_i - 1) + valid_out) * count
            if not chained[i]:
                # State-dependent closed forms: chain-free segments only.
                first_neighbour = first[i] + delta_seg[i]
                valid_first = 1 if (first_neighbour >= 0
                                    and first_neighbour < n_words) else 0
                n_newly = n_words - 1 - valid_first
                prc[b, slot] += (n_newly + (m_i - 1)) * bits * count
                x_f = x[i]
                decay_unit = -math.expm1(-x_f)
                series_j = m_i - 2 + valid_out if m_i >= 2 else 0
                series = (series_j
                          - math.exp(-x_f) * -math.expm1(-series_j * x_f)
                          / decay_unit)
                recharge[b, slot] += coeff * series * count
                visited = ((m_i - 1)
                           - math.exp(ratio - x_f)
                           * -math.expm1(-(m_i - 1) * x_f) / decay_unit)
                untouched = ((n_words - m_i - valid_out)
                             * -math.expm1(ratio - m_i * x_f))
                restore[b, slot] += coeff * (visited + untouched) * count
    return wl, enabled_sum, prc, recharge, restore


def reduce_tile(slots, m, first, last, carry, chained, mult, delta_seg, x,
                n_words, bits, coeff, ratio, total_slots):
    """The flat kernel's per-tile slot reductions, compiled.

    Same signature and return contract as the numpy tier
    (:func:`repro.engine.vectorized._reduce_tile_arrays`): five per-slot
    accumulator arrays of length
    ``total_slots``.  Inputs are normalised to contiguous canonical
    dtypes so the cached compilation is hit regardless of how the caller
    sliced its shape arrays.
    """
    n = int(slots.shape[0])
    n_blocks = max(1, min(MAX_BLOCKS, numba.get_num_threads() * 4, n))
    wl, enabled_sum, prc, recharge, restore = _reduce_segments(
        np.ascontiguousarray(slots, dtype=np.int64),
        np.ascontiguousarray(m, dtype=np.int64),
        np.ascontiguousarray(first, dtype=np.int64),
        np.ascontiguousarray(last, dtype=np.int64),
        np.ascontiguousarray(carry, dtype=np.bool_),
        np.ascontiguousarray(chained, dtype=np.bool_),
        np.ascontiguousarray(mult, dtype=np.int64),
        np.ascontiguousarray(delta_seg, dtype=np.int64),
        np.ascontiguousarray(x, dtype=np.float64),
        np.int64(n_words), np.int64(bits), float(coeff),
        float(ratio), np.int64(total_slots), np.int64(n_blocks))
    return (wl.sum(axis=0), enabled_sum.sum(axis=0), prc.sum(axis=0),
            recharge.sum(axis=0), restore.sum(axis=0))


def warm() -> None:
    """Load (or build) the on-disk compiled kernel with a dummy reduction."""
    zero = np.zeros(1, dtype=np.int64)
    one = np.ones(1, dtype=np.int64)
    reduce_tile(zero, one, zero, zero,
                np.zeros(1, dtype=np.bool_), np.zeros(1, dtype=np.bool_),
                one, zero, np.full(1, 0.5, dtype=np.float64),
                n_words=1, bits=1, coeff=1.0, ratio=0.5,
                total_slots=1)
