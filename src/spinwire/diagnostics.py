"""Opt-in diagnostics: what a solve computes on the way, kept only when asked for.

A caller that wants them creates a `Recorder` and passes it as ``recorder=``
to `solve_scattering_sweep`, `solve_scattering_batch` or `solve_scattering`
(``spinwire sweep --stats PATH`` does so and writes the record as JSON).
`Recorder.record()` then freezes what the solve left in it into one
`Diagnostics`.  Without a recorder no layer is timed and none of these
values is computed or kept, so a solve's results do not depend on it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

_UNTIMED = nullcontext()


@dataclass(frozen=True)
class Diagnostics:
    """One solve explained, per energy, per interpolant fit and per layer.

    Per energy, in batch order: ``growth``, the evanescent growth exponent
    across the plan (`transfer.evanescent_growth`); ``rcond``, the smallest
    reciprocal 1-norm condition number of the matching's 2x2 inverses (the
    wire block's and each star's); ``k_min``, min(|k0|, |k1|), which falls
    like the square root of the distance to the nearest band edge; and the
    batch's ``unitarity_defect`` and ``flow_defect``, as ``flux_defect`` and
    ``flow_defect``.  ``fits`` holds, per Chebyshev fit of a sweep's
    interpolant (`transfer.product_interpolant`: "granule" and "wire"), the
    degree it stopped at and its largest tail over its matrices; it is empty
    when no fit ran.  ``layer_ns`` holds the `time.perf_counter_ns` spent
    in each layer, less the layers timed inside it, so its values sum to no
    more than the call's wall time.
    """

    energy: np.ndarray
    growth: np.ndarray
    rcond: np.ndarray
    k_min: np.ndarray
    flux_defect: np.ndarray
    flow_defect: np.ndarray
    fits: dict
    layer_ns: dict

    def to_json(self) -> str:
        """The record as a JSON object, arrays as lists, one key per field."""
        import json  # only a record that is written out needs it

        values = {name: value.tolist() if isinstance(value, np.ndarray) else value
                  for name, value in vars(self).items()}
        return json.dumps(values, indent=1) + "\n"


class Recorder:
    """What one solve fills in when it is passed as ``recorder=``; `record` freezes it."""

    def __init__(self) -> None:
        self.layer_ns: dict[str, int] = {}
        self.fits: dict[str, dict] = {}
        self.per_energy: dict[str, np.ndarray] = {}
        self._inner = 0  # ns the layers timed inside the open one took

    @contextmanager
    def layer(self, name: str):
        """Add the time spent inside the block, less its own nested layers, to ``layer_ns[name]``."""
        start, outer = perf_counter_ns(), self._inner
        self._inner = 0
        try:
            yield
        finally:
            spent = perf_counter_ns() - start
            self.layer_ns[name] = self.layer_ns.get(name, 0) + spent - self._inner
            self._inner = outer + spent

    def record(self) -> Diagnostics:
        """The frozen record of the solve this recorder was passed to."""
        if not self.per_energy:
            raise ValueError("no solve has filled this recorder")
        return Diagnostics(**self.per_energy, fits=dict(self.fits), layer_ns=dict(self.layer_ns))


def timed(recorder: Recorder | None, name: str):
    """``recorder.layer(name)``, or a context that does nothing when there is no recorder."""
    return _UNTIMED if recorder is None else recorder.layer(name)
