"""Span tracing by rebinding the package's public functions.

Each layer is timed at the names its callers look up: `cli.solve_disk`,
`wgm.bessel_j`, `dynamics.evolve` and so on are replaced, for the
duration of `Tracer.installed()`, by wrappers that record a span (name,
start, end, parent) and the counts measured at that boundary.  No file
of the package changes.  A target the package no longer has is skipped,
so its span reads zero calls instead of breaking the benchmark.

Self time is a span's duration minus the durations of its direct
children.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

from contextlib import contextmanager
import functools
import inspect
import time

import numpy as np

from diskchain import chain, cli, config, dynamics, specfun, wgm

# span name -> (original function, [(module, attribute), ...] that call it)
SPANS = {
    "cli.main": (cli.main, [(cli, "main")]),
    "config.load_config": (config.load_config, [(cli, "load_config")]),
    "specfun.bessel_j": (specfun.bessel_j, [(wgm, "bessel_j"),
                                            (chain, "bessel_j")]),
    "specfun.hankel1": (specfun.hankel1, [(wgm, "hankel1"),
                                          (chain, "hankel1")]),
    "wgm.solve_disk": (wgm.solve_disk, [(cli, "solve_disk"),
                                        (wgm, "solve_disk")]),
    "wgm.solve_mode": (wgm.solve_mode, [(cli, "solve_mode")]),
    "wgm.radial_residual": (wgm.radial_residual, [(cli, "radial_residual")]),
    "chain.overlap_integrals": (chain.overlap_integrals,
                                [(cli, "overlap_integrals")]),
    "chain.coupling_kappa": (chain.coupling_kappa, [(cli, "coupling_kappa")]),
    "chain.dispersion": (chain.dispersion, [(cli, "dispersion")]),
    "dynamics.run_cz": (dynamics.run_cz, [(cli, "run_cz")]),
    "dynamics.evolve": (dynamics.evolve, [(dynamics, "evolve")]),
    "dynamics.extract_phases": (dynamics.extract_phases,
                                [(cli, "extract_phases"),
                                 (dynamics, "extract_phases")]),
}

# first resolution level of chain.overlap_integrals as cli calls it
# (its default n_radial); each level doubles both axes
_QUAD_FIRST_RADIAL = inspect.signature(
    chain.overlap_integrals).parameters["n_radial"].default

COUNTS = ("specfun.points", "specfun.scalar_calls", "wgm.solve_disk_specfun_calls",
          "chain.quadrature_points", "chain.quadrature_final_points",
          "dynamics.records")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []         # [id, name, child seconds]

    def _count(self, name, args, kwargs, result) -> None:
        c = self.counts
        if name.startswith("specfun."):
            size = int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
            c["specfun.points"] += size
            c["specfun.scalar_calls"] += size == 1
            if any(frame[1] == "wgm.solve_disk" for frame in self._stack):
                c["wgm.solve_disk_specfun_calls"] += 1
        elif name == "chain.overlap_integrals":
            n_r = getattr(result, "n_radial", 0)
            n_phi = getattr(result, "n_azimuthal", 0)
            c["chain.quadrature_final_points"] += n_r * n_phi
            while n_r >= _QUAD_FIRST_RADIAL:
                c["chain.quadrature_points"] += n_r * n_phi
                n_r //= 2
                n_phi //= 2
        elif name == "dynamics.evolve":
            c["dynamics.records"] += len(result.times)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                st = self.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans[span_id] = (span_id, parent, name, start, end)
            self._count(name, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every span target for the duration of the block."""
        undo = []
        try:
            for name, (original, sites) in SPANS.items():
                wrapper = self._wrap(name, original)
                for module, attr in sites:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in undo:
                setattr(module, attr, original)

    def self_seconds(self) -> float:
        return sum(st[2] for st in self.stats.values())
