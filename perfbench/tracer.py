"""Layer spans and counters recorded around calls into divsum's modules.

The tracer wraps the public functions of each module from outside the
library: every name bound to a wrapped function, in every divsum module
that imported it, is replaced by a wrapper that records a span.  A span is
(name, start, end, parent, op); the layer is the part of the name before
the first dot.  Spans stay in memory until the run ends.  A layer's self
time is its spans' durations minus the time covered by their child spans.

Work done by an integrand handed to ``quadrature.integrate`` belongs to the
layer that called ``integrate``; it is recorded as a ``<layer>.integrand``
span, so ``quadrature`` self time is the panel bookkeeping alone.  The
``exact`` layer has no span of its own: its Fraction arithmetic runs inside
the series and sums spans and counts as their self time.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import divsum.casimir
import divsum.cli
import divsum.distributions
import divsum.extrapolation
import divsum.mollifiers
import divsum.quadrature
import divsum.series
import divsum.sums

MODULES = (
    divsum.cli, divsum.casimir, divsum.distributions, divsum.extrapolation,
    divsum.mollifiers, divsum.quadrature, divsum.series, divsum.sums,
)

# (module, public functions) whose calls become spans
SPANNED = (
    (divsum.sums, ("sum_powers", "alternating_sum_powers", "zeta_negative_oracle",
                   "zeta_partial_sum", "functional_equation_residual")),
    (divsum.extrapolation, ("richardson_extrapolate", "detect_divergence",
                            "fit_power_growth")),
    (divsum.distributions, ("finite_part_action", "finite_part_action_epsilon",
                            "alternating_series_action", "all_plus_series_action",
                            "fourier_coefficient_numeric", "mollified_limit",
                            "jump_average", "dirichlet_comb_ladder")),
    (divsum.casimir, ("ground_state_energy", "casimir_force")),
)

COMB_XI_MAX = 480  # spectral terms per unit of mollifier scale in the comb sum


class Tracer:
    """Spans and counters of one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self.maxima = Counter()
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def caller_layer(self) -> str:
        """Layer of the span that opened the innermost open span."""
        parent = self.spans[self.stack[-1]][3] if self.stack else -1
        return self.spans[parent][0].split(".", 1)[0] if parent >= 0 else "bench"

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, new):
        old = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else [
            m for m in MODULES if getattr(m, attr, None) is old]
        for target in targets:
            self._patched.append((target, attr, getattr(target, attr)))
            setattr(target, attr, new)

    def install(self) -> "Tracer":
        for module, names in SPANNED:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                self._replace(module, name,
                              self.wrap(f"{layer}.{name}", getattr(module, name)))
        c, m = self.counts, self.maxima

        gfs = divsum.series.generating_function_series

        def gfs_call(order=divsum.series.DEFAULT_ORDER):
            misses = gfs.cache_info().misses
            result = gfs(order)
            if gfs.cache_info().misses > misses:
                c["series.orders_built"] += 1
                m["series.max_order"] = max(m["series.max_order"], order)
            return result

        self._replace(divsum.series, "generating_function_series",
                      self.wrap("series.generating_function_series", gfs_call))

        def bernoulli_after(args, result):
            n = args[0]
            c["sums.bernoulli_calls"] += 1
            c["sums.bernoulli_steps"] += n * (n + 1) // 2

        self._replace(divsum.sums, "bernoulli_numbers",
                      self.wrap("sums.bernoulli_numbers",
                                divsum.sums.bernoulli_numbers, bernoulli_after))

        def ladder_after(args, result):
            c["extrapolation.ladders"] += 1
            c["extrapolation.samples"] += len(result.samples)
            c["extrapolation.converged"] += bool(result.converged)
            c["extrapolation.divergent"] += result.growth_exponent is not None

        for name in ("extrapolate_ladder", "divergent_ladder"):
            self._replace(divsum.extrapolation, name,
                          self.wrap(f"extrapolation.{name}",
                                    getattr(divsum.extrapolation, name), ladder_after))

        self._replace(divsum.distributions, "dirichlet_comb_growth",
                      self.wrap("distributions.dirichlet_comb_growth",
                                divsum.distributions.dirichlet_comb_growth,
                                lambda args, r: c.update(
                                    {"distributions.comb_terms":
                                     math.ceil(COMB_XI_MAX * args[0])})))

        self._replace(divsum.mollifiers, "bump_moment",
                      self.wrap("mollifiers.bump_moment", divsum.mollifiers.bump_moment,
                                lambda args, r: c.update({"mollifiers.bump_moment_calls": 1})))
        for name in ("value", "deriv", "deriv2"):
            self._replace(divsum.mollifiers.Mollifier, name,
                          self.wrap(f"mollifiers.Mollifier.{name}",
                                    getattr(divsum.mollifiers.Mollifier, name),
                                    lambda args, r: c.update(
                                        {"mollifiers.evals": int(r.size)})))

        self._install_quadrature()
        return self

    def _install_quadrature(self):
        c = self.counts
        integrate = divsum.quadrature.integrate
        panel_values = divsum.quadrature._panel_values

        def integrate_call(f, a, b, **kwargs):
            c["quadrature.calls"] += 1

            def counted(x):
                c["quadrature.evals"] += int(x.size)
                return f(x)

            inner = self.wrap(self.caller_layer() + ".integrand", counted)
            try:
                return integrate(inner, a, b, **kwargs)
            except divsum.quadrature.QuadratureError:
                c["quadrature.errors"] += 1
                raise

        def panel_call(f, lo, hi):
            c["quadrature.panel_evals"] += int(lo.size)
            return panel_values(f, lo, hi)

        self._replace(divsum.quadrature, "integrate",
                      self.wrap("quadrature.integrate", integrate_call))
        self._replace(divsum.quadrature, "_panel_values", panel_call)

    def uninstall(self):
        for target, attr, old in reversed(self._patched):
            setattr(target, attr, old)
        self._patched.clear()

    # -- export --------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": dict(self.maxima)}


def self_times(spans) -> list:
    """Per-span self time: duration minus the duration of direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def busy_by_name(spans) -> Counter:
    """Self time summed per layer and per full span name."""
    out = Counter()
    for s, t in zip(spans, self_times(spans)):
        out[s[0].split(".", 1)[0]] += t
        out[s[0]] += t
    return out
