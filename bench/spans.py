"""Per-layer spans recorded from outside the library.

Each layer is a discordkit module.  ``Tracer.installed`` wraps the public
functions listed in ``LAYERS`` and rebinds the name in every discordkit
module that imported the same function object (``discord.build_state``,
``channels.build_state`` and ``density.build_state`` all point at the one
wrapper), so calls between modules are seen too.  Leaving the context
restores the originals.

A span's self time is its duration minus the durations of the wrapped
spans it directly encloses.  Every span is aggregated by name as it
closes; per-op figures divide by the number of traced ops.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "density": ("build_state", "von_neumann_entropy", "hermitian_eigen", "entropic_h"),
    "measurement": ("correlation_objective", "damped_correlation_objective"),
    "sphereopt": ("maximize_on_sphere", "fibonacci_grid"),
    "discord": ("discord_numeric", "discord_auto", "mutual_information"),
    "channels": ("gamma_sweep", "damped_discord", "damped_mutual_information", "damp_bloch"),
    "cli": ("main",),
}
SAMPLING = {
    "sampling": (
        "draw_general_batch",
        "draw_s0_isotropic",
        "draw_r0_isotropic",
        "draw_axial_zero",
        "draw_s0_planar",
    ),
}
_OBJECTIVES = ("measurement.correlation_objective", "measurement.damped_correlation_objective")


class Tracer:
    """Span aggregates for one traced phase."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.axes: Counter = Counter()
        self.evaluations = 0
        self.objective_calls = 0
        self.closed_form = 0
        self.states_drawn = 0
        self.top_level = 0.0  # summed duration of spans with no wrapped parent
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name in _OBJECTIVES:
                axes = np.shape(args[-1])
                self.axes[name] += axes[0] if len(axes) == 2 else 1
            elif name == "sphereopt.maximize_on_sphere":
                args = (self._counted(args[0]),) + args[1:]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level += duration
            if name == "sphereopt.maximize_on_sphere":
                self.evaluations += result.evaluations
            elif name == "discord.discord_auto":
                self.closed_form += result.method != "numeric"
            elif name.startswith("sampling."):
                self.states_drawn += len(result) if isinstance(result, list) else 1
            return result

        return wrapper

    def _counted(self, objective):
        def counted(z):
            self.objective_calls += 1
            return objective(z)

        return counted

    @contextmanager
    def installed(self, layers=LAYERS):
        """Rebind every listed function in every discordkit module."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "discordkit" or key.startswith("discordkit.")
        ]
        saved = []
        for layer, names in layers.items():
            home = sys.modules[f"discordkit.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        try:
            yield self
        finally:
            for mod, fname, original in reversed(saved):
                setattr(mod, fname, original)

    def per_op(self, ops: int) -> dict:
        """Per-layer metrics per traced op (ratios with a zero base read 0)."""

        def ms(table, name):
            return 1e3 * table[name] / ops

        def calls(name):
            return self.calls[name] / ops

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("density.build_state", "density.von_neumann_entropy",
                     "density.hermitian_eigen", "density.entropic_h",
                     "sphereopt.fibonacci_grid"):
            out[f"{name}.calls_per_op"] = calls(name)
            out[f"{name}.self_ms_per_op"] = ms(self.self_time, name)
        for name in _OBJECTIVES:
            out[f"{name}.calls_per_op"] = calls(name)
            out[f"{name}.axes_per_op"] = self.axes[name] / ops
            out[f"{name}.self_ms_per_op"] = ms(self.self_time, name)
            out[f"{name}.us_per_kaxis"] = ratio(1e9 * self.self_time[name], self.axes[name])
        opt = "sphereopt.maximize_on_sphere"
        out[f"{opt}.calls_per_op"] = calls(opt)
        out[f"{opt}.self_ms_per_op"] = ms(self.self_time, opt)
        out[f"{opt}.total_ms_per_op"] = ms(self.total, opt)
        out[f"{opt}.evaluations_per_call"] = ratio(self.evaluations, self.calls[opt])
        out[f"{opt}.objective_calls_per_call"] = ratio(self.objective_calls, self.calls[opt])
        out["discord.discord_numeric.total_ms_per_op"] = ms(self.total, "discord.discord_numeric")
        out["discord.discord_auto.total_ms_per_op"] = ms(self.total, "discord.discord_auto")
        out["discord.discord_auto.self_ms_per_op"] = ms(self.self_time, "discord.discord_auto")
        out["discord.mutual_information.total_ms_per_op"] = ms(
            self.total, "discord.mutual_information"
        )
        out["discord.closed_form_share"] = ratio(
            self.closed_form, self.calls["discord.discord_auto"]
        )
        out["channels.gamma_sweep.total_ms_per_op"] = ms(self.total, "channels.gamma_sweep")
        out["channels.damped_discord.calls_per_op"] = calls("channels.damped_discord")
        out["channels.damped_discord.self_ms_per_op"] = ms(
            self.self_time, "channels.damped_discord"
        )
        out["channels.damped_discord.total_ms_per_op"] = ms(
            self.total, "channels.damped_discord"
        )
        out["channels.damped_mutual_information.total_ms_per_op"] = ms(
            self.total, "channels.damped_mutual_information"
        )
        out["channels.damp_bloch.calls_per_op"] = calls("channels.damp_bloch")
        out["cli.main.self_ms_per_op"] = ms(self.self_time, "cli.main")
        out["cli.main.total_ms_per_op"] = ms(self.total, "cli.main")
        return out

    def draw_ms_per_state(self) -> float:
        spent = sum(t for name, t in self.total.items() if name.startswith("sampling."))
        return 1e3 * spent / self.states_drawn if self.states_drawn else 0.0
