"""The three benchmark workloads and their reference checks.

Each workload draws a fixed pool of inputs from the seed with
``discordkit.sampling`` (plus the two hand-drawn family slices below),
runs one op per input through the public API, serializes the op's output
to bytes for the determinism digest, and checks an output against the
independent reference in ``reference.py``.  Why each workload exists is
written down in README.md next to this file.

Library functions are looked up on their module at call time, so the
tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

import reference
from discordkit import cli, discord, sampling
from discordkit.density import BlochParams

SPECTRUM_TOL = 1e-10  # spectrum and mutual information against eigvalsh
BOUND_TOL = 1e-12  # 0 <= Q <= S(rho_b) and C <= min(S_a, S_b)
DISCORD_TOL = 1e-6  # against the reference maximum (the verify default)

GAMMA_GRID = "0:1:0.1"  # damp-cli sweeps gamma = k / GAMMA_STEPS, k = 0..10
GAMMA_STEPS = 10
C_EQ_R_MAX = 1.0 / (1.0 + np.sqrt(5.0))  # PSD bound of the c = |r| slice


def _within(deviation: float, tol: float) -> bool:
    # written so that NaN fails
    return bool(deviation <= tol)


def _report_bytes(report) -> bytes:
    values = [report.mutual_info, report.classical_corr, report.discord,
              *report.argmax_axis, *report.spectrum]
    return (",".join(float(v).hex() for v in values) + "," + report.method).encode()


def check_report(params: BlochParams, report, with_discord: bool) -> list[str]:
    """Problems with one DiscordReport, empty when it passes."""
    rho = reference.state(params.r, params.s, params.c)
    ref = reference.discord(rho) if with_discord else reference.entropies(rho)
    problems = []
    spec_dev = float(np.max(np.abs(np.asarray(report.spectrum) - reference.spectrum(rho))))
    if not _within(spec_dev, SPECTRUM_TOL):
        problems.append(f"spectrum deviates by {spec_dev:.3e}")
    mi_dev = abs(report.mutual_info - ref["mutual"])
    if not _within(mi_dev, SPECTRUM_TOL):
        problems.append(f"mutual information deviates by {mi_dev:.3e}")
    if not -BOUND_TOL <= report.discord <= ref["S_b"] + BOUND_TOL:
        problems.append(f"discord {report.discord!r} outside [0, S_b={ref['S_b']!r}]")
    if not report.classical_corr <= min(ref["S_a"], ref["S_b"]) + BOUND_TOL:
        problems.append(f"classical correlation {report.classical_corr!r} above min(S_a, S_b)")
    if with_discord:
        q_dev = abs(report.discord - ref["Q"])
        if not _within(q_dev, DISCORD_TOL):
            problems.append(f"discord deviates from the reference maximum by {q_dev:.3e}")
    return problems


class OracleScan:
    """discord_numeric on unrestricted physical states; one op = one state."""

    name = "oracle-scan"
    pool_size = 48
    reference_subset = 4  # pool entries also checked against the reference maximum
    warmup_ops = 1

    def draw(self, rng):
        return sampling.draw_general_batch(rng, self.pool_size)

    def run(self, params):
        return discord.discord_numeric(params)

    serialize = staticmethod(_report_bytes)

    def check(self, params, report, with_discord):
        return check_report(params, report, with_discord)


def _draw_werner(rng) -> BlochParams:
    c = rng.uniform(-1.0, 1.0 / 3.0)
    return BlochParams([0, 0, 0], [0, 0, 0], [c, c, c])


def _draw_c_eq_r(rng) -> BlochParams:
    c = rng.uniform(0.0, C_EQ_R_MAX)
    v = rng.normal(size=3)
    return BlochParams(c * v / np.linalg.norm(v), [0, 0, 0], [c, c, c])


class AutoFamilies:
    """discord_auto on closed-form family states; one op = one state.

    The pool cycles through the six dispatch branches in a fixed order, so
    any prefix of ``6 k`` inputs holds every branch ``k`` times.
    """

    name = "auto-families"
    pool_size = 96
    reference_subset = 6  # one state per branch
    warmup_ops = 6

    def draw(self, rng):
        draws = (
            sampling.draw_s0_isotropic,
            sampling.draw_r0_isotropic,
            sampling.draw_axial_zero,
            sampling.draw_s0_planar,
            _draw_werner,
            _draw_c_eq_r,
        )
        return [draws[i % len(draws)](rng) for i in range(self.pool_size)]

    def run(self, params):
        return discord.discord_auto(params)

    serialize = staticmethod(_report_bytes)

    def check(self, params, report, with_discord):
        return check_report(params, report, with_discord)


def _triple(v) -> str:
    return ",".join(repr(float(x)) for x in v)


class DampCli:
    """``discord-kit damp`` in process on general states; one op = one
    11-point gamma sweep, stdout captured and parsed."""

    name = "damp-cli"
    pool_size = 12
    reference_subset = 1  # every gamma of the first state
    warmup_ops = 1

    def draw(self, rng):
        return [
            (p, ["damp", f"--r={_triple(p.r)}", f"--s={_triple(p.s)}",
                 f"--c={_triple(p.c)}", "--gamma-grid", GAMMA_GRID])
            for p in sampling.draw_general_batch(rng, self.pool_size)
        ]

    def run(self, item):
        _, argv = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"discord-kit damp exited with {code}")
        text = buf.getvalue()
        header, *lines = text.splitlines()
        if header != "gamma,Q_damped,Q_gap":
            raise RuntimeError(f"unexpected CSV header {header!r}")
        return text, [tuple(float(x) for x in line.split(",")) for line in lines]

    @staticmethod
    def serialize(out) -> bytes:
        return out[0].encode()

    def check(self, item, out, with_discord):
        params, _ = item
        rows = out[1]
        if len(rows) != GAMMA_STEPS + 1:
            return [f"{len(rows)} CSV rows, want {GAMMA_STEPS + 1}"]
        problems = []
        rho = reference.state(params.r, params.s, params.c)
        totals = [q_damped + gap for _, q_damped, gap in rows]
        for k, (gamma, q_damped, _) in enumerate(rows):
            if not _within(abs(gamma - k / GAMMA_STEPS), BOUND_TOL):
                problems.append(f"row {k}: gamma {gamma!r}, want {k / GAMMA_STEPS}")
            damped = reference.phase_damp(rho, k / GAMMA_STEPS)
            ref = reference.discord(damped) if with_discord else reference.entropies(damped)
            if not -BOUND_TOL <= q_damped <= ref["S_b"] + BOUND_TOL:
                problems.append(f"row {k}: Q_damped {q_damped!r} outside [0, S_b]")
            if with_discord:
                q_dev = abs(q_damped - ref["Q"])
                if not _within(q_dev, DISCORD_TOL):
                    problems.append(f"row {k}: Q_damped deviates from the reference by {q_dev:.3e}")
                if k == 0:  # gamma = 0 leaves rho unchanged, so ref["Q"] is Q(rho)
                    q_dev = abs(totals[0] - ref["Q"])
                    if not _within(q_dev, DISCORD_TOL):
                        problems.append(f"Q(rho) = Q_damped + Q_gap deviates by {q_dev:.3e}")
        # Q_gap = Q(rho) - Q_damped, with the same Q(rho) on every row.
        spread = max(totals) - min(totals)
        if not _within(spread, BOUND_TOL):
            problems.append(f"Q_damped + Q_gap varies by {spread:.3e} across rows")
        return problems


WORKLOADS = {w.name: w for w in (OracleScan(), AutoFamilies(), DampCli())}
