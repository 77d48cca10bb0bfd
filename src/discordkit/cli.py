"""Command-line front end.

Subcommands
-----------
compute   discord report for one state (JSON by default)
curve     one-dimensional correlation-objective curve as CSV
damp      damped discord and damping gap over a gamma grid as CSV
verify    closed-form vs numeric-oracle deviation report
spectrum  eigenvalues and eigenvectors as JSON

States enter either as ``--r x,y,z --s x,y,z --c x,y,z`` or as
``--state file.json`` (keys r, s, c and optional label); explicit flags
win over the file.  Exit codes: 0 success, 1 unphysical state, 2 usage or
parse error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .channels import gamma_sweep
from .density import BlochParams, build_state, entropic_h, hermitian_eigen
from .discord import (
    METHOD_AXIAL_FORMULA,
    METHOD_AXIAL_ZERO,
    METHOD_R0_ISOTROPIC,
    METHOD_S0_ISOTROPIC,
    METHOD_S0_PLANAR,
    _FAMILY_TOL,
    discord_auto,
    discord_axial,
    discord_numeric,
    discord_numeric_batch,
    discord_r0_isotropic,
    discord_s0_isotropic,
    discord_s0_planar,
    reduced_correlation_objective,
)
from .errors import (
    DiscordKitError,
    DomainError,
    FamilyError,
    PhysicalityError,
    RangeError,
)
from .sampling import (
    draw_axial_zero,
    draw_r0_isotropic,
    draw_s0_isotropic,
    draw_s0_planar,
)
from .sphereopt import SphereOptConfig

EXIT_OK = 0
EXIT_UNPHYSICAL = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 3 comma-separated reals, got {len(parts)} in {text!r}"
        )
    values = []
    for pos, part in enumerate(parts, start=1):
        try:
            values.append(float(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"component {pos} ({part!r}) of {text!r} is not a number"
            ) from None
    return tuple(values)


def _parse_gamma_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:step, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric bound in {text!r}") from None
    if step <= 0:
        raise RangeError(f"step must be positive, got {step!r}")
    if start > stop:
        raise RangeError(f"grid start {start!r} exceeds stop {stop!r}")
    if start < 0.0 or stop > 1.0:
        raise RangeError("gamma grid must lie inside [0, 1]")
    n = int(np.floor((stop - start) / step + 1e-12)) + 1
    return start + step * np.arange(n)


def _state_from_args(args) -> tuple[BlochParams, str]:
    r = s = c = None
    label = getattr(args, "label", None)
    if getattr(args, "state", None):
        try:
            with open(args.state, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RangeError(f"cannot read state file {args.state!r}: {exc}") from exc
        r = payload.get("r")
        s = payload.get("s")
        c = payload.get("c")
        label = label or payload.get("label")
    # explicit flags win over the file
    r = args.r if args.r is not None else r
    s = args.s if args.s is not None else s
    c = args.c if args.c is not None else c
    if r is None or s is None or c is None:
        raise RangeError("state requires --r, --s and --c (or a --state file)")
    return BlochParams(r, s, c), label or ""


def _cfg_from_args(args) -> SphereOptConfig:
    cfg = SphereOptConfig()
    if getattr(args, "grid_points", None) is not None:
        cfg = replace(cfg, grid_points=args.grid_points)
    if getattr(args, "refine_rounds", None) is not None:
        cfg = replace(cfg, refine_rounds=args.refine_rounds)
    return cfg


def _report_payload(params: BlochParams, label: str, report) -> dict:
    return {
        "label": label,
        "params": {
            "r": list(params.r),
            "s": list(params.s),
            "c": list(params.c),
        },
        "spectrum": list(report.spectrum),
        "mutual_info": report.mutual_info,
        "classical_corr": report.classical_corr,
        "discord": report.discord,
        "argmax_axis": list(report.argmax_axis),
        "method": report.method,
    }


def _emit_json(payload: dict, out) -> None:
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_compute(args, out) -> int:
    params, label = _state_from_args(args)
    cfg = _cfg_from_args(args)
    report = discord_numeric(params, cfg) if args.numeric else discord_auto(params, cfg)
    payload = _report_payload(params, label, report)
    if args.format == "json":
        _emit_json(payload, out)
    else:
        fields = ["mutual_info", "classical_corr", "discord", "method"]
        out.write(",".join(fields) + "\n")
        out.write(
            ",".join(
                _fmt(payload[f]) if f != "method" else payload[f] for f in fields
            )
            + "\n"
        )
    return EXIT_OK


def _curve_rows(params: BlochParams, samples: int):
    c = params.c
    if params.s_norm > _FAMILY_TOL and not (
        abs(c[0] - c[1]) <= _FAMILY_TOL and abs(c[1] - c[2]) <= _FAMILY_TOL
    ):
        raise FamilyError("curve needs a uniform or in-plane correlation diagonal")
    iso = abs(c[0] - c[1]) <= _FAMILY_TOL and abs(c[1] - c[2]) <= _FAMILY_TOL
    if iso:
        r_norm, cc = params.r_norm, c[2]
        if abs(cc) <= _FAMILY_TOL:
            theta = np.array([r_norm**2])
        else:
            total = 2.0 * (r_norm**2 + cc**2)
            lo, hi = max(0.0, total - 1.0), min(1.0, total)
            theta = np.linspace(lo, hi, samples)
        return theta, reduced_correlation_objective(theta, r_norm, cc)
    planar = (
        params.s_norm <= _FAMILY_TOL
        and abs(c[2]) <= _FAMILY_TOL
        and abs(c[0] - c[1]) <= _FAMILY_TOL
    )
    if not planar:
        raise FamilyError("curve needs a uniform or in-plane correlation diagonal")
    # in-plane family: scan the extremal path z = (t rhat_12, 0)
    r, cc = params.r, c[0]
    rho12 = float(np.hypot(r[0], r[1]))
    t = np.linspace(-1.0, 1.0, samples)
    theta = (rho12 + cc * t) ** 2 + r[2] ** 2
    other = (rho12 - cc * t) ** 2 + r[2] ** 2
    g = 0.5 * entropic_h(0.0, np.sqrt(theta)) + 0.5 * entropic_h(0.0, np.sqrt(other))
    order = np.argsort(theta, kind="stable")
    return theta[order], g[order]


def _cmd_curve(args, out) -> int:
    params, _ = _state_from_args(args)
    theta, g = _curve_rows(params, args.samples)
    out.write("theta,G\n")
    for th, gv in zip(theta, g):
        out.write(f"{_fmt(th)},{_fmt(gv)}\n")
    return EXIT_OK


def _cmd_damp(args, out) -> int:
    params, _ = _state_from_args(args)
    cfg = _cfg_from_args(args)
    rows = gamma_sweep(params, args.gamma_grid, cfg)
    out.write("gamma,Q_damped,Q_gap\n")
    for gamma, qd, gap in rows:
        out.write(f"{_fmt(gamma)},{_fmt(qd)},{_fmt(gap)}\n")
    return EXIT_OK


def _cmd_spectrum(args, out) -> int:
    params, label = _state_from_args(args)
    decomp = hermitian_eigen(build_state(params))
    payload = {
        "label": label,
        "eigenvalues": list(decomp.eigenvalues),
        "eigenvectors": [
            {"re": [v.real for v in decomp.eigenvectors[:, k]],
             "im": [v.imag for v in decomp.eigenvectors[:, k]]}
            for k in range(4)
        ],
    }
    _emit_json(payload, out)
    return EXIT_OK


_VERIFY_FAMILIES = (
    METHOD_S0_ISOTROPIC,
    METHOD_R0_ISOTROPIC,
    METHOD_AXIAL_ZERO,
    METHOD_S0_PLANAR,
    METHOD_AXIAL_FORMULA,
)


def _verify_family(name: str, rng, draws: int, cfg) -> tuple[float, int]:
    """Worst |analytic - numeric| over seeded draws, and the number of
    draws on which the closed form was undefined.

    All draws are taken first and the numeric oracle runs on them in one
    batch; the generator is consumed exactly as by one draw at a time.
    """
    states = []
    analytic = []
    undefined = 0
    for _ in range(draws):
        if name == METHOD_S0_ISOTROPIC:
            params = draw_s0_isotropic(rng)
            value = discord_s0_isotropic(params.r_norm, params.c[2])
        elif name == METHOD_R0_ISOTROPIC:
            params = draw_r0_isotropic(rng)
            value = discord_r0_isotropic(params.s_norm, params.c[2])
        elif name == METHOD_AXIAL_ZERO:
            params = draw_axial_zero(rng)
            value = 0.0
        elif name == METHOD_S0_PLANAR:
            params = draw_s0_planar(rng)
            value = discord_s0_planar(params.r, params.c[0])
        else:  # broken reference formula for the r=0 axial branch
            params = draw_r0_isotropic(rng)
            params = BlochParams(params.r, params.s, [0.0, 0.0, params.c[2]])
            try:
                value = discord_axial(params, use_reference_formula=True)
            except DomainError:
                undefined += 1
                continue
        states.append(params)
        analytic.append(value)
    worst = 0.0
    for value, report in zip(analytic, discord_numeric_batch(states, cfg)):
        worst = max(worst, abs(value - report.discord))
    return worst, undefined


def _cmd_verify(args, out) -> int:
    cfg = _cfg_from_args(args)
    families = args.families or [
        f for f in _VERIFY_FAMILIES if f != METHOD_AXIAL_FORMULA
    ]
    failed = False
    out.write(f"seed={args.seed} draws={args.draws} tolerance={_fmt(args.tolerance)}\n")
    for name in families:
        rng = np.random.default_rng(args.seed)
        worst, undefined = _verify_family(name, rng, args.draws, cfg)
        if name == METHOD_AXIAL_FORMULA:
            # The reference closed form for this branch contradicts the
            # product-state limit; it is reported but never gates.
            note = f", undefined on {undefined} draws" if undefined else ""
            out.write(
                f"{name}: max deviation {_fmt(worst)}{note} "
                "(expected failure: reference formula disagrees with the oracle)\n"
            )
            continue
        ok = worst <= args.tolerance
        failed = failed or not ok
        out.write(
            f"{name}: max deviation {_fmt(worst)} -> {'ok' if ok else 'FAIL'}\n"
        )
    if METHOD_AXIAL_FORMULA in families:
        counter = BlochParams([0, 0, 0], [0.1, 0.1, 0.1], [0, 0, 0])
        formula = discord_axial(counter, use_reference_formula=True)
        out.write(
            "axial-formula counterexample: product state has discord 0, "
            f"formula gives {_fmt(formula)}\n"
        )
    return EXIT_VERIFY if failed else EXIT_OK


def _add_state_flags(sub) -> None:
    sub.add_argument("--r", type=_parse_triple, default=None, metavar="x,y,z")
    sub.add_argument("--s", type=_parse_triple, default=None, metavar="x,y,z")
    sub.add_argument("--c", type=_parse_triple, default=None, metavar="x,y,z")
    sub.add_argument("--state", default=None, metavar="FILE.json")
    sub.add_argument("--label", default=None)


def _add_opt_flags(sub) -> None:
    sub.add_argument("--grid-points", type=int, default=None,
                     help="points of the first Fibonacci pass (default 2000)")
    sub.add_argument("--refine-rounds", type=int, default=None,
                     help="cap on the plain cap rounds of the sphere search (default 40); "
                     "the numeric discord runs them in full only for a state whose "
                     "maximum the Newton polish cannot certify")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discord-kit",
        description="Two-qubit quantum discord toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_compute = subs.add_parser("compute", help="discord report for one state")
    _add_state_flags(p_compute)
    _add_opt_flags(p_compute)
    p_compute.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.add_argument(
        "--numeric", action="store_true",
        help="force the numeric path even when a closed form applies",
    )

    p_curve = subs.add_parser("curve", help="correlation-objective curve as CSV")
    _add_state_flags(p_curve)
    p_curve.add_argument("--samples", type=int, default=100)

    p_damp = subs.add_parser("damp", help="damped discord over a gamma grid as CSV")
    _add_state_flags(p_damp)
    _add_opt_flags(p_damp)
    p_damp.add_argument(
        "--gamma-grid", type=_parse_gamma_grid, required=True, metavar="start:stop:step"
    )

    p_verify = subs.add_parser("verify", help="closed form vs numeric oracle")
    _add_opt_flags(p_verify)
    p_verify.add_argument(
        "--families", nargs="*", choices=_VERIFY_FAMILIES, default=None
    )
    p_verify.add_argument("--draws", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=float, default=1e-6)

    p_spectrum = subs.add_parser("spectrum", help="eigenvalues and eigenvectors as JSON")
    _add_state_flags(p_spectrum)

    return parser


_HANDLERS = {
    "compute": _cmd_compute,
    "curve": _cmd_curve,
    "damp": _cmd_damp,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, sys.stdout)
    except PhysicalityError as exc:
        print(f"error: unphysical state: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except (RangeError, FamilyError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiscordKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL


if __name__ == "__main__":
    sys.exit(main())
