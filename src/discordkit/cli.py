"""Command-line front end.

Subcommands
-----------
compute   discord report for one state (JSON by default)
curve     one-dimensional correlation-objective curve as CSV
damp      damped discord and damping gap over a gamma grid as CSV
verify    deviation of the closed forms discord_auto serves from the numeric oracle
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
from functools import lru_cache

import numpy as np

from .channels import gamma_sweep
from .density import BlochParams, build_state, hermitian_eigen
from .discord import _FAMILIES, _family, _reports
from .errors import (
    DiscordKitError,
    DomainError,
    FamilyError,
    PhysicalityError,
    RangeError,
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


def _bounded(kind, low, expected: str):
    """Argparse type: ``kind(text)`` of at least ``low``, which NaN never is."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return value
    return parse


_positive_int = _bounded(int, 1, "a positive integer")


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
    if not np.isfinite([start, stop, step]).all():
        raise RangeError(f"gamma grid bounds must be finite, got {text!r}")
    if step <= 0:
        raise RangeError(f"step must be positive, got {step!r}")
    if start > stop:
        raise RangeError(f"grid start {start!r} exceeds stop {stop!r}")
    if start < 0.0 or stop > 1.0:
        raise RangeError("gamma grid must lie inside [0, 1]")
    n = int(np.floor((stop - start) / step + 1e-12)) + 1
    return np.minimum(start + step * np.arange(n), stop)  # 0.09 + 13 * 0.07 > 1


def _state_from_args(args) -> tuple[BlochParams, str]:
    r = s = c = None
    label = args.label
    if args.state:
        try:
            with open(args.state, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RangeError(f"cannot read state file {args.state!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise RangeError(f"state file {args.state!r} must hold a JSON object")
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
    try:
        return BlochParams(r, s, c), label or ""
    except (ValueError, TypeError) as exc:
        raise RangeError(f"invalid state: {exc}") from exc


def _cfg_from_args(args) -> SphereOptConfig:
    return SphereOptConfig(grid_points=args.grid_points, refine_rounds=args.refine_rounds)


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
    report = _reports([params], cfg, closed_forms=not args.numeric)[0]
    if args.format == "json":
        _emit_json(_report_payload(params, label, report), out)
    else:
        out.write("mutual_info,classical_corr,discord,method\n")
        out.write(f"{_fmt(report.mutual_info)},{_fmt(report.classical_corr)},"
                  f"{_fmt(report.discord)},{report.method}\n")
    return EXIT_OK


def _cmd_curve(args, out) -> int:
    params, _ = _state_from_args(args)
    build_state(params)  # gates physicality first
    family = _family(params)
    if family is None or family.curve is None:
        raise FamilyError("curve needs s = 0 and a uniform or in-plane correlation diagonal")
    theta, g = family.curve(params, args.samples)
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
            {"re": [x.real for x in v], "im": [x.imag for x in v]}
            for v in decomp.eigenvectors.T
        ],
    }
    _emit_json(payload, out)
    return EXIT_OK


# Seeded sampler of each closed-form family that verify checks.
_VERIFY_SAMPLERS = {row.method: row.sampler for row in _FAMILIES if row.sampler}


def _verify_family(name: str, rng, draws: int, cfg) -> float:
    """Worst |closed form - numeric| over seeded draws of one family, NaN
    when any deviation is NaN.

    The closed-form value is the one ``discord_auto`` serves.  All draws
    are taken first, and each route reports on them in one batch; the
    generator is consumed exactly as by one draw at a time.
    """
    states = [_VERIFY_SAMPLERS[name](rng) for _ in range(draws)]
    auto = _reports(states, cfg, closed_forms=True)
    numeric = _reports(states, cfg, closed_forms=False)
    # np.max propagates NaN, where the builtin max would keep its first argument
    return float(np.max([abs(a.discord - n.discord) for a, n in zip(auto, numeric)]))


def _cmd_verify(args, out) -> int:
    cfg = _cfg_from_args(args)
    failed = False
    out.write(f"seed={args.seed} draws={args.draws} tolerance={_fmt(args.tolerance)}\n")
    for name in args.families or _VERIFY_SAMPLERS:
        worst = _verify_family(name, np.random.default_rng(args.seed), args.draws, cfg)
        ok = worst <= args.tolerance
        failed = failed or not ok
        out.write(
            f"{name}: max deviation {_fmt(worst)} -> {'ok' if ok else 'FAIL'}\n"
        )
    return EXIT_VERIFY if failed else EXIT_OK


def _add_state_flags(sub) -> None:
    sub.add_argument("--r", type=_parse_triple, default=None, metavar="x,y,z")
    sub.add_argument("--s", type=_parse_triple, default=None, metavar="x,y,z")
    sub.add_argument("--c", type=_parse_triple, default=None, metavar="x,y,z")
    sub.add_argument("--state", default=None, metavar="FILE.json")
    sub.add_argument("--label", default=None)


def _add_opt_flags(sub) -> None:
    sub.add_argument("--grid-points", type=_positive_int,
                     default=SphereOptConfig.grid_points,
                     help="points of the first Fibonacci pass (default %(default)s)")
    sub.add_argument("--refine-rounds", type=_positive_int,
                     default=SphereOptConfig.refine_rounds,
                     help="cap on the plain cap rounds of the sphere search (default "
                     "%(default)s); the numeric discord runs them only for a state whose "
                     "maximum its Newton polish cannot certify")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discord-kit",
        description="Two-qubit quantum discord toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_compute = subs.add_parser("compute", help="discord report for one state")
    p_compute.set_defaults(run=_cmd_compute)
    _add_state_flags(p_compute)
    _add_opt_flags(p_compute)
    p_compute.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.add_argument(
        "--numeric", action="store_true",
        help="force the numeric path even when a closed form applies",
    )

    p_curve = subs.add_parser("curve", help="correlation-objective curve as CSV")
    p_curve.set_defaults(run=_cmd_curve)
    _add_state_flags(p_curve)
    p_curve.add_argument("--samples", type=_positive_int, default=100)

    p_damp = subs.add_parser("damp", help="damped discord over a gamma grid as CSV")
    p_damp.set_defaults(run=_cmd_damp)
    _add_state_flags(p_damp)
    _add_opt_flags(p_damp)
    p_damp.add_argument(
        "--gamma-grid", type=_parse_gamma_grid, required=True, metavar="start:stop:step"
    )

    p_verify = subs.add_parser("verify", help="closed form vs numeric oracle")
    p_verify.set_defaults(run=_cmd_verify)
    _add_opt_flags(p_verify)
    p_verify.add_argument(
        "--families", nargs="*", choices=tuple(_VERIFY_SAMPLERS), default=None
    )
    p_verify.add_argument("--draws", type=_positive_int, default=100)
    p_verify.add_argument("--seed", type=_bounded(int, 0, "a non-negative integer"), default=0)
    p_verify.add_argument("--tolerance", type=_bounded(float, 0, "a non-negative number"),
                          default=1e-6)

    p_spectrum = subs.add_parser("spectrum", help="eigenvalues and eigenvectors as JSON")
    p_spectrum.set_defaults(run=_cmd_spectrum)
    _add_state_flags(p_spectrum)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing
    keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args, sys.stdout)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
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
