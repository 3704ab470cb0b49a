"""Command line front end.

Subcommands: profile, moments, algfit, detect, asymptote, quadric-check.
Each subcommand declares the options it reads (``_COMMANDS``) and accepts
only those besides --body, --out and --format; any other option is a usage
error, reported with the subcommand's usage, and so are --margin and
--window together, since --margin trims only the automatic chord that
--window replaces.  Exit codes: 0 on success, 2 when a check ran cleanly
but reached a negative verdict (reject, or no workable power), 1 on errors
such as malformed body JSON, a usage error or a non-finite value in a
report (reports are standard JSON, never NaN or Infinity).  Output is byte
deterministic for a fixed configuration and seed: JSON is dumped with sorted
keys and CSV floats are written via repr, and every report embeds its
resolved configuration: the command, the body, the format and the value of
each option the subcommand reads.  Run it as ``tomoslice`` or ``python -m
tomoslice``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import algfit, detect, radon, sections
from .algfit import quadric_check
from .bodies import _normalized, _require_tol, body_to_dict, chord_interval, load_body

__all__ = ["quadric_check", "run", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _parse_xi(text, n):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"--xi must be comma-separated floats, got {text!r}")
    if len(parts) != n:
        raise ValueError(f"--xi has dimension {len(parts)} but the body has dimension {n}")
    return _normalized(parts)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _dumps(obj, **kwargs):
    """Standard JSON only: a non-finite value is an error, never a NaN token."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise ValueError(f"report holds a non-finite value: {exc}") from None


def _json_report(config, payload):
    return _dumps({"config": config, **payload}, indent=2) + "\n"


def _csv_field(x):
    if not isinstance(x, float):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"report holds a non-finite value: {x!r}")
    return repr(float(x))


def _csv_report(config, header, rows):
    lines = ["# config " + _dumps(config), header]
    for row in rows:
        lines.append(",".join(_csv_field(x) for x in row))
    return "\n".join(lines) + "\n"


def _cmd_profile(body, xi, config):
    prof = sections.profile(
        body, xi, num_points=config["grid"], margin=config["margin"], window=config["window"]
    )
    if config["format"] == "json":
        return _json_report(config, {"profile": prof.to_dict()}), EXIT_OK
    rows = [(float(t), float(a)) for t, a in zip(prof.grid, prof.values)]
    return _csv_report(config, "t,A", rows), EXIT_OK


def _cmd_moments(body, xi, config):
    reports = [radon.range_test(body, k, config["directions"], seed=config["seed"]) for k in (0, 1, 2)]
    if config["format"] == "json":
        return _json_report(config, {"reports": [r.to_dict() for r in reports]}), EXIT_OK
    rows = []
    for rep in reports:
        for d, mval in zip(rep.directions, rep.moments):
            rows.append((rep.k, *[float(x) for x in d], float(mval)))
    n = body.n
    header = "k," + ",".join(f"xi_{i + 1}" for i in range(n)) + ",moment"
    return _csv_report(config, header, rows), EXIT_OK


def _cmd_algfit(body, xi, config):
    plan = algfit.min_m_plan(body.n, config["m_max"])
    prof = sections.profile(body, xi, num_points=config["grid"], margin=config["margin"])
    reports = list(algfit.power_fits(prof, plan))
    sweep = [{"m": r.m, "degree": r.degree, "relative_residual": r.relative_residual} for r in reports]
    winner = next((r for r in reports if r.relative_residual < config["tol"]), None)
    if winner is not None and (winner.m * (prof.n - 1)) % 2 == 0:
        lo, hi = chord_interval(body, xi)
        algfit.root_structure(winner, hi, -lo)
    payload = {
        "sweep": sweep,
        "verdict": "none" if winner is None else f"m={winner.m}",
        "winner": None if winner is None else winner.to_dict(),
    }
    code = EXIT_NEGATIVE if winner is None else EXIT_OK
    if config["format"] == "json":
        return _json_report(config, payload), code
    rows = [(s["m"], s["degree"], float(s["relative_residual"])) for s in sweep]
    return _csv_report(config, "m,D,residual", rows), code


def _cmd_detect(body, xi, config):
    report = detect.is_ellipsoid(body, tol=config["tol"], num_directions=config["directions"], seed=config["seed"])
    code = EXIT_OK if report.accepted else EXIT_NEGATIVE
    if config["format"] == "json":
        return _json_report(config, {"report": report.to_dict()}), code
    rows = [
        ("verdict", report.verdict),
        ("linear_residual", float(report.linear_residual)),
        ("quadratic_residual", float(report.quadratic_residual)),
    ]
    return _csv_report(config, "key,value", rows), code


def _cmd_asymptote(body, xi, config):
    report = algfit.exponent_estimate(body, xi, window=(1e-4, 1e-3))
    predicted = algfit.predicted_boundary_constant(body, xi)
    payload = report.to_dict()
    payload["predicted_constant"] = predicted
    payload["constant_ratio"] = report.estimated_constant / predicted
    if config["format"] == "json":
        return _json_report(config, {"report": payload}), EXIT_OK
    rows = [(float(d), float(v)) for d, v in zip(report.depths, report.values)]
    return _csv_report(config, "depth,A", rows), EXIT_OK


def _cmd_quadric_check(body, xi, config):
    report = quadric_check(body, xi, window=config["window"], num_points=config["grid"], tol=config["tol"])
    code = EXIT_OK if report["verdict"] == "conforms" else EXIT_NEGATIVE
    if config["format"] == "json":
        return _json_report(config, {"report": report}), code
    rows = [
        (r["m"], -1 if r["min_degree"] is None else r["min_degree"], float(r["relative_residual"]))
        for r in report["results"]
    ]
    return _csv_report(config, "m,min_degree,residual", rows), code


# the add_argument keywords of every option a subcommand may declare
_OPTIONS = {
    "--xi": {"required": True, "help": "direction as comma-separated floats (normalized)"},
    "--grid": {"type": int, "default": 64, "help": "profile grid size"},
    "--margin": {"type": float, "default": None, "help": "relative margin trimmed per chord end (default 0.02)"},
    "--m-max": {"type": int, "default": 4, "help": "largest power to try"},
    "--tol": {"type": float, "default": None, "help": "acceptance tolerance"},
    "--directions": {"type": int, "default": 200},
    "--seed": {"type": int, "default": 0},
    "--window": {"default": None, "help": "explicit t window LO,HI (quadric bodies)"},
}

# each subcommand's handler and the options it reads
_COMMANDS = {
    "profile": (_cmd_profile, ("--xi", "--grid", "--margin", "--window")),
    "moments": (_cmd_moments, ("--directions", "--seed")),
    "algfit": (_cmd_algfit, ("--xi", "--grid", "--margin", "--m-max", "--tol")),
    "detect": (_cmd_detect, ("--tol", "--directions", "--seed")),
    "asymptote": (_cmd_asymptote, ("--xi",)),
    "quadric-check": (_cmd_quadric_check, ("--xi", "--grid", "--tol", "--window")),
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so they exit with EXIT_ERROR like
    every other bad input instead of argparse's SystemExit(2).  Every parser,
    a subcommand's included, rejects the arguments it does not recognize
    itself, so the error shows that parser's usage."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        # --margin trims only the automatic chord, which --window replaces
        if getattr(namespace, "margin", None) is not None and getattr(namespace, "window", None) is not None:
            self.error("argument --margin: not allowed with argument --window")
        return namespace, extras


# options whose value may start with "-", as in --xi -1,0,0
_SIGNED_VALUE_OPTIONS = ("--xi", "--window")


def _names_signed_value_option(arg):
    """Whether ``arg`` is a signed-value option or a prefix of one: argparse
    expands a unique prefix and reports an ambiguous one itself."""
    return len(arg) > 2 and arg.startswith("--") and any(opt.startswith(arg) for opt in _SIGNED_VALUE_OPTIONS)


def _bind_signed_values(argv):
    """Rewrite ``--xi -1,0,0`` as ``--xi=-1,0,0``, and an abbreviation such
    as ``--x -1,0,0`` as ``--x=-1,0,0``: argparse would otherwise read a value
    such as -1,0,0 as an unknown option."""
    out = []
    for arg in argv:
        if out and _names_signed_value_option(out[-1]) and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="tomoslice",
        description="Section volume profiles of convex bodies and their algebraic structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--body", required=True, help="path to a body JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


_DEFAULT_MARGIN = 0.02
_DEFAULT_TOL = {
    "algfit": algfit.DEFAULT_ACCEPT_TOL,
    "detect": detect.DEFAULT_TOL_EXACT,
    "quadric-check": algfit.QUADRIC_TOL,
}


def _parse_window(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--window must be LO,HI")
    return float(parts[0]), float(parts[1])


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_bind_signed_values(argv))
    # the parsed values are command, body, out, format and the declared options
    config = vars(args)
    out_path = config.pop("out")
    if "tol" in config:
        if config["tol"] is None:
            config["tol"] = _DEFAULT_TOL[args.command]
        _require_tol("--tol", config["tol"])
    if "margin" in config and config["margin"] is None:
        config["margin"] = _DEFAULT_MARGIN
    body = load_body(config["body"])
    config["body"] = body_to_dict(body)
    xi = None
    if "xi" in config:
        xi = _parse_xi(config["xi"], body.n)
        config["xi"] = xi.tolist()
    if config.get("window") is not None:
        config["window"] = _parse_window(config["window"])
    handler, _ = _COMMANDS[args.command]
    text, code = handler(body, xi, config)
    _emit(text, out_path)
    return code


def main(argv=None):
    try:
        return run(argv)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
