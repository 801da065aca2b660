"""Configuration parsing, command dispatch and file emission.

Exit codes: 0 success/pass, 2 criterion fail or collision found,
3 hypothesis violation, 64 flag parse error, 70 numerical failure.
"""

import argparse
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .chain import chain_grid, transfer_grid
from .criterion import VARIANTS, DiskGrid, ParameterSet, criterion_check
from .errors import ConfigError, HypothesisViolation, InconclusiveError, UnivalenceLabError
from .extension import beltrami_grid, extend_grid, extension_constants
from .operator import operator_grid
from .oracle import SampleCloud, argument_principle_check, injectivity_scan, polar_samples
from .series import SeriesFunction, catalog_build

COMMANDS = ("check", "eval", "chain", "extend", "constants", "oracle", "plot")


@dataclass
class ProblemSpec:
    f: SeriesFunction
    g: SeriesFunction
    phi: SeriesFunction
    params: ParameterSet
    grid: DiskGrid
    variant: str = "thm31"


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(parts, path):
    """complex(*parts), rejecting NaN, infinities and integers too large
    for a float."""
    try:
        z = complex(*parts)
    except OverflowError:
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"{path}: must be finite")
    return z


def _complex_from(value, path):
    if _is_real(value):
        return _finite((value,), path)
    if isinstance(value, list) and len(value) == 2 and all(_is_real(x) for x in value):
        return _finite(value, path)
    raise ConfigError(f"{path}: expected a number or an [re, im] pair")


def _real_from(value, path):
    if _is_real(value):
        return _finite((value,), path).real
    raise ConfigError(f"{path}: expected a real number")


def _reject_unknown(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _parse_function(obj, path):
    _reject_unknown(obj, ("catalog", "params", "coefficients"), path)
    if "catalog" in obj:
        if "coefficients" in obj:
            raise ConfigError(f"{path}: give either catalog or coefficients, not both")
        try:
            return catalog_build(obj["catalog"], obj.get("params"))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if "coefficients" in obj:
        if not isinstance(obj["coefficients"], list):
            raise ConfigError(f"{path}.coefficients: expected a list")
        coeffs = [
            _complex_from(c, f"{path}.coefficients[{i}]")
            for i, c in enumerate(obj["coefficients"])
        ]
        try:
            return SeriesFunction(np.asarray(coeffs))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}: expected catalog or coefficients")


def _parse_params(obj):
    _reject_unknown(obj, ("alpha", "beta", "gamma", "m", "a", "k"), "params")
    kwargs = {}
    for key in ("alpha", "beta", "gamma"):
        if key in obj:
            kwargs[key] = _complex_from(obj[key], f"params.{key}")
    for key in ("m", "a", "k"):
        if key in obj:
            kwargs[key] = _real_from(obj[key], f"params.{key}")
    # k = 1 is the "univalence only" sentinel, not a configurable value
    if "k" in kwargs and not 0.0 <= kwargs["k"] < 1.0:
        raise ConfigError("params.k: must lie in [0, 1)")
    try:
        return ParameterSet(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"params.{exc}") from exc


def parse_config(text):
    """Validate a JSON problem configuration into a ProblemSpec."""
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    else:
        obj = text
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown(obj, ("f", "g", "phi", "params", "grid", "variant"), "config")

    funcs = {}
    for name in ("f", "g", "phi"):
        if name in obj:
            funcs[name] = _parse_function(obj[name], name)
        else:
            funcs[name] = catalog_build("identity")

    params = _parse_params(obj.get("params", {}))

    gobj = obj.get("grid", {})
    _reject_unknown(gobj, ("radii", "angles_per_radius", "refine_steps"), "grid")
    if not isinstance(gobj.get("radii", []), list):
        raise ConfigError("grid.radii: expected a list of numbers")
    try:
        grid = DiskGrid(**{k: (tuple(v) if k == "radii" else v) for k, v in gobj.items()})
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    variant = obj.get("variant", "thm31")
    if variant not in VARIANTS:
        raise ConfigError(f"variant: unknown variant {variant!r}")
    return ProblemSpec(funcs["f"], funcs["g"], funcs["phi"], params, grid, variant)


def serialize(spec):
    """Inverse of parse_config (functions as coefficient lists)."""
    return {
        "f": {"coefficients": spec.f.to_json()},
        "g": {"coefficients": spec.g.to_json()},
        "phi": {"coefficients": spec.phi.to_json()},
        "params": {
            "alpha": [spec.params.alpha.real, spec.params.alpha.imag],
            "beta": [spec.params.beta.real, spec.params.beta.imag],
            "gamma": [spec.params.gamma.real, spec.params.gamma.imag],
            "m": spec.params.m,
            "a": spec.params.a,
            # k = 1 is the "univalence only" sentinel and is not a valid
            # config value; it round-trips as the default by omission
            **({"k": spec.params.k} if spec.params.k < 1.0 else {}),
        },
        "grid": spec.grid.to_json(),
        "variant": spec.variant,
    }


def bundled_configs():
    """Name -> JSON text of the configurations shipped with the package."""
    out = {}
    for entry in resources.files("univalence_lab.configs").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry.read_text()
    return out


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{float(x):.17g}"


def format_complex(v):
    v = complex(v)
    return f"{_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}i"


def parse_complex(text):
    try:
        return complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def emit_grid_csv(rows, columns, path):
    """CSV with 17-significant-digit decimals and a newline-terminated
    final line; rows is a 2-d array, or anything np.asarray makes one of.
    The whole body is one format operation: the same text as _fmt."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        rows = rows.reshape(0, len(columns))
    if rows.ndim != 2 or rows.shape[1] != len(columns):
        raise ValueError("ragged row in CSV emission")
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    text = ",".join(columns) + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return path


def read_grid_csv(path):
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [
            [float(x) for x in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return header, rows


def emit_svg(rows, columns, path, size=640):
    """Image-mesh figure: the w-plane images of the polar grid circles and
    rays.  Input rows must form a complete polar grid in z."""
    try:
        iz = (columns.index("re_z"), columns.index("im_z"))
        iw = (columns.index("re_w"), columns.index("im_w"))
    except ValueError as exc:
        raise ValueError("CSV must carry re_z,im_z,re_w,im_w columns") from exc
    has_t = "t" in columns
    if has_t:
        it = columns.index("t")
        tvals = sorted({row[it] for row in rows})
        rows = [row for row in rows if row[it] == tvals[0]]
    pts = {}
    for row in rows:
        z = complex(row[iz[0]], row[iz[1]])
        r = round(abs(z), 9)
        th = round(math.atan2(z.imag, z.real) % (2.0 * math.pi), 9)
        pts[(r, th)] = complex(row[iw[0]], row[iw[1]])
    radii = sorted({k[0] for k in pts})
    thetas = sorted({k[1] for k in pts})
    if len(pts) != len(radii) * len(thetas):
        raise ValueError("rows do not form a complete polar grid")

    ws = list(pts.values())
    xmin = min(w.real for w in ws)
    xmax = max(w.real for w in ws)
    ymin = min(w.imag for w in ws)
    ymax = max(w.imag for w in ws)
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    pad = 0.05 * span

    def sx(x):
        return (x - xmin + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - ymin + pad) / (span + 2 * pad) * size

    def polyline(seq, color):
        coords = " ".join(f"{sx(w.real):.3f},{sy(w.imag):.3f}" for w in seq)
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{coords}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for r in radii:
        seq = [pts[(r, th)] for th in thetas] + [pts[(r, thetas[0])]]
        parts.append(polyline(seq, "#1f77b4"))
    for th in thetas:
        seq = [pts[(r, th)] for r in radii]
        parts.append(polyline(seq, "#d62728"))
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_check(spec, flags):
    report = criterion_check(
        spec.variant, spec.params, spec.f, spec.g, spec.phi, spec.grid
    )
    text = json.dumps(report.to_json(), indent=2)
    print(text)
    files = []
    if flags.get("out"):
        with open(flags["out"], "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        files.append(flags["out"])
    return (0 if report.passed else 2), files


def _cmd_eval(spec, flags):
    if flags.get("z") is not None:
        z = np.array([flags["z"]], dtype=np.complex128)
        values, _, _, flagged = operator_grid(z, spec.params, spec.f, spec.g, spec.phi)
        print(format_complex(values[0]))
        _warn_flagged(flagged)
        return 0, []
    if not flags.get("out"):
        raise ConfigError("eval needs --z or --out")
    zs = polar_samples(flags.get("nr", 16), flags.get("ntheta", 64), flags.get("rmax", 0.9))
    values, _, _, flagged = operator_grid(zs, spec.params, spec.f, spec.g, spec.phi)
    _warn_flagged(flagged)
    rows = np.column_stack((zs.real, zs.imag, values.real, values.imag, flagged))
    emit_grid_csv(rows, ("re_z", "im_z", "re_w", "im_w", "flagged"), flags["out"])
    return 0, [flags["out"]]


def _warn_flagged(flagged):
    if np.any(flagged):
        print(
            f"warning: {int(flagged.sum())} of {flagged.size} points flagged for a "
            "branch crossing; their values are invalid",
            file=sys.stderr,
        )


def _cmd_chain(spec, flags):
    if not flags.get("out"):
        raise ConfigError("chain needs --out")
    zs = polar_samples(flags.get("nr", 8), flags.get("ntheta", 16), flags.get("rmax", 0.9))
    ts = np.linspace(0.0, flags.get("tmax", 1.0), flags.get("tsteps", 5))
    z = np.tile(zs, ts.size)
    t = np.repeat(ts, zs.size)
    L, flagged = chain_grid(z, t, spec.params, spec.f, spec.g, spec.phi)
    _, w, _ = transfer_grid(z, t, spec.params, spec.f, spec.g, spec.phi)
    _warn_flagged(flagged)
    rows = np.column_stack((z.real, z.imag, t, L.real, L.imag, np.abs(w), flagged))
    emit_grid_csv(rows, ("re_z", "im_z", "t", "re_w", "im_w", "abs_w", "flagged"), flags["out"])
    return 0, [flags["out"]]


def _cmd_extend(spec, flags):
    if not flags.get("out"):
        raise ConfigError("extend needs --out")
    r = np.linspace(flags.get("rmin", 0.5), flags.get("rmax", 2.0), flags.get("nr", 8))
    theta = np.linspace(0.0, 2.0 * np.pi, flags.get("ntheta", 16), endpoint=False)
    z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    F, flagged = extend_grid(z, spec.params, spec.f, spec.g, spec.phi)
    _warn_flagged(flagged)
    mu = np.zeros(z.shape)
    # abs_mu is documented for |z| > 1 + 3e-5 and unflagged rows, 0 elsewhere
    has_mu = np.repeat(r > 1.0 + 3e-5, theta.size) & ~flagged
    mu[has_mu] = np.abs(beltrami_grid(z[has_mu], spec.params, spec.f, spec.g, spec.phi))
    rows = np.column_stack((z.real, z.imag, F.real, F.imag, mu, flagged))
    emit_grid_csv(rows, ("re_z", "im_z", "re_w", "im_w", "abs_mu", "flagged"), flags["out"])
    return 0, [flags["out"]]


def _cmd_constants(spec, flags):
    consts = extension_constants(flags["k"], flags.get("a", 1.0))
    text = json.dumps(consts.to_json(), indent=2)
    print(text)
    files = []
    if flags.get("out"):
        with open(flags["out"], "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        files.append(flags["out"])
    return 0, files


def _cmd_oracle(spec, flags):
    nr = flags.get("nr", 100)
    ntheta = flags.get("ntheta", 100)
    rmax = flags.get("rmax", 0.99)
    zs = polar_samples(nr, ntheta, rmax)
    values, _, _, crossing = operator_grid(zs, spec.params, spec.f, spec.g, spec.phi)
    keep = ~crossing
    cloud = SampleCloud(zs[keep], values[keep], rmax)
    pair = injectivity_scan(cloud)

    n_targets = flags.get("targets", 50)
    rng = np.random.default_rng(flags.get("seed", 0))
    circle = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 2049))
    curve, _, _, curve_flagged = operator_grid(rmax * circle, spec.params, spec.f, spec.g, spec.phi)
    if np.any(curve_flagged):
        raise InconclusiveError(
            f"{int(curve_flagged.sum())} of {curve.size} boundary curve points flagged "
            "for a branch crossing; the covering count cannot be taken"
        )
    curve[-1] = curve[0]
    inner = cloud.values[np.abs(cloud.z) <= 0.5 * rmax]
    if inner.size == 0:
        raise InconclusiveError(
            f"no kept sample with |z| <= {0.5 * rmax:.17g} to serve as a covering target"
        )
    targets = rng.choice(inner, size=min(n_targets, inner.size), replace=False)
    covered_once = argument_principle_check(curve, targets)

    report = {
        "collision": None
        if pair is None
        else [[pair[0].real, pair[0].imag], [pair[1].real, pair[1].imag]],
        "samples": int(cloud.z.size),
        "flagged": int(crossing.sum()),
        "covered_once": covered_once,
    }
    print(json.dumps(report, indent=2))
    return (0 if pair is None and covered_once else 2), []


def _cmd_plot(spec, flags):
    if not flags.get("csv") or not flags.get("out"):
        raise ConfigError("plot needs --csv and --out")
    header, rows = read_grid_csv(flags["csv"])
    emit_svg(rows, header, flags["out"])
    return 0, [flags["out"]]


_DISPATCH = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "chain": _cmd_chain,
    "extend": _cmd_extend,
    "constants": _cmd_constants,
    "oracle": _cmd_oracle,
    "plot": _cmd_plot,
}


def run_command(command, spec, flags=None):
    """Dispatch one command; returns (exit status, emitted file paths).

    flags maps the command's flag names to values: each either its
    command-line text or the value the command-line parser makes of it
    (counts int, radii and times float, z complex).  Every value passes the
    same checks as on the command line (see _FLAGS), so an unknown flag, a
    missing required one or a value out of range raises ConfigError."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    flags = dict(flags or {})
    for name in _REQUIRED.get(command, ()):
        if name not in flags:
            raise ConfigError(f"{command}: argument --{name} is required")
    for name, value in flags.items():
        if name not in _FLAGS[command]:
            raise ConfigError(f"{command}: unknown flag --{name}")
        if _FLAGS[command][name] is not None:
            try:
                flags[name] = _convert(_FLAGS[command][name], value)
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"argument --{name}: {exc}") from None
    try:
        return _DISPATCH[command](spec, flags)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3, []
    except ConfigError:
        raise
    except UnivalenceLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 70, []


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _Rule(NamedTuple):
    """A flag value: `parse` reads its text, a value already parsed must be
    a `kind`, and `check` must hold, else `message`."""

    parse: Callable
    kind: type
    check: Callable
    message: str


def _convert(rule, value):
    """The value of a flag from its text or its parsed value, raising
    argparse.ArgumentTypeError when it is malformed or out of range."""
    if isinstance(value, str):
        text = value
        try:
            value = rule.parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
    elif isinstance(value, bool) or not isinstance(value, rule.kind):
        raise argparse.ArgumentTypeError(f"invalid value {value!r}")
    else:
        text = value
    if not rule.check(value):
        raise argparse.ArgumentTypeError(f"{text!r}: {rule.message}")
    return value


_COUNT = _Rule(int, numbers.Integral, lambda n: n >= 1, "must be >= 1")
_RADIUS = _Rule(float, numbers.Real, lambda r: 0.0 < r < 1.0, "must lie in (0, 1)")
_FINITE = _Rule(float, numbers.Real, math.isfinite, "must be finite")
_PATH = None  # a file name, kept as given

# every flag of every command and the rule of its value: the command line
# and run_command check values here alone, so a bad value is a flag error
# (exit 64)
_FLAGS = {
    "check": {"out": _PATH},
    "eval": {
        "z": _Rule(parse_complex, numbers.Complex, lambda z: abs(z) < 1.0, "must lie in |z| < 1"),
        "out": _PATH,
        "nr": _COUNT,
        "ntheta": _COUNT,
        "rmax": _RADIUS,
    },
    "chain": {
        "out": _PATH,
        "nr": _COUNT,
        "ntheta": _COUNT,
        "rmax": _RADIUS,
        "tmax": _Rule(float, numbers.Real, lambda t: 0.0 <= t < math.inf, "must be finite and >= 0"),
        "tsteps": _COUNT,
    },
    "extend": {"out": _PATH, "rmin": _FINITE, "rmax": _FINITE, "nr": _COUNT, "ntheta": _COUNT},
    "constants": {
        "k": _Rule(float, numbers.Real, lambda k: 0.0 <= k < 1.0, "must lie in [0, 1)"),
        "a": _Rule(float, numbers.Real, lambda a: 0.0 < a < math.inf, "must be finite and > 0"),
        "out": _PATH,
    },
    "oracle": {
        "nr": _COUNT,
        "ntheta": _COUNT,
        "rmax": _RADIUS,
        "targets": _COUNT,
        "seed": _Rule(int, numbers.Integral, lambda n: n >= 0, "must be >= 0"),
    },
    "plot": {"csv": _PATH, "out": _PATH},
}
_REQUIRED = {"constants": ("k",), "plot": ("csv", "out")}
_NO_CONFIG = ("constants", "plot")


@functools.lru_cache(maxsize=1)
def _build_parser():
    parser = _Parser(prog="univalence-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, rules in _FLAGS.items():
        sp = sub.add_parser(command)
        if command not in _NO_CONFIG:
            sp.add_argument("config", nargs="?", help="JSON problem configuration file")
        for name, rule in rules.items():
            kind = str if rule is None else (lambda text, rule=rule: _convert(rule, text))
            sp.add_argument(f"--{name}", type=kind, required=name in _REQUIRED.get(command, ()))
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 64
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config") and v is not None}
    try:
        if getattr(ns, "config", None):
            with open(ns.config, encoding="utf-8") as fh:
                spec = parse_config(fh.read())
        else:
            spec = parse_config({})
        status, _ = run_command(ns.command, spec, flags)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
