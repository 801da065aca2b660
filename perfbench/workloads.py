"""The three workloads and their oracle gates.

A workload is a list of steps.  Each step is one CLI command, run
in-process through `univalence_lab.cli.main(argv)`, or one public API call.
Running a step is timed; gating its output is not.  A step covers a fixed
number of operations (ops), and the gate gives each op one status:

    ok      the output agrees with the oracle
    wrong   the call returned, but the oracle rejects the output
    raised  the call raised, exited with an error code, or flagged the
            value as invalid

The seed draws point sets, angle offsets and sweep parameters, never
sizes, so the op count of a workload does not depend on the seed.

Some steps fail at the commit that introduced this benchmark.  They carry a
`known_defect` note, stay in the workload and count as failed; they only
stop such failures from marking the whole run incorrect.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as O
from univalence_lab import chain, cli, criterion, extension, operator
from univalence_lab.criterion import DiskGrid, ParameterSet
from univalence_lab.series import catalog_build

REL_TOL = 1e-9  # relative agreement asked of every value and sup
ABS_TOL = 1e-14  # floor for values that are exactly 0
MU_TOL = 1e-7  # |mu - mu_oracle|: both are central differences with h = 1e-5
PDE_TOL = 1e-7  # bound on the relative PDE residual (about 1e-9 when correct)
BOUND_TOL = 1e-12  # the package's own strictness tolerance for a PASS


@dataclass
class Step:
    name: str
    ops: list
    run: Callable[[], Any]
    gate: Callable[[Any], list]
    known_defect: str | None = None


@dataclass
class Raised:
    error: BaseException


@dataclass
class CliRun:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Plan:
    steps: list
    configs: list = field(default_factory=list)  # config files the CLI steps read

    @property
    def n_ops(self):
        return sum(len(s.ops) for s in self.steps)


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliRun(rc, out.getvalue(), err.getvalue())


def gate_step(step, raw):
    """Statuses of the step's ops: a list of (status, detail)."""
    if isinstance(raw, Raised):
        detail = f"{type(raw.error).__name__}: {raw.error}"
        return [("raised", detail)] * len(step.ops)
    try:
        statuses = step.gate(raw)
    except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
        return [("wrong", f"malformed output: {type(exc).__name__}: {exc}")] * len(step.ops)
    if len(statuses) != len(step.ops):
        raise RuntimeError(f"gate of {step.name} gave {len(statuses)} statuses for {len(step.ops)} ops")
    return statuses


def close(value, ref, rel=REL_TOL):
    """Elementwise |value - ref| <= rel |ref| + ABS_TOL."""
    return np.abs(np.asarray(value) - ref) <= rel * np.abs(ref) + ABS_TOL


def per_value(ok, what):
    return [("ok", "") if good else ("wrong", what) for good in ok]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def configs_dir(root):
    return os.path.join(root, "src", "univalence_lab", "configs")


def load_config(root, name):
    with open(os.path.join(configs_dir(root), name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _number(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def config_params(obj):
    """Parameters of a config file with the documented defaults."""
    p = {"alpha": 1.0, "beta": 0.0, "gamma": 1.0, "m": 1.0, "a": 1.0, "k": 1.0}
    for key, value in obj.get("params", {}).items():
        p[key] = _number(value) if key in ("alpha", "beta", "gamma") else float(value)
    return p


def catalog_coefficients(spec):
    """c_1..c_N of a catalog entry, written out from its definition."""
    name = spec["catalog"]
    params = spec.get("params", {})
    if name == "identity":
        return np.array([1.0 + 0j])
    if name == "quadratic":
        return np.array([1.0, _number(params["c"])])
    n = np.arange(1, int(params.get("degree", 64)) + 1)
    if name == "koebe":
        return n.astype(np.complex128)
    if name == "expscaled":
        lam = _number(params.get("lam", 1.0))
        return np.array([lam ** (k - 1) / math.factorial(k) for k in n], dtype=np.complex128)
    raise ValueError(f"no oracle for catalog entry {name!r}")


def config_functions(obj):
    ident = {"catalog": "identity"}
    return tuple(catalog_coefficients(obj.get(k, ident)) for k in ("f", "g", "phi"))


def example31_functions():
    """f = z + z^2/4, g = z + z^2/2, phi = z."""
    return catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5}), catalog_build("identity")


def polar_grid(nr, ntheta, rmax):
    r = np.linspace(rmax / nr, rmax, nr)
    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


def disk_points(rng, n, rmax):
    """n points uniformly distributed in the disk |z| <= rmax."""
    return rmax * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def read_csv(path, columns):
    """The named columns of a CSV written by the CLI, in the order asked."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{os.path.basename(path)}: no column {missing} in {header}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, [header.index(c) for c in columns]]


def csv_gate(path, columns, expected_z, check):
    """Gate a CSV whose rows are ops: the z columns must match the expected
    points and `check(rows)` gives per-row statuses."""
    try:
        rows = read_csv(path, columns)
    except (OSError, ValueError) as exc:
        return [("wrong", f"unreadable output: {exc}")] * expected_z.size
    if rows.shape[0] != expected_z.size:
        return [("wrong", f"{rows.shape[0]} rows, expected {expected_z.size}")] * expected_z.size
    z = rows[:, 0] + 1j * rows[:, 1]
    z_ok = np.abs(z - expected_z) <= 1e-14
    return [st if good else ("wrong", "z column off the requested grid") for st, good in zip(check(rows), z_ok)]


def cli_statuses(run, n_ops, allowed=(0,)):
    """None when the exit code is allowed, else every op raised."""
    if run.rc in allowed:
        return None
    msg = run.stderr.strip().splitlines()
    return [("raised", f"exit {run.rc}: {msg[-1] if msg else ''}")] * n_ops


# ---------------------------------------------------------------------------
# verdict gate
# ---------------------------------------------------------------------------


class VerdictOracle:
    """Independent evaluation of one criterion check.

    The dense scan covers the reported grid's radii and their midpoints at
    four times its angles, turned by a seeded offset."""

    def __init__(self, variant, p, f, g, phi, offset):
        self.variant, self.p, self.fns, self.offset = variant, p, (f, g, phi), offset
        self.bound = O.criterion_bound(variant, p)
        self._scans = {}

    def expr(self, z):
        return O.criterion_expression(self.variant, z, self.p, *self.fns)

    def scans(self, radii, angles):
        """(max over the reported grid, max over the dense grid)."""
        key = (tuple(radii), angles)
        if key not in self._scans:
            r = np.asarray(radii)
            th = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
            grid_max = float(self.expr((r[:, None] * np.exp(1j * th)).ravel()).max())
            dense_r = np.union1d(r, (r[1:] + r[:-1]) / 2.0)
            dense_th = (np.arange(4 * angles) + self.offset) * (2.0 * np.pi / (4 * angles))
            dense_max = float(self.expr((dense_r[:, None] * np.exp(1j * dense_th)).ravel()).max())
            self._scans[key] = grid_max, dense_max
        return self._scans[key]

    def check(self, passed, sup, bound, witness, radii, angles):
        """(status, detail) of one reported verdict."""
        grid_max, dense_max = self.scans(radii, angles)
        at_witness = float(self.expr(np.array([witness]))[0])
        if abs(bound - self.bound) > BOUND_TOL:
            return "wrong", f"bound {bound} != {self.bound}"
        if not close(sup, at_witness):
            return "wrong", f"sup {sup!r} != expression at witness {at_witness!r}"
        if not sup >= grid_max * (1.0 - REL_TOL) - ABS_TOL:
            return "wrong", f"sup {sup!r} below the grid maximum {grid_max!r}"
        if not dense_max <= sup * (1.0 + REL_TOL) + ABS_TOL:
            return "wrong", f"dense scan reaches {dense_max!r} > sup {sup!r}"
        if passed != (max(sup, dense_max) <= self.bound + BOUND_TOL):
            return "wrong", f"verdict passed={passed} contradicts sup {sup!r} vs bound {self.bound}"
        return "ok", ""


def _report_fields(rep):
    """(passed, sup, bound, witness, radii, angles) of a report JSON object."""
    return (
        rep["passed"],
        rep["sup"],
        rep["bound"],
        complex(*rep["witness"]),
        rep["grid"]["radii"],
        rep["grid"]["angles_per_radius"],
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CHECK_CONFIGS = ("example31_thm32", "example31_thm41", "identity", "koebe_cor32")


def build_verdict(root, seed, workdir):
    """`check` on every bundled config, and `criterion_check` for the five
    variants on example31 and on a truncated exponential series."""
    rng = np.random.default_rng(seed)
    steps, configs = [], []
    for name in CHECK_CONFIGS:
        obj = load_config(root, name)
        path = os.path.join(configs_dir(root), name + ".json")
        out = os.path.join(workdir, f"check_{name}.json")
        oracle = VerdictOracle(obj.get("variant", "thm31"), config_params(obj), *config_functions(obj), rng.uniform())
        configs.append(path)

        def gate(run, oracle=oracle, out=out):
            bad = cli_statuses(run, 1, allowed=(0, 2))
            if bad:
                return bad
            with open(out, encoding="ascii") as fh:
                rep = json.load(fh)
            if run.rc != (0 if rep["passed"] else 2):
                return [("wrong", f"exit {run.rc} contradicts passed={rep['passed']}")]
            return [oracle.check(*_report_fields(rep))]

        steps.append(Step(f"check[{name}]", [f"check[{name}]"], lambda a=["check", path, "--out", out]: call_cli(a), gate))

    gamma = rng.uniform(0.75, 1.25)
    lam = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
    ex_f, ex_g, ident = example31_functions()
    exp_f = catalog_build("expscaled", {"lam": lam, "degree": 32})
    exp_g = catalog_build("expscaled", {"lam": lam / 2.0, "degree": 32})
    families = (
        ("example31", ParameterSet(alpha=0.5, beta=0.5, gamma=gamma, m=1.0, a=1.0, k=0.3), ex_f, ex_g),
        ("expscaled", ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, a=1.0, k=0.3), exp_f, exp_g),
    )
    grid = DiskGrid()
    for label, p, f, g in families:
        pd = {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma, "m": p.m, "a": p.a, "k": p.k}
        for variant in criterion.VARIANTS:
            oracle = VerdictOracle(variant, pd, f.coefficients, g.coefficients, ident.coefficients, rng.uniform())

            def run(variant=variant, p=p, f=f, g=g):
                return criterion.criterion_check(variant, p, f, g, ident, grid)

            def gate(rep, oracle=oracle):
                return [oracle.check(rep.passed, rep.sup_value, rep.bound, rep.witness,
                                     rep.grid.radii, rep.grid.angles_per_radius)]

            name = f"criterion_check[{label},{variant}]"
            steps.append(Step(name, [name], run, gate))
    return Plan(steps, configs)


SWEEP = (  # gamma, points, known defect when this benchmark was written
    (1.0, 1024, None),
    (0.5, 1024, None),
    (0.5 + 0.5j, 64, None),
    (1e-3, 16, "substitution power 2000 underflows s**pw; F off by ~1e-2, unflagged"),
    (0.01 + 1j, 16, "panel doubling shares outer panels and stops early; brackets off by ~30, unflagged"),
)


def build_image(root, seed, workdir):
    """`eval --out` and `oracle` on example31 and identity, plus an
    example31-family gamma sweep through operator_grid."""
    rng = np.random.default_rng(seed)
    steps, configs = [], []
    nr, ntheta = 32, 128
    for name in ("example31_thm32", "identity"):
        obj = load_config(root, name)
        p = config_params(obj)
        path = os.path.join(configs_dir(root), name + ".json")
        configs.append(path)
        out = os.path.join(workdir, f"eval_{name}.csv")
        rmax = rng.uniform(0.85, 0.95)
        zs = polar_grid(nr, ntheta, rmax)
        if name == "identity":
            ref = zs
        else:
            ref = O.example31_operator(zs, p["alpha"] + p["beta"], p["gamma"])

        def gate(run, out=out, zs=zs, ref=ref):
            return cli_statuses(run, zs.size) or csv_gate(
                out, ("re_z", "im_z", "re_w", "im_w"), zs,
                lambda rows: per_value(close(rows[:, 2] + 1j * rows[:, 3], ref), "F(z) off the oracle"),
            )

        argv = ["eval", path, "--out", out, "--nr", str(nr), "--ntheta", str(ntheta), "--rmax", repr(rmax)]
        steps.append(Step(f"eval[{name}]", [f"eval[{name}]#{i}" for i in range(zs.size)],
                          lambda a=argv: call_cli(a), gate))

    for name in ("example31_thm32", "identity"):
        path = os.path.join(configs_dir(root), name + ".json")
        n = 64
        argv = ["oracle", path, "--nr", str(n), "--ntheta", str(n), "--rmax", repr(rng.uniform(0.9, 0.99)),
                "--seed", str(int(rng.integers(2**31)))]

        def gate(run, n=n):
            bad = cli_statuses(run, 1, allowed=(0, 2))
            if bad:
                return bad
            rep = json.loads(run.stdout)
            if rep["collision"] is not None or not rep["covered_once"] or rep["samples"] != n * n or run.rc:
                return [("wrong", f"expected no collision, covered once, {n * n} samples; got {rep}")]
            return [("ok", "")]

        steps.append(Step(f"oracle[{name}]", [f"oracle[{name}]"], lambda a=argv: call_cli(a), gate))

    alpha, beta = rng.uniform(0.25, 0.75, size=2)
    f, g, phi = example31_functions()
    for gamma, n, defect in SWEEP:
        p = ParameterSet(alpha=alpha, beta=beta, gamma=gamma)
        zs = disk_points(rng, n, 0.9)
        ref = O.example31_operator(zs, alpha + beta, gamma)

        def run(zs=zs, p=p):
            return operator.operator_grid(zs, p, f, g, phi)

        def gate(res, ref=ref):
            values, _, _, flagged = res
            ok = close(values, ref)
            return [("raised", "branch crossing flagged") if fl else st
                    for st, fl in zip(per_value(ok, "F(z) off the oracle"), flagged)]

        name = f"sweep[gamma={gamma:g}]"
        steps.append(Step(name, [f"{name}#{i}" for i in range(n)], run, gate, defect))
    return Plan(steps, configs)


def build_chain(root, seed, workdir):
    """`chain --out` and `extend --out` at default flags, a few PDE
    residuals, one subordination probe and a Beltrami ring."""
    rng = np.random.default_rng(seed)
    steps, configs = [], []
    columns = ("re_z", "im_z", "t", "re_w", "im_w", "abs_w")
    for name, (nr, ntheta, tsteps) in (("example31_thm41", (8, 16, 5)), ("identity", (2, 8, 3))):
        obj = load_config(root, name)
        P = config_params(obj)
        path = os.path.join(configs_dir(root), name + ".json")
        configs.append(path)
        rmax, tmax = rng.uniform(0.8, 0.95), rng.uniform(0.5, 1.5)
        zs = polar_grid(nr, ntheta, rmax)
        ts = np.linspace(0.0, tmax, tsteps)
        zz, tt = np.tile(zs, tsteps), np.repeat(ts, zs.size)
        if name == "identity":
            L_ref = O.identity_chain(zz, tt, P["m"], P["a"])
        else:
            L_ref = O.example31_chain(zz, tt, P["alpha"] + P["beta"], P["gamma"], P["m"], P["a"])
        w_ref = O.transfer_abs_w(np.exp(-P["a"] * tt) * zz, tt, P, *config_functions(obj))
        out = os.path.join(workdir, f"chain_{name}.csv")

        def check(rows, tt=tt, L_ref=L_ref, w_ref=w_ref):
            t_ok = rows[:, 2] == tt
            L_ok = close(rows[:, 3] + 1j * rows[:, 4], L_ref)
            w_ok = close(rows[:, 5], w_ref)
            return [("ok", "") if a_ and b_ and c_ else ("wrong", "t, L or |w| off the oracle")
                    for a_, b_, c_ in zip(t_ok, L_ok, w_ok)]

        def gate(run, out=out, zz=zz, check=check):
            return cli_statuses(run, zz.size) or csv_gate(out, columns, zz, check)

        argv = ["chain", path, "--out", out, "--nr", str(nr), "--ntheta", str(ntheta), "--tsteps", str(tsteps),
                "--rmax", repr(rmax), "--tmax", repr(tmax)]
        steps.append(Step(f"chain[{name}]", [f"chain[{name}]#{i}" for i in range(zz.size)],
                          lambda a=argv: call_cli(a), gate))

    ex_path = configs[0]
    P = config_params(load_config(root, "example31_thm41"))
    s, gamma, m, a = P["alpha"] + P["beta"], P["gamma"], P["m"], P["a"]
    # extend at the CLI defaults: radii linspace(0.5, 2, 8), 16 angles
    ze = (np.linspace(0.5, 2.0, 8)[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))).ravel()

    def extension_ref(z):
        return O.example31_extension(z, s, gamma, m, a)

    F_ref = extension_ref(ze)
    l_bound = O.extension_l(P["k"], a)
    has_mu = np.abs(ze) > 1.0 + 3e-5
    mu_ref = np.where(has_mu, np.abs(O.beltrami(extension_ref, ze)), 0.0)
    out = os.path.join(workdir, "extend.csv")

    def check_extend(rows):
        F_ok = close(rows[:, 2] + 1j * rows[:, 3], F_ref)
        mu = rows[:, 4]
        mu_ok = (np.abs(mu - mu_ref) <= MU_TOL) & (mu <= l_bound + BOUND_TOL)
        return [("ok", "") if a_ and b_ else ("wrong", "F or |mu| off the oracle") for a_, b_ in zip(F_ok, mu_ok)]

    def gate_extend(run):
        return cli_statuses(run, ze.size) or csv_gate(out, ("re_z", "im_z", "re_w", "im_w", "abs_mu"), ze,
                                                      check_extend)

    steps.append(Step("extend[example31_thm41]", [f"extend[example31_thm41]#{i}" for i in range(ze.size)],
                      lambda: call_cli(["extend", ex_path, "--out", out]), gate_extend,
                      "z/abs(z) has modulus 1 + 2.2e-16 at one Beltrami stencil point; chain_eval rejects it, exit 70"))

    p = ParameterSet(alpha=P["alpha"], beta=P["beta"], gamma=gamma, m=m, a=a, k=P["k"])
    fs, gs, phis = example31_functions()
    for i in range(6):
        z = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())
        t = rng.uniform(0.05, 1.0)

        def gate_pde(res):
            return [("ok", "") if res <= PDE_TOL else ("wrong", f"residual {res:.3g} > {PDE_TOL:g}")]

        steps.append(Step(f"pde_residual#{i}", [f"pde_residual#{i}"],
                          lambda z=z, t=t: chain.pde_residual(z, t, p, fs, gs, phis), gate_pde))

    t0 = rng.uniform(0.0, 0.4)
    t1 = t0 + rng.uniform(0.1, 0.5)
    rho = rng.uniform(0.6, 0.9)
    inner = O.example31_chain(0.5 * rho * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False)), t0,
                              s, gamma, m, a)
    curve = O.example31_chain(rho * np.exp(1j * np.linspace(0, 2 * np.pi, 4097)), t1, s, gamma, m, a)
    expected = bool(np.all(O.winding_numbers(curve, inner) == 1))

    def gate_probe(res):
        return [("ok", "") if res == expected else ("wrong", f"probe says {res}, oracle {expected}")]

    steps.append(Step("subordination_probe", ["subordination_probe"],
                      lambda: chain.subordination_probe(t0, t1, rho, p, fs, gs, phis), gate_probe))

    # the package's default radii: seeded radii land on the extend seam
    # defect at random, which would make the ring's cost depend on the seed
    radii = (1.05, 1.3, 1.6, 2.0)
    zr = (np.asarray(radii)[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))).ravel()
    mu_ring = O.beltrami(extension_ref, zr)

    def gate_ring(samples):
        z = np.array([smp.z for smp in samples])
        mu = np.array([smp.mu for smp in samples])
        if z.shape != zr.shape or np.abs(z - zr).max() > 1e-14:
            return [("wrong", "ring samples off the requested points")] * zr.size
        ok = (np.abs(mu - mu_ring) <= MU_TOL) & (np.abs(mu) <= l_bound + BOUND_TOL)
        return per_value(ok, f"mu off the oracle or |mu| > l = {l_bound}")

    steps.append(Step("beltrami_ring", [f"beltrami_ring#{i}" for i in range(zr.size)],
                      lambda: extension.beltrami_ring(p, fs, gs, phis, radii=radii), gate_ring))
    return Plan(steps, configs)


WORKLOADS = {"verdict": build_verdict, "image": build_image, "chain": build_chain}
