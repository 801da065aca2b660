"""Config parsing, serialization round-trips, file emission, exit codes."""

import json
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalence_lab import cli
from univalence_lab.cli import (
    bundled_configs,
    emit_grid_csv,
    emit_svg,
    format_complex,
    main,
    parse_complex,
    parse_config,
    read_grid_csv,
    run_command,
    serialize,
)
from univalence_lab.errors import ConfigError, DomainError
from univalence_lab.extension import beltrami_grid


class TestParseConfig:
    def test_defaults(self):
        spec = parse_config({"f": {"catalog": "identity"}, "params": {"gamma": [1, 0]}})
        assert spec.f.degree == 1
        assert spec.params.m == 1.0 and spec.params.a == 1.0
        assert spec.variant == "thm31"
        assert spec.grid.radii[-1] < 1.0

    def test_gamma_zero(self):
        with pytest.raises(ConfigError, match="params.gamma: must be nonzero"):
            parse_config({"params": {"gamma": [0, 0]}})

    def test_c1_not_one(self):
        with pytest.raises(ConfigError, match="f: c1 must equal 1"):
            parse_config({"f": {"coefficients": [[2, 0]]}})

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError, match=r"params.k: must lie in \[0, 1\)"):
            parse_config({"params": {"k": 1.0}})

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="config: unknown keys"):
            parse_config({"mystery": 1})
        with pytest.raises(ConfigError, match="params: unknown keys"):
            parse_config({"params": {"delta": 2}})

    def test_unknown_catalog(self):
        with pytest.raises(ConfigError, match="f: unknown catalog"):
            parse_config({"f": {"catalog": "weird"}})

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config({"variant": "thm99"})

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{nope")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"params": {"m": float("nan")}}, "params.m: must be finite"),
            ({"params": {"a": 10**400}}, "params.a: must be finite"),
            ({"params": {"alpha": float("nan")}}, "params.alpha: must be finite"),
            ({"params": {"gamma": [1.0, float("inf")]}}, "params.gamma: must be finite"),
            ({"params": {"a": 0.0}}, r"params.a: must be > 0"),
            ({"params": {"m": -1.0}}, r"params.m: must be >= 0"),
            ({"params": [1, 2]}, "params: expected an object"),
            ({"grid": {"radii": 5}}, "grid.radii: expected a list"),
            ({"grid": {"angles_per_radius": float("inf")}}, "grid:"),
            ({"f": {"coefficients": [1.0, float("nan")]}}, r"f.coefficients\[1\]: must be finite"),
        ],
    )
    def test_rejected_at_parse_time(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(doc))

    def test_every_variant_parses(self):
        from univalence_lab.criterion import VARIANTS

        for variant in VARIANTS:
            assert parse_config({"variant": variant}).variant == variant

    def test_complex_forms(self):
        spec = parse_config({"params": {"gamma": 2.0, "alpha": [0.5, -0.25]}})
        assert spec.params.gamma == 2.0
        assert spec.params.alpha == 0.5 - 0.25j

    def test_roundtrip_bundled(self):
        configs = bundled_configs()
        assert {"identity", "example31_thm32", "example31_thm41", "koebe_cor32"} <= set(configs)
        for name, text in configs.items():
            spec = parse_config(text)
            again = parse_config(json.dumps(serialize(spec)))
            assert again.f == spec.f and again.g == spec.g and again.phi == spec.phi
            assert again.params == spec.params
            assert again.grid == spec.grid
            assert again.variant == spec.variant


class TestComplexText:
    def test_roundtrip(self):
        for v in (0.5 + 0.3j, -1.25, 2j, 0.0):
            assert parse_complex(format_complex(v)) == v

    def test_parse_error(self):
        with pytest.raises(ConfigError):
            parse_complex("zebra")


class TestCsv:
    def test_exact_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_grid_csv([(0.5, 0, 0.5625, 0)], ("re_z", "im_z", "re_w", "im_w"), path)
        assert path.read_bytes() == b"re_z,im_z,re_w,im_w\n0.5,0,0.5625,0\n"

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_grid_csv([], ("re_z", "im_z", "re_w", "im_w"), path)
        assert path.read_bytes() == b"re_z,im_z,re_w,im_w\n"

    def test_bit_identical_reparse(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [tuple(rng.normal(size=4)) for _ in range(20)]
        path = tmp_path / "grid.csv"
        emit_grid_csv(rows, ("re_z", "im_z", "re_w", "im_w"), path)
        header, back = read_grid_csv(path)
        assert header == ["re_z", "im_z", "re_w", "im_w"]
        for row, parsed in zip(rows, back):
            assert all(a == b for a, b in zip(row, parsed))

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_grid_csv([(1, 2)], ("a", "b", "c"), tmp_path / "x.csv")


def _per_row_csv(rows, columns):
    """The row-by-row writer emit_grid_csv replaced, as the byte reference."""
    fmt = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    for row in rows:
        lines.append(fmt % tuple(row))
    return ("\n".join(lines) + "\n").encode("ascii")


# exact 17-digit ties, V = |x| 10^(16 - D) ending in .5, where 10^(16 - D)
# is not a double (the strategy adds 1e15 + k/4, where it is)
_TIES = [q * 2.0**-24 for q in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]
# V within 1e-17 of a half-integer, found by lattice reduction
_NEAR_TIES = [
    float.fromhex(h)
    for h in (
        "0x1.3de005bd620dfp+216",
        "0x1.6061245105274p+171",
        "0x1.b848a3ee9807ep-123",
        "0x1.3e7e84afdabf8p-47",
    )
]
_EDGES = [2.0**53 - 2, 2.0**53 + 2, 5e-324, 1.7976931348623157e308, 0.0, float("nan"), float("inf")]
_G17_VALUES = st.tuples(
    st.one_of(
        st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
        st.tuples(st.integers(-323, 308), st.sampled_from((-np.inf, 0.0, np.inf))).map(
            lambda t: float(np.nextafter(float(f"1e{t[0]}"), t[1])) if t[1] else float(f"1e{t[0]}")
        ),
        st.integers(-400, 400).map(lambda k: 1e15 + k / 4),
        st.sampled_from(_TIES + _NEAR_TIES + _EDGES),
    ),
    st.booleans(),
).map(lambda t: -t[0] if t[1] else t[0])


class TestCsvBytes:
    COLUMNS = ("re_z", "im_z", "re_w", "im_w", "flagged")

    @given(
        values=st.lists(_G17_VALUES, min_size=1, max_size=40),
        size=st.sampled_from(("none", "one", "below cutoff", "at cutoff", "eval")),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_writer(self, tmp_path_factory, values, size, seed):
        # row counts on both sides of the cutoff, with a 0/1 flag column
        at = -(-cli._CSV_VECTOR_CELLS // len(self.COLUMNS))
        n = {"none": 0, "one": 1, "below cutoff": at - 1, "at cutoff": at, "eval": 4096}[size]
        flags = np.random.default_rng(seed).uniform(size=n) < 0.5
        rows = np.column_stack((np.resize(np.array(values), (n, 4)), flags))
        path = tmp_path_factory.getbasetemp() / "g17.csv"
        emit_grid_csv(rows, self.COLUMNS, path)
        assert path.read_bytes() == _per_row_csv(rows.tolist(), self.COLUMNS)

    @pytest.mark.parametrize("name", sorted(bundled_configs()))
    def test_commands_write_the_same_bytes_on_both_paths(self, name, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(bundled_configs()[name])
        runs = (["eval"], ["eval", "--nr", "32", "--ntheta", "128"], ["chain"], ["extend"])
        for command, *flags in runs:
            written = []
            for cutoff in (0, sys.maxsize):  # the g17_csv kernel, then `%`
                monkeypatch.setattr(cli, "_CSV_VECTOR_CELLS", cutoff)
                out = tmp_path / f"{cutoff}.csv"
                assert main([command, str(cfg), "--out", str(out), *flags]) == 0
                written.append(out.read_bytes())
            assert written[0] == written[1]

    @staticmethod
    def _grid(rng):
        rows = rng.normal(size=(4096, 5)) * 10.0 ** rng.integers(-300, 300, size=(4096, 5))
        rows[::7, 0] = -0.0
        rows[::11, 1] = 1e-300
        rows[::13, 2] = 0.0
        rows[:, 4] = rng.integers(0, 2, size=4096)
        return rows

    def test_array_matches_per_row_writer(self, rng, tmp_path):
        rows = self._grid(rng)
        path = tmp_path / "grid.csv"
        emit_grid_csv(rows, self.COLUMNS, path)
        assert path.read_bytes() == _per_row_csv(rows.tolist(), self.COLUMNS)

    def test_column_stack_with_flags(self, rng, tmp_path):
        # the commands stack float columns with a bool flag column
        z = rng.normal(size=64) + 1j * rng.normal(size=64)
        flagged = rng.uniform(size=64) < 0.5
        rows = np.column_stack((z.real, z.imag, -z.real, z.imag * 1e-300, flagged))
        path = tmp_path / "grid.csv"
        emit_grid_csv(rows, self.COLUMNS, path)
        assert path.read_bytes() == _per_row_csv(rows.tolist(), self.COLUMNS)

    def test_empty_array(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_grid_csv(np.zeros((0, 5)), self.COLUMNS, path)
        assert path.read_bytes() == b"re_z,im_z,re_w,im_w,flagged\n"

    def test_wrong_width_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_grid_csv(np.zeros((3, 4)), self.COLUMNS, tmp_path / "x.csv")


class TestSvg:
    @staticmethod
    def _grid_rows(fun, radii=(0.3, 0.6, 0.9), n_theta=16):
        rows = []
        for r in radii:
            for th in np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False):
                z = r * np.exp(1j * th)
                w = fun(z)
                rows.append((z.real, z.imag, w.real, w.imag))
        return rows

    def test_deterministic(self, tmp_path):
        rows = self._grid_rows(lambda z: z + z * z / 4)
        cols = ("re_z", "im_z", "re_w", "im_w")
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(rows, cols, p1)
        emit_svg(rows, cols, p2)
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert data.startswith(b"<svg ")
        assert data.count(b"<polyline") == 3 + 16  # circles + rays

    def test_ragged_grid_rejected(self, tmp_path):
        rows = self._grid_rows(lambda z: z)[:-1]
        with pytest.raises(ValueError, match="complete polar grid"):
            emit_svg(rows, ("re_z", "im_z", "re_w", "im_w"), tmp_path / "x.svg")

    def test_missing_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="re_z"):
            emit_svg([(1, 2)], ("a", "b"), tmp_path / "x.svg")


@pytest.fixture()
def write_config(tmp_path):
    def _write(doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return _write


REFERENCE_DOC = {
    "f": {"catalog": "quadratic", "params": {"c": 0.25}},
    "g": {"catalog": "quadratic", "params": {"c": 0.5}},
    "params": {"alpha": 0.5, "beta": 0.5, "gamma": 1.0},
    "grid": {"radii": [0.5, 0.9], "angles_per_radius": 64, "refine_steps": 5},
    "variant": "thm32",
}


# flag values the command line rejects with exit 64
BAD_FLAGS = [
    ["eval", "--z", "1.5"],
    ["oracle", "--rmax", "1.5"],
    ["eval", "--out", "{tmp}/x.csv", "--nr", "0"],
    ["oracle", "--nr", "0"],
    ["eval", "--out", "{tmp}/x.csv", "--ntheta", "-3"],
    ["oracle", "--rmax", "-0.5"],
    ["oracle", "--targets", "-1"],
    ["oracle", "--targets", "0"],
    ["oracle", "--seed", "-1"],
    ["chain", "--out", "{tmp}/x.csv", "--rmax", "1.0"],
    ["chain", "--out", "{tmp}/x.csv", "--tmax", "-1"],
    ["chain", "--out", "{tmp}/x.csv", "--tmax", "nan"],
    ["chain", "--out", "{tmp}/x.csv", "--tsteps", "0"],
    ["extend", "--out", "{tmp}/x.csv", "--nr", "0"],
    ["extend", "--out", "{tmp}/x.csv", "--rmin", "nan"],
    ["extend", "--out", "{tmp}/x.csv", "--rmax", "inf"],
    ["constants", "--k", "2"],
    ["constants", "--k", "0.5", "--a", "-1"],
    ["eval", "--z", "nan"],
    ["eval", "--z", "zebra"],
    ["check", "--out", ""],
    ["eval", "--out", ""],
    ["chain", "--out", ""],
    ["extend", "--out", ""],
    ["constants", "--k", "0.5", "--out", ""],
    ["plot", "--csv", "", "--out", "{tmp}/x.csv"],
]

# a size of 10^17 needs more bytes than a 48-bit address space holds, so
# the allocation fails at once
HUGE = 10**17


class TestEndToEnd:
    def test_check_pass_exit_zero(self, write_config, capsys):
        assert main(["check", write_config(REFERENCE_DOC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["sup"] < 1.0

    def test_check_fail_exit_two(self, write_config, capsys):
        cfg = {
            "f": {"catalog": "koebe", "params": {"degree": 512}},
            "grid": {"radii": [0.5, 0.9], "angles_per_radius": 64, "refine_steps": 5},
            "variant": "cor32",
        }
        assert main(["check", write_config(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_hypothesis_violation_exit_three(self, write_config, capsys):
        cfg = {
            "f": {"catalog": "identity"},
            "g": {"coefficients": [1, -2]},  # vanishes at z = 1/2
            "params": {"beta": 1.0},
            "variant": "thm31",
        }
        assert main(["check", write_config(cfg)]) == 3

    @pytest.mark.parametrize("variant", ["thm31", "thm32", "thm41"])
    def test_hypotheses_follow_the_bracket(self, write_config, capsys, variant):
        # g = z + 2z^2 vanishes at -1/2, a point of the default grid; z g'/g
        # enters the bracket only when beta != 0, and so does the hypothesis
        cfg = {"f": {"catalog": "quadratic", "params": {"c": 0.25}}, "params": {"alpha": 0.5, "k": 0.5}}
        cfg["variant"] = variant
        assert main(["check", write_config(cfg)]) == 0
        without_g = capsys.readouterr()
        cfg["g"] = {"coefficients": [1, 2]}
        assert main(["check", write_config(cfg)]) == 0
        assert capsys.readouterr() == without_g
        cfg["params"]["beta"] = 0.5
        assert main(["check", write_config(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hypothesis violation: g vanishes inside the scanned disk near z = (-0.5+6.123233995736766e-17j)\n"
        )

    def test_flag_error_exit_64(self, capsys):
        assert main(["constants"]) == 64  # --k is required
        assert main(["frobnicate"]) == 64

    def test_config_error_exit_64(self, write_config):
        assert main(["check", write_config({"params": {"gamma": 0}})]) == 64

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"radii": [0.5, 1.0]}, "radii must lie in (0, 1)"),
            ({"radii": [0.9, 0.5]}, "radii must be a nonempty increasing sequence"),
            ({"angles_per_radius": 4}, "angles_per_radius must be >= 8"),
            ({"refine_steps": 2.5}, "refine_steps must be an integer"),
        ],
    )
    def test_bad_grid_exit_64(self, write_config, capsys, grid, message):
        # DiskGrid's DomainError is a ValueError, which parsing turns into
        # a config error
        assert main(["check", write_config({"grid": grid})]) == 64
        assert capsys.readouterr().err == f"config error: grid: {message}\n"

    def test_domain_error_in_a_command_exit_70(self, write_config, capsys, monkeypatch):
        # raised inside a command, a DomainError stays a numerical failure,
        # though it is a ValueError too
        def refuse(*args, **kwargs):
            raise DomainError("max |z| = 2 > 1")

        monkeypatch.setattr(cli, "criterion_check", refuse)
        assert main(["check", write_config(REFERENCE_DOC)]) == 70
        assert capsys.readouterr() == ("", "numerical failure: max |z| = 2 > 1\n")

    def test_missing_file_exit_70(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 70

    def test_non_finite_sup_exit_70(self, write_config, capsys):
        # f' = 1 + 2e308 z overflows, so every criterion value is NaN
        cfg = {"f": {"coefficients": [1, 1e308]}, "variant": "cor32"}
        assert main(["check", write_config(cfg)]) == 70
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: cor32: the criterion is not finite")
        assert "nan" not in (out + err).lower()

    def test_eval_zero(self, write_config, capsys):
        assert main(["eval", write_config(REFERENCE_DOC), "--z", "0+0i"]) == 0
        assert capsys.readouterr().out.strip() == "0+0i"

    def test_eval_point(self, write_config, capsys):
        assert main(["eval", write_config(REFERENCE_DOC), "--z", "0+0.8i"]) == 0
        v = parse_complex(capsys.readouterr().out.strip())
        assert v == pytest.approx(-0.16 + 0.8j, rel=1e-10)

    def test_constants_json(self, capsys):
        assert main(["constants", "--k", "0.5", "--a", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["l"] == 0.5

    @pytest.mark.parametrize("a", ["1e200", "1e78", "1e-200"])
    def test_constants_extreme_a(self, capsys, a):
        # (1 - a^2)^2 raised a bare OverflowError for a past 1.16e77
        assert main(["constants", "--k", "0.5", "--a", a]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"] == float(a)
        assert all(isinstance(v, float) and np.isfinite(v) for v in doc.values())

    def test_eval_chain_extend_plot_files(self, write_config, tmp_path, capsys):
        cfg = write_config(REFERENCE_DOC)
        csv = tmp_path / "grid.csv"
        assert main(["eval", cfg, "--out", str(csv), "--nr", "3", "--ntheta", "8"]) == 0
        header, rows = read_grid_csv(csv)
        assert header == ["re_z", "im_z", "re_w", "im_w", "flagged"]
        assert len(rows) == 24
        assert {row[-1] for row in rows} == {0.0}

        svg = tmp_path / "grid.svg"
        assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
        assert svg.read_bytes().startswith(b"<svg ")

        chain_csv = tmp_path / "chain.csv"
        assert (
            main(
                ["chain", cfg, "--out", str(chain_csv), "--nr", "2", "--ntheta", "4", "--tsteps", "2"]
            )
            == 0
        )
        header, rows = read_grid_csv(chain_csv)
        assert header == ["re_z", "im_z", "t", "re_w", "im_w", "abs_w", "flagged"]
        assert len(rows) == 16
        assert {row[-1] for row in rows} == {0.0}

        ext_csv = tmp_path / "ext.csv"
        assert main(["extend", cfg, "--out", str(ext_csv), "--nr", "3", "--ntheta", "4"]) == 0
        header, rows = read_grid_csv(ext_csv)
        assert header == ["re_z", "im_z", "re_w", "im_w", "abs_mu", "flagged"]
        assert len(rows) == 12
        assert {row[-1] for row in rows} == {0.0}

    @pytest.mark.parametrize("argv", [["check", "{cfg}"], ["constants", "--k", "0.5", "--a", "2"]])
    def test_out_writes_exactly_stdout(self, write_config, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        argv = [a.replace("{cfg}", write_config(REFERENCE_DOC)) for a in argv]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="ascii") == capsys.readouterr().out

    def test_plot_of_chain_draws_the_first_time(self, write_config, tmp_path, capsys):
        chain_csv = tmp_path / "chain.csv"
        argv = ["chain", write_config(REFERENCE_DOC), "--out", str(chain_csv), "--nr", "2", "--ntheta", "4"]
        assert main(argv + ["--tsteps", "3"]) == 0
        header, rows = read_grid_csv(chain_csv)
        it = header.index("t")
        svgs = []
        for name, keep in (("all", rows), ("first", rows[:8]), ("last", rows[-8:])):
            assert {row[it] for row in keep} == ({0.0, 0.5, 1.0} if name == "all" else {keep[0][it]})
            csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
            emit_grid_csv(keep, header, csv)
            assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
            svgs.append(svg.read_bytes())
        assert svgs[0] == svgs[1] != svgs[2]

    def test_oracle_collision_exits_2(self, write_config, capsys):
        # z + z^3/0.81 takes the same value at 0.9 e^{i pi/4} and 0.9 e^{3i pi/4}
        cfg = write_config({"f": {"coefficients": [1, 0, 1 / 0.81]}, "params": {"alpha": 1.0}})
        assert main(["oracle", cfg, "--nr", "20", "--ntheta", "64", "--rmax", "0.9"]) == 2
        doc = json.loads(capsys.readouterr().out)
        pair = sorted((complex(*z) for z in doc["collision"]), key=lambda z: -z.real)
        assert np.allclose(pair, 0.9 * np.exp([0.25j * np.pi, 0.75j * np.pi]), rtol=0, atol=1e-15)
        assert doc["samples"] == 1280 and doc["flagged"] == 0

    def test_chain_flagged_column(self, write_config, tmp_path, capsys):
        # (f')^(1/2) with f' = (1 + 1.5 z)^2 leaves the principal branch
        # at the grid points 0.9 exp(+-7i pi/8), t = 0 (see test_chain_grid.py)
        cfg = write_config(
            {"f": {"coefficients": [1.0, 1.5, 0.75]}, "params": {"alpha": 0.5}}
        )
        out = tmp_path / "chain.csv"
        argv = ["chain", cfg, "--out", str(out), "--nr", "2", "--ntheta", "16", "--tsteps", "2"]
        assert main(argv) == 0
        assert "branch crossing" in capsys.readouterr().err
        header, rows = read_grid_csv(out)
        flags = {row[header.index("flagged")] for row in rows}
        assert flags == {0.0, 1.0}

    def test_extend_mu_on_every_outside_row(self, write_config, tmp_path, capsys):
        # mu reads only the branch-free bracket, so every row with |z| > 1
        # has it, flagged or not and however close to the circle
        doc = {"f": {"coefficients": [1, 1.5, 0.75]}, "params": {"alpha": 0.5}}
        out = tmp_path / "ext.csv"
        assert main(["extend", write_config(doc), "--out", str(out), "--rmin", "1.00001", "--rmax", "2"]) == 0
        assert "branch crossing" in capsys.readouterr().err
        _, rows = read_grid_csv(out)
        rows = np.array(rows)
        z = rows[:, 0] + 1j * rows[:, 1]
        outside = np.abs(z) > 1.0
        assert outside.all() and rows[:, 5].any() and (np.abs(z) <= 1.0 + 3e-5).any()
        spec = parse_config(json.dumps(doc))
        mu = np.abs(beltrami_grid(z, spec.params, spec.f, spec.g, spec.phi))
        assert rows[:, 4].tobytes() == mu.tobytes()

    def test_chain_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # e^{m a t gamma} overflows at t = 1000: exit 70 with no numpy warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(bundled_configs()["example31_thm41"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["chain", str(cfg), "--out", str(tmp_path / "x.csv"), "--tmax", "1000"]) == 70
        assert "numerical failure:" in capsys.readouterr().err

    def test_extend_default_flags(self, write_config, tmp_path):
        # the default ring has points whose z/|z| rounds to modulus
        # 1 + 2.2e-16; extend_grid and abs_mu must take them
        out = tmp_path / "ext.csv"
        assert main(["extend", write_config(REFERENCE_DOC), "--out", str(out)]) == 0
        header, rows = read_grid_csv(out)
        assert header == ["re_z", "im_z", "re_w", "im_w", "abs_mu", "flagged"]
        assert len(rows) == 128
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize(
        "text",
        [
            '{"params": {"m": NaN}}',
            '{"grid": {"radii": 5}}',
            '{"params": {"alpha": NaN}}',
            '{"f": {"coefficients": []}}',
            '{"grid": {"refine_steps": 2.5}}',
            '{"grid": {"refine_steps": -3}}',
            '{"grid": {"angles_per_radius": 8.5}}',
            '{"grid": {"angles_per_radius": true}}',
            '{"grid": {"radii": [0.5, NaN, 0.9]}}',
            '{"grid": {"radii": [0.5, "0.7", 0.9]}}',
            '{"grid": {"radii": [true, 0.5]}}',
            '{"f": {"catalog": "koebe", "params": {"degree": 2.5}}}',
            '{"f": {"catalog": "koebe", "params": {"degree": true}}}',
            '{"f": {"catalog": "koebe", "params": {"degree": "64"}}}',
            # 16 TiB of coefficients: numpy refuses the allocation at once
            '{"f": {"catalog": "koebe", "params": {"degree": 1000000000000}}}',
        ],
    )
    def test_bad_config_exits_64(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 64
        assert capsys.readouterr().err.startswith("config error:")

    def test_expscaled_degree_limit_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"f": {"catalog": "expscaled", "params": {"degree": 171}}}')
        assert main(["check", str(cfg)]) == 64
        assert capsys.readouterr().err == "config error: f: expscaled degree 171 > 170\n"

    def test_tiny_gamma_identity_is_exact(self, write_config, capsys):
        # the series path: B - 1 = 0 exactly, so F = z at any gamma
        cfg = write_config({"params": {"gamma": 1e-300}})
        assert main(["eval", cfg, "--z", "0.5"]) == 0
        assert capsys.readouterr().out == "0.5+0i\n"

    def test_underflowed_value_exits_70(self, write_config, capsys):
        # f = z + 1000 z^2: F -> z e^(2000 z) as gamma -> 0, which underflows
        # to 0 at z = -0.9
        cfg = write_config({"f": {"coefficients": [1, 1000]}, "params": {"gamma": 1e-300}})
        assert main(["eval", cfg, "--z", "-0.9"]) == 70
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err

    def test_underflowed_chain_exits_70(self, write_config, tmp_path, capsys):
        # the same problem through the chain, whose L(z, 0) is F(z); the exp
        # that overflows on the way raises no numpy warning besides that line
        cfg = write_config({"f": {"coefficients": [1, 1000]}, "params": {"gamma": 1e-300}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["chain", cfg, "--out", str(tmp_path / "chain.csv")]) == 70
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_eval_point_flagged(self, write_config, capsys):
        # (f')^(1/2) with f' = (1 + 1.5 z)^2: the ray to -0.9 runs through the
        # zero at -2/3, so the value is flagged and the shared warning printed
        cfg = write_config({"f": {"coefficients": [1.0, 1.5, 0.75]}, "params": {"alpha": 0.5}})
        assert main(["eval", cfg, "--z", "-0.9"]) == 0
        captured = capsys.readouterr()
        parse_complex(captured.out.strip())
        assert captured.err == (
            "warning: 1 of 1 points flagged for a branch crossing; their values are invalid\n"
        )

    def test_subnormal_coefficient(self, write_config, capsys):
        cfg = write_config({"f": {"coefficients": [1, 5e-324]}, "params": {"alpha": [0.5, 0]}})
        assert main(["eval", cfg, "--z", "0.5"]) == 0
        assert capsys.readouterr().out == "0.5+0i\n"

    def test_quad_section_rejected(self, write_config, capsys):
        assert main(["eval", write_config({"quad": {"max_panels": 8}}), "--z", "0.5"]) == 64
        assert "unknown keys ['quad']" in capsys.readouterr().err

    def test_oracle_refuses_a_flagged_curve(self, write_config, capsys):
        # the continued (f')^(1/2) = 1 + 1.5 u parts from the principal one on
        # the boundary curve, so the covering count would rest on invalid values
        cfg = write_config({"f": {"coefficients": [1.0, 1.5, 0.75]}, "params": {"alpha": 0.5}})
        assert main(["oracle", cfg, "--nr", "40", "--ntheta", "40"]) == 70
        captured = capsys.readouterr()
        assert captured.out == "" and "boundary curve points flagged" in captured.err

    def test_oracle_without_covering_targets_exits_70(self, capsys):
        # one ring at radius rmax leaves no sample inside rmax/2 to count
        assert main(["oracle", "--nr", "1", "--ntheta", "8"]) == 70
        captured = capsys.readouterr()
        assert captured.out == "" and "covering target" in captured.err

    def test_extend_flagged_column(self, write_config, tmp_path, capsys):
        # the continued (f')^(1/2) with f' = (1 + 1.5 z)^2 is 1 + 1.5 u and
        # the principal one parts from it where Re(1 + 1.5 u) < 0; on the
        # negative axis the ray runs through the zero, which is flagged too
        cfg = write_config({"f": {"coefficients": [1.0, 1.5, 0.75]}, "params": {"alpha": 0.5}})
        out = tmp_path / "ext.csv"
        argv = ["extend", cfg, "--out", str(out), "--rmax", "0.95", "--nr", "4", "--ntheta", "16"]
        assert main(argv) == 0
        assert "branch crossing" in capsys.readouterr().err
        header, rows = read_grid_csv(out)
        rows = np.array(rows)
        flagged = rows[:, header.index("flagged")]
        assert set(flagged.tolist()) == {0.0, 1.0}
        past_zero = rows[:, 0] < -2.0 / 3.0
        assert np.array_equal(flagged == 1.0, past_zero)

    def test_oracle_identity_clean(self, write_config, capsys):
        cfg = write_config(
            {"f": {"catalog": "identity"}, "params": {"alpha": 1.0, "beta": 1.0}}
        )
        assert main(["oracle", cfg, "--nr", "20", "--ntheta", "20", "--targets", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["collision"] is None
        assert doc["covered_once"] is True
        assert doc["samples"] == 400 and doc["flagged"] == 0

    @pytest.mark.parametrize("argv", BAD_FLAGS)
    def test_flag_value_out_of_range_exits_64(self, tmp_path, capsys, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("argument error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", BAD_FLAGS)
    def test_run_command_flag_value_out_of_range_raises(self, tmp_path, capsys, argv):
        # the same flags as texts through the API: the command line's check
        # and message, and no output
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        main(argv)
        expected = capsys.readouterr().err
        flags = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}
        with pytest.raises(ConfigError) as exc:
            run_command(argv[0], parse_config({}), flags)
        assert f"argument error: {exc.value}\n" == expected
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_run_command_unknown(self):
        spec = parse_config({})
        with pytest.raises(ConfigError):
            run_command("bogus", spec)

    def test_run_command_checks_parsed_values(self, tmp_path):
        spec = parse_config({})
        out = str(tmp_path / "x.csv")
        for command, flags, message in [
            ("eval", {"out": out, "nr": 0}, "argument --nr: 0: must be >= 1"),
            ("eval", {"out": out, "nr": 2.5}, "argument --nr: invalid value 2.5"),
            ("eval", {"out": out, "nr": True}, "argument --nr: invalid value True"),
            ("eval", {"z": 1.5j}, "argument --z: 1.5j: must lie in |z| < 1"),
            ("eval", {"out": out, "nrr": 4}, "eval: unknown flag --nrr"),
            ("constants", {"a": 2.0}, "constants: argument --k is required"),
        ]:
            with pytest.raises(ConfigError) as exc:
                run_command(command, spec, flags)
            assert str(exc.value) == message
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command,message",
        [
            ("chain", "chain: argument --out is required"),
            ("extend", "extend: argument --out is required"),
            ("plot", "plot: argument --csv is required"),
            ("eval", "eval needs --z or --out"),
        ],
    )
    def test_missing_output_flag_exits_64(self, capsys, command, message):
        assert main([command]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error:" if command == "eval" else "argument error:")
        with pytest.raises(ConfigError) as exc:
            run_command(command, parse_config({}), {})
        assert str(exc.value) == message

    def test_eval_takes_z_or_out_not_both(self, tmp_path, capsys):
        # with both, the value went to stdout and no file was written
        out = tmp_path / "ev.csv"
        assert main(["eval", "--z", "0.3", "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: eval takes --z or --out, not both\n"
        with pytest.raises(ConfigError) as exc:
            run_command("eval", parse_config({}), {"z": 0.3, "out": out})
        assert str(exc.value) == "eval takes --z or --out, not both"
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_run_command_takes_path_objects(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run_command("constants", parse_config({}), {"k": 0.5, "out": out}) == (0, [out])
        assert out.read_text(encoding="ascii") == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["check", "--out", "{tmp}/x.csv"], {"grid": {"angles_per_radius": HUGE}}),
            (["eval", "--out", "{tmp}/x.csv", "--nr", str(HUGE)], {}),
            (["chain", "--out", "{tmp}/x.csv", "--tsteps", str(HUGE)], {}),
        ],
    )
    def test_impossible_size_exits_64(self, write_config, tmp_path, capsys, argv, doc):
        # numpy's MemoryError becomes a config error naming the command
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main([argv[0], write_config(doc), *argv[1:]]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {argv[0]}: ") and captured.err.count("\n") == 1
        flags = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}
        with pytest.raises(ConfigError, match=f"^{argv[0]}: "):
            run_command(argv[0], parse_config(doc), flags)
        assert not (tmp_path / "x.csv").exists()

    def test_run_command_eval_z_text_or_number(self, capsys):
        spec = parse_config({})
        assert main(["eval", "--z", "0.5+0.2i"]) == 0
        expected = capsys.readouterr().out
        assert run_command("eval", spec, {"z": "0.5+0.2i"}) == (0, [])
        assert capsys.readouterr().out == expected
        assert run_command("eval", spec, {"z": 0.5 + 0.2j}) == (0, [])
        assert capsys.readouterr().out == expected
