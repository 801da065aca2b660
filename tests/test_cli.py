"""Config parsing, serialization round-trips, file emission, exit codes."""

import json
import warnings

import numpy as np
import pytest

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
from univalence_lab.errors import ConfigError


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


class TestCsvBytes:
    COLUMNS = ("re_z", "im_z", "re_w", "im_w", "flagged")

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
]


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

    def test_flag_error_exit_64(self, capsys):
        assert main(["constants"]) == 64  # --k is required
        assert main(["frobnicate"]) == 64

    def test_config_error_exit_64(self, write_config):
        assert main(["check", write_config({"params": {"gamma": 0}})]) == 64

    def test_missing_file_exit_70(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 70

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
        ],
    )
    def test_bad_config_exits_64(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 64
        assert capsys.readouterr().err.startswith("config error:")

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

    def test_run_command_eval_z_text_or_number(self, capsys):
        spec = parse_config({})
        assert main(["eval", "--z", "0.5+0.2i"]) == 0
        expected = capsys.readouterr().out
        assert run_command("eval", spec, {"z": "0.5+0.2i"}) == (0, [])
        assert capsys.readouterr().out == expected
        assert run_command("eval", spec, {"z": 0.5 + 0.2j}) == (0, [])
        assert capsys.readouterr().out == expected
