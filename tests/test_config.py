"""Config parsing and file persistence: strictness and lossless round-trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine2f.config import (
    ExperimentConfig,
    OutputConfig,
    RunConfig,
    check_seed,
    load_config,
    parse_config,
    serialize_config,
)
from affine2f.errors import ConfigError
from affine2f.model import InitialLaw, make_spec
from affine2f.persist import (
    PATH_MAGIC,
    draws_text,
    path_grid_text,
    read_path_grid,
    write_path_grid,
)
from affine2f.simulate import PathGrid

BASE = """\
[model]
a = 1.2
b = 1.0
alpha = 0.5
beta = -0.3
gamma = 0.8
sigma1 = 0.6
sigma2 = 0.4
sigma3 = 0.25
rho = -0.35
init_kind = point
init_y0 = 0.7
init_x0 = -0.4

[experiment]
T = 10
dt = 0.01
replications = 3
base_seed = 11
scheme = full_euler

[output]
directory = out
formats = text,csv
"""


def _with(line_from: str, line_to: str) -> str:
    assert line_from in BASE
    return BASE.replace(line_from, line_to)


class TestParsing:
    def test_happy_path(self):
        cfg = parse_config(BASE)
        assert cfg.spec.a == 1.2 and cfg.spec.rho == -0.35
        assert cfg.spec.init.kind == "point" and cfg.spec.init.y0 == 0.7
        assert cfg.experiment == ExperimentConfig(10.0, 0.01, 3, 11,
                                                  "full_euler")
        assert cfg.output == OutputConfig("out", ("text", "csv"))

    def test_defaults_fill_in(self):
        text = BASE.split("[output]")[0]
        text = text.replace("scheme = full_euler\n", "")
        text = text.replace("init_kind = point\n", "")
        text = text.replace("init_y0 = 0.7\n", "")
        text = text.replace("init_x0 = -0.4\n", "")
        cfg = parse_config(text)
        assert cfg.experiment.scheme == "exact_y_euler_x"
        assert cfg.spec.init == InitialLaw()
        assert cfg.output == OutputConfig("runs", ("text",))

    def test_round_trip_is_identity(self):
        cfg = parse_config(BASE)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_materializes_defaults(self):
        minimal = BASE.split("[output]")[0]
        cfg = parse_config(minimal)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    @given(
        a=st.floats(min_value=0.0, max_value=1e6),
        b=st.floats(min_value=-1e3, max_value=1e3),
        beta=st.floats(min_value=-1e3, max_value=1e3),
        sigma1=st.floats(min_value=0.0, max_value=1e3),
        rho=st.floats(min_value=-1.0, max_value=1.0),
        y0=st.floats(min_value=0.0, max_value=1e3),
        x0=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_seventeen_digits_round_trip_any_double(self, a, b, beta,
                                                    sigma1, rho, y0, x0):
        spec = make_spec(a, b, 0.5, beta, 0.8, sigma1, 0.4, 0.25, rho,
                         init=InitialLaw("point", y0=y0, x0=x0))
        cfg = RunConfig(spec, ExperimentConfig(3.0, 0.5, 1, 0, "full_euler"),
                        OutputConfig("o", ("text",)))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_burn_in_survives_round_trip(self):
        text = _with("init_kind = point", "init_kind = stationary")
        text = text.replace("init_y0 = 0.7\n",
                            "init_y0 = 0.7\ninit_burn_in = 2.5\n")
        cfg = parse_config(text)
        assert cfg.spec.init.burn_in == 2.5
        assert parse_config(serialize_config(cfg)) == cfg


class TestRejection:
    @pytest.mark.parametrize("text,needle", [
        (_with("[output]", "[plotting]"), "unknown section"),
        (_with("rho = -0.35", "rho = -0.35\nsigma4 = 1"), "unknown key"),
        (_with("a = 1.2\n", ""), "missing"),
        (_with("T = 10\n", ""), "missing"),
        (_with("b = 1.0", "b = fast"), "could not parse"),
        (_with("rho = -0.35", "rho = 1.5"), "rho"),
        (_with("sigma2 = 0.4", "sigma2 = -0.4"), "sigma2"),
        (_with("a = 1.2", "a = -1"), "a must be"),
        (_with("dt = 0.01", "dt = 40"), "exceed"),
        (_with("T = 10", "T = 0"), "positive"),
        (_with("replications = 3", "replications = 0"), "at least 1"),
        (_with("replications = 3", "replications = 2.5"), "integer"),
        (_with("base_seed = 11", "base_seed = -4"), "seed"),
        (_with("base_seed = 11",
               "base_seed = 18446744073709551616"), "seed"),
        (_with("scheme = full_euler", "scheme = milstein"), "scheme"),
        (_with("formats = text,csv", "formats = yaml"), "formats"),
        (_with("formats = text,csv", "formats = text,text"), "duplicate"),
        (_with("directory = out", "directory ="), "empty"),
        (_with("init_kind = point", "init_kind = frozen"), "init"),
        (_with("init_y0 = 0.7",
               "init_y0 = 0.7\ninit_burn_in = -1"), "burn_in"),
        ("a = 1\n" + BASE, "malformed"),
        (_with("[model]", "[DEFAULT]\nx = 1\n\n[model]"), "DEFAULT"),
        (_with("b = 1.0", "b = 1.0\nb = 2.0"), "malformed"),
        # a non-finite number names its key, whatever its range check
        (_with("T = 10", "T = inf"), "experiment.T: 'inf' is not a finite"),
        (_with("dt = 0.01", "dt = nan"), "experiment.dt: 'nan' is not a finite"),
        (_with("b = 1.0", "b = nan"), "model.b: 'nan' is not a finite"),
        (_with("sigma2 = 0.4", "sigma2 = inf"), "model.sigma2: 'inf'"),
        (_with("gamma = 0.8", "gamma = -inf"), "model.gamma: '-inf'"),
        (_with("init_x0 = -0.4", "init_x0 = nan"), "model.init_x0: 'nan'"),
        (_with("init_y0 = 0.7",
               "init_y0 = 0.7\ninit_burn_in = inf"), "model.init_burn_in"),
    ])
    def test_bad_configs(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    def test_seed_bounds(self):
        assert check_seed(0) == 0
        assert check_seed(2**64 - 1) == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ConfigError):
                check_seed(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")


def _sample_path() -> PathGrid:
    y = np.array([2.0, 1.0 / 3.0, 0.1, 5.4321e-15, 123456.789012345])
    x = np.array([-1.5, 0.0, 7.25e-9, -3.0 / 7.0, 2.0**-40])
    return PathGrid(0.0, 0.01, y, x, seed_record="RngStream(seed=1, stream=0)")


class TestPathFiles:
    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("csv", "csv")])
    def test_round_trip_bitwise(self, tmp_path, fmt, ext):
        path = _sample_path()
        f = tmp_path / f"p.{ext}"
        write_path_grid(path, f, fmt)
        back = read_path_grid(f)
        np.testing.assert_array_equal(back.y, path.y)
        np.testing.assert_array_equal(back.x, path.x)
        assert back.t0 == path.t0 and back.dt == path.dt
        assert back.seed_record == path.seed_record

    def test_formats_carry_equal_data(self, tmp_path):
        path = _sample_path()
        write_path_grid(path, tmp_path / "a.txt", "text")
        write_path_grid(path, tmp_path / "a.csv", "csv")
        t, c = read_path_grid(tmp_path / "a.txt"), read_path_grid(tmp_path / "a.csv")
        np.testing.assert_array_equal(t.y, c.y)
        np.testing.assert_array_equal(t.x, c.x)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            path_grid_text(_sample_path(), "parquet")

    def test_read_rejects_bad_files(self, tmp_path):
        cases = {
            "magic.txt": "# not a path\n1 2\n",
            "nodt.txt": PATH_MAGIC + "\n# t0 = 0\n1 2\n",
            "cols.txt": PATH_MAGIC + "\n# t0 = 0\n# dt = 0.5\n1 2 3\n",
            "word.txt": PATH_MAGIC + "\n# t0 = 0\n# dt = 0.5\n1 two\n",
            "negy.txt": PATH_MAGIC + "\n# t0 = 0\n# dt = 0.5\n-1 0\n2 0\n",
        }
        for name, text in cases.items():
            f = tmp_path / name
            f.write_text(text)
            with pytest.raises(ConfigError):
                read_path_grid(f)
        with pytest.raises(ConfigError, match="cannot read"):
            read_path_grid(tmp_path / "absent.txt")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_read_rejects_non_finite_values(self, tmp_path, raw):
        # line 6: the blank line 5 still counts
        f = tmp_path / "p.txt"
        f.write_text(PATH_MAGIC + f"\n# t0 = 0\n# dt = 0.5\n1 0\n\n2 {raw}\n")
        with pytest.raises(ConfigError) as exc:
            read_path_grid(f)
        assert str(exc.value) == f"{f}: line 6: value {raw!r} is not finite"

    def test_draws_table_shape(self):
        text = draws_text(np.arange(10.0).reshape(2, 5), "demo")
        lines = text.splitlines()
        assert lines[0] == "# demo"
        assert len(lines) == 4
        assert lines[2].split() == ["0", "1", "2", "3", "4"]
