"""Config parsing and file persistence: strictness and lossless round-trips."""

import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine2f.config import (
    ExperimentConfig,
    OutputConfig,
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
)
from affine2f.errors import ConfigError
from affine2f.estimators import functionals_from_path
from affine2f.experiments import ExperimentPlan
from affine2f.model import InitialLaw, make_spec
from affine2f.persist import (
    PATH_MAGIC,
    draws_text,
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

    def test_point_config_text_is_canonical(self):
        assert serialize_config(parse_config(BASE)) == """\
[model]
a = 1.2
b = 1
alpha = 0.5
beta = -0.29999999999999999
gamma = 0.80000000000000004
sigma1 = 0.59999999999999998
sigma2 = 0.40000000000000002
sigma3 = 0.25
rho = -0.34999999999999998
init_kind = point
init_y0 = 0.69999999999999996
init_x0 = -0.40000000000000002

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

    @pytest.mark.parametrize("kind,init", [
        ("point", "init_y0 = 0.7\ninit_x0 = -0.4\n"),
        ("point", ""),
        ("stationary-y", "init_x0 = -0.4\n"),
        ("stationary", "init_burn_in = 2.5\n"),
        ("stationary", ""),
    ])
    def test_text_carries_the_init_keys_of_the_kind(self, kind, init):
        text = _with("init_kind = point\ninit_y0 = 0.7\ninit_x0 = -0.4\n",
                     f"init_kind = {kind}\n{init}")
        cfg = parse_config(text)
        out = serialize_config(cfg)
        assert parse_config(out) == cfg
        written = [line.split(" = ")[0] for line in out.splitlines()
                   if line.startswith("init_")]
        # an unset y0 or x0 of a point start is written as its 0
        takes = {"point": ["init_y0", "init_x0"], "stationary-y": ["init_x0"],
                 "stationary": [line.split(" = ")[0] for line in init.splitlines()]}
        assert written == ["init_kind"] + takes[kind]

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
        text = text.replace("init_y0 = 0.7\ninit_x0 = -0.4\n",
                            "init_burn_in = 2.5\n")
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
        # a point start has no burn-in: refused, not ignored and written back
        (_with("init_y0 = 0.7",
               "init_y0 = 0.7\ninit_burn_in = 1"),
         "model: burn_in applies only to a stationary start, got kind 'point'"),
        (_with("init_kind = point\ninit_y0 = 0.7",
               "init_kind = stationary-y\ninit_burn_in = 1"),
         "model: burn_in applies only to a stationary start, "
         "got kind 'stationary-y'"),
        # nor does a stationary start read y0 or x0, or stationary-y y0
        (_with("init_kind = point\ninit_y0 = 0.7\ninit_x0 = -0.4",
               "init_kind = stationary\ninit_y0 = 0.7"),
         "model: y0 applies only to a point start, got kind 'stationary'"),
        (_with("init_kind = point\ninit_y0 = 0.7\ninit_x0 = -0.4",
               "init_kind = stationary\ninit_x0 = -0.4"),
         "model: x0 applies only to a point or stationary-y start, "
         "got kind 'stationary'"),
        (_with("init_kind = point", "init_kind = stationary-y"),
         "model: y0 applies only to a point start, got kind 'stationary-y'"),
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
        assert ExperimentConfig(1.0, 0.1, 1, 0).base_seed == 0
        assert ExperimentConfig(1.0, 0.1, 1, 2**64 - 1).base_seed == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ValueError):
                ExperimentConfig(1.0, 0.1, 1, bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")


def _sample_path() -> PathGrid:
    y = np.array([2.0, 1.0 / 3.0, 0.1, 5.4321e-15, 123456.789012345])
    x = np.array([-1.5, 0.0, 7.25e-9, -3.0 / 7.0, 2.0**-40])
    return PathGrid(0.0, 0.01, y, x, seed_record="RngStream(seed=1, stream=0)")


def _long_path() -> PathGrid:
    rng = np.random.default_rng(3)
    return PathGrid(0.0, 1e-3, rng.gamma(2.0, 0.5, 10_001), rng.standard_normal(10_001))


class TestRecordChecks:
    """A record checks its own fields, however it is built."""

    GOOD = dict(T=10.0, dt=0.01, replications=3, base_seed=11)

    @pytest.mark.parametrize("bad,field", [
        (dict(T=0.0), "T"),
        (dict(T=-1.0), "T"),
        (dict(dt=0.0), "dt"),
        (dict(dt=20.0), "dt"),
        (dict(replications=0), "replications"),
        (dict(replications=2.5), "replications"),
        (dict(replications=3.0), "replications"),
        (dict(base_seed=-1), "base_seed"),
        (dict(base_seed=1.5), "base_seed"),
        (dict(base_seed="11"), "base_seed"),
        (dict(base_seed=2**64), "base_seed"),
        (dict(scheme="milstein"), "scheme"),
    ])
    def test_experiment_refuses(self, bad, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**dict(self.GOOD, **bad))

    @pytest.mark.parametrize("bad,field", [
        (dict(T=math.inf), "T"),
        (dict(T=math.nan), "T"),
        (dict(dt=math.nan), "dt"),
        (dict(T=math.inf, dt=math.inf), "T"),
    ])
    def test_experiment_refuses_a_non_finite_horizon_or_step(self, bad, field):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ExperimentConfig(**dict(self.GOOD, **bad))

    def test_plan_refuses_an_infinite_horizon(self):
        # it would build, and run_experiment would then overflow
        spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            ExperimentPlan(spec=spec, T=math.inf, dt=0.1, replications=3, base_seed=1)

    def test_experiment_takes_numpy_integers(self):
        cfg = ExperimentConfig(**dict(self.GOOD, replications=np.int64(3),
                                      base_seed=np.uint64(2**64 - 1)))
        assert (cfg.replications, cfg.base_seed) == (3, 2**64 - 1)

    def test_plan_refuses_a_fractional_seed(self):
        # it would run seed 1's rows and report 1.5
        spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3)
        with pytest.raises(ValueError, match="base_seed must be an integer"):
            ExperimentPlan(spec=spec, T=1.0, dt=0.1, replications=3, base_seed=1.5)

    @pytest.mark.parametrize("bad,field", [
        (dict(directory=""), "directory"),
        (dict(formats=()), "formats"),
        (dict(formats=("yaml",)), "formats"),
        (dict(formats=("text", "csv", "text")), "formats"),
    ])
    def test_output_refuses(self, bad, field):
        with pytest.raises(ValueError, match=field):
            OutputConfig(**bad)

    def test_replace_is_checked(self):
        cfg = parse_config(BASE)
        with pytest.raises(ValueError, match="base_seed"):
            replace(cfg.experiment, base_seed=2**64)
        with pytest.raises(ValueError, match="directory"):
            replace(cfg.output, directory="")


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

    def test_unknown_format_rejected(self, tmp_path):
        f = tmp_path / "p.parquet"
        with pytest.raises(ConfigError, match="format"):
            write_path_grid(_sample_path(), f, "parquet")
        assert not f.exists()

    @pytest.mark.parametrize("fmt,sep", [("text", " "), ("csv", ",")])
    def test_written_text_of_edge_values(self, tmp_path, fmt, sep):
        path = PathGrid(0.0, 0.5, [0.0, -0.0, 5e-324, 1e-300, 1e300],
                        [1e300, 1e-300, 5e-324, -0.0, 0.0], seed_record="s")
        f = tmp_path / "p"
        write_path_grid(path, f, fmt)
        rows = ("0 1.0000000000000001e+300\n-0 1e-300\n"
                "4.9406564584124654e-324 4.9406564584124654e-324\n"
                "1e-300 -0\n1.0000000000000001e+300 0\n")
        head = f"{PATH_MAGIC}\n# t0 = 0\n# dt = 0.5\n# seed = s\n# columns: y{sep}x\n"
        assert f.read_bytes() == (head + rows.replace(" ", sep)).encode()

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

    # five header lines, so the first row is line 6
    HEAD = PATH_MAGIC + "\n# t0 = 0\n# dt = 0.5\n# seed = s\n# columns: y x\n"

    @pytest.mark.parametrize("body,crlf,message", [
        ("1 0\n# note\n2 0.5\n", False,
         "line 7: could not convert string to float: '#'"),
        ("1 0\n2 0.5 7\n", False, "line 7: expected two columns, got '2 0.5 7'"),
        ("1,0\n2,0.5,7\n", False, "line 7: expected two columns, got '2,0.5,7'"),
        ("1 0\n2 half\n", False, "line 7: could not convert string to float: 'half'"),
        ("1 0\n\n2 half\n", True, "line 8: could not convert string to float: 'half'"),
        ("1 0\n", False, "y and x must be equal-length 1-d arrays of size >= 2"),
        ("", False, "y and x must be equal-length 1-d arrays of size >= 2"),
        ("\n\n", False, "y and x must be equal-length 1-d arrays of size >= 2"),
        # \f and \x85 end no line: lines end only at \n, \r\n or \r
        ("1 0\n2 0.5\f\n3 half\n", False,
         "line 8: could not convert string to float: 'half'"),
        ("1 0\n2 0.5\x85\n3 half\n", False,
         "line 8: could not convert string to float: 'half'"),
        ("1 0\n\n2 nan\n", False, "line 8: value 'nan' is not finite"),
        ("1 0\n\n-inf 2\n", False, "line 8: value '-inf' is not finite"),
        ("1,0\n\n2,inf\n", True, "line 8: value 'inf' is not finite"),
        ("1 0\n-1 0.5\n", False, "negative Y value in path"),
    ])
    def test_read_refusals_name_their_line(self, tmp_path, body, crlf, message):
        text = self.HEAD + body
        f = tmp_path / "p.txt"
        f.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
        with pytest.raises(ConfigError) as exc:
            read_path_grid(f)
        assert str(exc.value) == f"{f}: {message}"

    @pytest.mark.parametrize("body,crlf", [
        ("1 0\n2 0.5\n3 1\n", True),
        ("1,0\n2,0.5\n3,1\n", True),
        ("\n1 0\n\n2 0.5\n   \n3 1\n\n", False),
        ("1,0\n\n2, 0.5\n  \n3 ,1\n", False),
        (" 1\t0 \n2 0.5\n3 1", False),
        # Python's float reads the underscore, numpy's parser does not
        ("1 0\n2 0.5\n3 1_0e-1\n", False),
    ])
    def test_read_accepts_what_it_always_read(self, tmp_path, body, crlf):
        text = self.HEAD + body
        f = tmp_path / "p.txt"
        f.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
        path = read_path_grid(f)
        assert path.y.tolist() == [1.0, 2.0, 3.0]
        assert path.x.tolist() == [0.0, 0.5, 1.0]
        assert (path.t0, path.dt, path.seed_record) == (0.0, 0.5, "s")

    def test_read_holds_no_copy_of_the_text(self, tmp_path):
        # a 10 001-row file is about 400 KB of text and 160 KB of values;
        # a list of its lines, or of its rows, costs several times that
        rng = np.random.default_rng(3)
        path = PathGrid(0.0, 1e-3, rng.gamma(2.0, 0.5, 10_001),
                        rng.standard_normal(10_001))
        f = tmp_path / "p.txt"
        write_path_grid(path, f)
        read_path_grid(f)  # first-call caches are not the reader's
        gc.collect()
        tracemalloc.start()
        try:
            back = read_path_grid(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.y, path.y) and np.array_equal(back.x, path.x)
        assert peak < 1 << 20, peak

    def test_read_columns_are_contiguous(self, tmp_path):
        f = tmp_path / "p.txt"
        write_path_grid(_sample_path(), f)
        back = read_path_grid(f)
        assert back.y.flags.c_contiguous and back.x.flags.c_contiguous

    def test_reducing_a_read_path_copies_no_column(self, tmp_path):
        # a strided y or x would be copied whole (160 KB for both)
        f = tmp_path / "p.txt"
        write_path_grid(_long_path(), f)
        path = read_path_grid(f)
        functionals_from_path(path)  # first-call caches are not the reduction's
        gc.collect()
        tracemalloc.start()
        try:
            functionals_from_path(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * (1 << 20), peak

    def test_write_holds_no_copy_of_the_text(self, tmp_path):
        # the 10 001-row file is about 400 KB; its joined text and the list
        # of its row strings would cost several times that
        path, f = _long_path(), tmp_path / "p.txt"
        write_path_grid(path, f)
        gc.collect()
        tracemalloc.start()
        try:
            write_path_grid(path, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_draws_table_shape(self):
        text = draws_text(np.arange(10.0).reshape(2, 5), "demo")
        lines = text.splitlines()
        assert lines[0] == "# demo"
        assert len(lines) == 4
        assert lines[2].split() == ["0", "1", "2", "3", "4"]
