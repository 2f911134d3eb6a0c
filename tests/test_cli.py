"""Command-line behavior: exit codes, output files, byte-level reruns."""

import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from affine2f import cli, moments
from affine2f.cli import main
from affine2f.config import load_config
from affine2f.limit_laws import limit_draws, supercritical_limit_sample
from affine2f.persist import read_path_grid, write_path_grid
from affine2f.rng import RngStream
from affine2f.simulate import PathGrid

CONFIG = """\
[model]
a = {a}
b = {b}
alpha = {alpha}
beta = {beta}
gamma = {gamma}
sigma1 = {sigma1}
sigma2 = {sigma2}
sigma3 = {sigma3}
rho = {rho}
init_kind = {init_kind}
init_y0 = {y0}
init_x0 = {x0}

[experiment]
T = {T}
dt = {dt}
replications = {replications}
base_seed = {base_seed}

[output]
directory = {directory}
formats = {formats}
"""

DEFAULTS = dict(a=1.0, b=1.0, alpha=0.5, beta=0.3, gamma=0.6,
                sigma1=0.5, sigma2=0.3, sigma3=0.4, rho=0.3,
                init_kind="point", y0=1.0, x0=0.2,
                T=4.0, dt=0.01, replications=2, base_seed=9,
                formats="text")


def write_config(tmp_path, name="run.ini", **kw):
    vals = dict(DEFAULTS, directory=str(tmp_path / "out"))
    vals.update(kw)
    p = tmp_path / name
    # a key set to None is left out
    p.write_text("".join(line for line in CONFIG.format(**vals).splitlines(True)
                         if not line.endswith(" = None\n")))
    return str(p)


def read_record(path):
    rec = {}
    for ln in path.read_text().splitlines():
        key, _, val = ln.partition(" = ")
        rec[key] = val
    return rec


def theta_of(rec, key="theta_hat"):
    return np.array([float(v) for v in rec[key].split()])


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# the library raises HypothesisError for each of these; the CLI only maps
# it to exit code 3
HYPOTHESIS_CASES = {
    "mc-verify": (["mc-verify"], dict(sigma1=0.0), "sigma1 > 0 required"),
    "limit-sample": (["limit-sample", "--draws", "5"],
                     dict(b=0.0, beta=0.2, gamma=1.0), "beta = 0 required"),
    "moments": (["moments", "stationary"], dict(b=0.0, beta=0.0, gamma=0.0),
                "stationary moments require a subcritical spec"),
    "critical-dt mc-verify": (["mc-verify"],
                              dict(b=0.0, beta=0.0, gamma=0.0, dt=0.5),
                              "critical limit dt=0.5"),
    "critical-dt limit-sample": (["limit-sample", "--draws", "5"],
                                 dict(b=0.0, beta=0.0, gamma=0.0, dt=0.5),
                                 "critical limit dt=0.5"),
    "simulate": (["simulate"],
                 dict(b=-0.5, gamma=-1.0, beta=0.0, init_kind="stationary-y",
                      y0=None),
                 "stationary Y law requires a subcritical spec"),
    # gamma*dt = 0.6 * 2.0: Euler X would flip sign at every step
    "gamma-dt simulate": (["simulate"], dict(T=2.0, dt=2.0), "gamma*dt = 1.2"),
}


@pytest.mark.parametrize("case", list(HYPOTHESIS_CASES))
def test_hypothesis_violation_exits_three(tmp_path, capsys, case):
    argv, model, cause = HYPOTHESIS_CASES[case]
    cfg = write_config(tmp_path, **model)
    assert main(argv + ["--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hypothesis violation:")
    assert cause in err
    # no refused command leaves an output directory behind
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "diffstats"])
def test_non_finite_path_file_is_config_error(tmp_path, capsys, command):
    f = tmp_path / "p.txt"
    f.write_text("# affine2f path v1\n# t0 = 0\n# dt = 0.5\n"
                 "1 0\n2 nan\n3 1\n")
    assert main([command, str(f), "--out", str(tmp_path)]) == 2
    assert "line 5: value 'nan' is not finite" in capsys.readouterr().err


# a non-finite number in a config is refused before anything is drawn or
# written, and the message names its section and key
NON_FINITE_CASES = {"T": ("inf", "experiment.T"), "b": ("nan", "model.b"),
                    "x0": ("nan", "model.init_x0"),
                    "sigma2": ("inf", "model.sigma2")}


@pytest.mark.parametrize("key", sorted(NON_FINITE_CASES))
def test_non_finite_config_value_is_config_error(tmp_path, capsys, key):
    raw, name = NON_FINITE_CASES[key]
    cfg = write_config(tmp_path, **{key: raw})
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: ")
    assert not (tmp_path / "out").exists()


# a start refuses a key that its kind does not read, and names it
@pytest.mark.parametrize("kind,unset,key", [
    ("stationary", "x0", "y0"),
    ("stationary", "y0", "x0"),
    ("stationary-y", "x0", "y0"),
])
def test_init_key_the_start_ignores_is_config_error(tmp_path, capsys,
                                                    kind, unset, key):
    cfg = write_config(tmp_path, init_kind=kind, **{unset: None})
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: model: {key} applies only to a ")
    assert not (tmp_path / "out").exists()


# an override passes the same record checks as the file's keys, and the
# message names the flag
@pytest.mark.parametrize("argv,flag,value,field", [
    *((argv, "--out", "", "directory") for argv in (
        ["simulate"], ["moments", "0.5"], ["mc-verify"], ["limit-sample"])),
    (["simulate"], "--seed", "-1", "base_seed"),
    (["limit-sample"], "--seed", str(2**64), "base_seed"),
    (["mc-verify"], "--seed", str(2**64), "base_seed"),
], ids=["simulate-out", "moments-out", "mc-verify-out", "limit-sample-out",
        "simulate-seed-negative", "limit-sample-seed-2^64",
        "mc-verify-seed-2^64"])
def test_bad_override_is_config_error(tmp_path, capsys, argv, flag, value,
                                      field):
    cfg = write_config(tmp_path)
    assert main(argv + ["--config", cfg, flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag}: {field} ")
    assert not (tmp_path / "out").exists()


# an output path that cannot be written is a config error that names it,
# not a traceback
@pytest.mark.parametrize("argv,where", [
    (["estimate", "{out}/path_000.txt", "--out", ""], ""),
    (["simulate", "--config", "{cfg}", "--out", "{cfg}"], "{cfg}"),
    (["limit-sample", "--config", "{cfg}", "--out", "{cfg}/x"], "{cfg}/x"),
], ids=["estimate-empty", "simulate-file", "limit-sample-below-file"])
def test_unwritable_output_is_config_error(tmp_path, capsys, argv, where):
    cfg = write_config(tmp_path, replications=1)
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()
    names = dict(cfg=cfg, out=tmp_path / "out")
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert repr(where.format(**names)) in err
    assert "Traceback" not in err


class TestSimulate:
    def test_writes_paths_and_sidecars(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert names == {"path_000.txt", "path_000.meta",
                         "path_001.txt", "path_001.meta"}

    def test_both_formats_agree(self, tmp_path):
        cfg = write_config(tmp_path, formats="text,csv", replications=1)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        txt = read_path_grid(out / "path_000.txt")
        csv = read_path_grid(out / "path_000.csv")
        np.testing.assert_array_equal(txt.y, csv.y)
        np.testing.assert_array_equal(txt.x, csv.x)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0, sigma2=0, sigma3=0, rho=0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg]) == 0
        first = snapshot(out)
        shutil.rmtree(out)
        assert main(["simulate", "--config", cfg]) == 0
        assert snapshot(out) == first

    def test_seed_override_changes_draws(self, tmp_path):
        cfg = write_config(tmp_path, replications=1)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg]) == 0
        base = (out / "path_000.txt").read_bytes()
        shutil.rmtree(out)
        assert main(["simulate", "--config", cfg, "--seed", "10"]) == 0
        assert (out / "path_000.txt").read_bytes() != base

    def test_domain_violation_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rho=1.5)
        assert main(["simulate", "--config", cfg]) == 2
        assert "rho" in capsys.readouterr().err

    def test_config_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestEstimate:
    def test_noise_free_path_recovers_drift(self, tmp_path):
        cfg = write_config(tmp_path, a=1.0, b=0.8, alpha=0.4, beta=0.2,
                           gamma=0.5, sigma1=0, sigma2=0, sigma3=0, rho=0,
                           y0=2.0, x0=1.5, T=10.0, dt=0.001, replications=1)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert main(["estimate", str(out / "path_000.txt"),
                     "--out", str(out)]) == 0
        rec = read_record(out / "estimate.txt")
        assert rec["source"] == "continuous"
        truth = np.array([1.0, 0.8, 0.4, 0.2, 0.5])
        assert np.abs(theta_of(rec) - truth).max() < 1e-3

    def test_approx_is_frequency_times_transformed(self, tmp_path):
        cfg = write_config(tmp_path, replications=1)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        pf = str(out / "path_000.txt")
        assert main(["estimate", pf, "--method", "discrete:5",
                     "--out", str(tmp_path / "d")]) == 0
        assert main(["estimate", pf, "--method", "approx:5",
                     "--out", str(tmp_path / "ap")]) == 0
        disc = read_record(tmp_path / "d" / "estimate.txt")
        appr = read_record(tmp_path / "ap" / "estimate.txt")
        assert disc["transformed"] == appr["transformed"]
        n = float(appr["sampling_frequency"])
        np.testing.assert_array_equal(theta_of(appr),
                                      n * theta_of(appr, "transformed"))

    def test_two_point_path_is_numerical_failure(self, tmp_path, capsys):
        f = tmp_path / "tiny.txt"
        write_path_grid(PathGrid(0.0, 0.5, [1.0, 1.1], [0.2, 0.25]), f)
        assert main(["estimate", str(f)]) == 4
        assert "3 grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["continuous", "discrete:1", "approx:1"])
    def test_singular_x_block_exits_four(self, tmp_path, capsys, method):
        # two X increments cannot pin down three coefficients
        f = tmp_path / "toy.txt"
        write_path_grid(PathGrid(0.0, 1.0, [1.0, 2.0, 4.0], [5.0, 7.0, 9.0]), f)
        assert main(["estimate", str(f), "--method", method,
                     "--out", str(tmp_path / "est")]) == 4
        assert "X-block Gram" in capsys.readouterr().err

    def test_flat_y_is_singular(self, tmp_path):
        f = tmp_path / "flat.txt"
        n = 50
        write_path_grid(PathGrid(0.0, 0.1, np.ones(n), np.zeros(n)), f)
        assert main(["estimate", str(f)]) == 4

    def test_supercritical_path_solves_both_blocks(self, tmp_path):
        # at T = 20 the raw X Gram condition is past 1e15: it measures
        # the e^(2|gamma|T) growth of the path, not singularity
        cfg = write_config(tmp_path, a=1.0, b=-0.5, alpha=0.2, beta=0.0,
                           gamma=-1.0, y0=1.0, x0=0.5, T=20.0,
                           replications=1)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert main(["estimate", str(out / "path_000.txt"), "--method",
                     "continuous", "--out", str(out)]) == 0
        rec = read_record(out / "estimate.txt")
        assert np.isfinite(theta_of(rec)).all()
        assert float(rec["cond_x_block"]) < 1e3

    def test_bad_method_is_config_error(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        write_path_grid(PathGrid(0.0, 0.5, [1.0, 1.1, 1.2], [0, 0.1, 0.2]), f)
        for method in ("newton", "discrete", "discrete:0", "approx:x"):
            assert main(["estimate", str(f), "--method", method]) == 2
        assert main(["estimate", str(tmp_path / "missing.txt")]) == 2


class TestMoments:
    def test_stationary_mean_is_level_over_rate(self, tmp_path):
        cfg = write_config(tmp_path, a=2.0, b=4.0, gamma=1.0)
        assert main(["moments", "stationary", "--config", cfg,
                     "--kmax", "1", "--lmax", "0"]) == 0
        table = self._read_table(tmp_path / "out" / "moments.txt")
        assert table[(1, 0)] == 0.5

    def test_time_zero_table_echoes_start(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["moments", "0", "--config", cfg,
                     "--kmax", "1", "--lmax", "1"]) == 0
        table = self._read_table(tmp_path / "out" / "moments.txt")
        assert table[(1, 0)] == 1.0
        assert table[(0, 1)] == pytest.approx(0.2, rel=1e-12)

    def test_bad_arguments(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["moments", "yesterday", "--config", cfg]) == 2
        assert main(["moments", "-1", "--config", cfg]) == 2
        assert main(["moments", "1", "--config", cfg, "--kmax", "-1"]) == 2

    @pytest.mark.parametrize("when", ["inf", "nan"])
    def test_non_finite_time_is_config_error(self, tmp_path, capsys, when):
        cfg = write_config(tmp_path)
        assert main(["moments", when, "--config", cfg]) == 2
        assert "moment time must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_time_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["moments", "1e308", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: t=1e+308 is too large")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, needle", [
        (["stationary", "--kmax", "100000", "--lmax", "0"],
         "the stationary table overflows double precision: "
         "its moment at (k, l) = (268, 0) is inf"),
        (["stationary", "--kmax", "300", "--lmax", "2"],
         "the stationary table overflows double precision: "
         "its moment at (k, l) = (268, 0) is inf"),
        (["1.0", "--kmax", "300", "--lmax", "0"],
         "the transient table overflows double precision: "
         "its moment at (k, l) = (292, 0) is inf"),
    ], ids=["stationary-long", "stationary-mixed", "transient"])
    def test_overflowing_table_is_numerical_failure(self, tmp_path, capsys,
                                                    argv, needle):
        cfg = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert main(["moments", *argv, "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {needle}")
        assert not (tmp_path / "out").exists()

    def test_oversized_lattice_is_numerical_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        # refused by its size alone: the 248154-row lattice is never built
        def build(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(moments, "_extended_lattice", build)
        cfg = write_config(tmp_path)
        assert main(["moments", "1.0", "--kmax", "3", "--lmax", "700",
                     "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: (k_max, l_max) = (3, 700) "
                              "needs a transient lattice of 248154 rows")
        assert not (tmp_path / "out").exists()

    def test_oversized_stationary_lattice_is_numerical_failure(
            self, tmp_path, capsys, monkeypatch):
        # refused by its size alone: the 13507501-row lattice is never built
        def build(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(moments, "_extended_lattice", build)
        cfg = write_config(tmp_path)
        assert main(["moments", "stationary", "--kmax", "3000", "--lmax",
                     "3000", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: (k_max, l_max) = (3000, 3000) "
                              "needs a stationary lattice of 13507501 rows")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _read_table(path):
        out = {}
        for ln in path.read_text().splitlines():
            if ln.startswith("#"):
                continue
            k, l, v = ln.split(",")
            out[(int(k), int(l))] = float(v)
        return out


class TestDiffstats:
    def test_reports_four_statistics(self, tmp_path):
        cfg = write_config(tmp_path, replications=1, T=8.0, dt=0.005)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert main(["diffstats", str(out / "path_000.txt"),
                     "--out", str(out)]) == 0
        rec = read_record(out / "diffstats.txt")
        for key in ("sigma1_sq", "sigma2_sq", "sigma3_sq", "rho"):
            assert key in rec
        # one short path: just a coarse sanity band around 0.5^2
        assert 0.1 < float(rec["sigma1_sq"]) < 0.5

    def test_short_path_fails_numerically(self, tmp_path):
        f = tmp_path / "tiny.txt"
        write_path_grid(PathGrid(0.0, 0.5, [1.0, 1.1], [0.2, 0.25]), f)
        assert main(["diffstats", str(f)]) == 4


class TestMcVerify:
    def test_subcritical_run_and_rerun(self, tmp_path):
        cfg = write_config(tmp_path, T=4.0, dt=0.01, replications=25)
        out = tmp_path / "out"
        assert main(["mc-verify", "--config", cfg,
                     "--reference-draws", "10"]) == 0
        text = (out / "mc_verify.txt").read_bytes()
        assert text.startswith(b"regime = subcritical")
        shutil.rmtree(out)
        assert main(["mc-verify", "--config", cfg,
                     "--reference-draws", "10"]) == 0
        assert (out / "mc_verify.txt").read_bytes() == text

    def test_reference_draw_count_checked(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["mc-verify", "--config", cfg,
                     "--reference-draws", "0"]) == 2

    def test_one_replication_refused_before_stepping(self, tmp_path, capsys,
                                                     monkeypatch):
        def stepped(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cli, "run_experiment", stepped)
        cfg = write_config(tmp_path, replications=1)
        assert main(["mc-verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: experiment.replications: mc-verify needs at least 2")
        assert not (tmp_path / "out").exists()


class TestLimitSample:
    def test_subcritical_draws(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["limit-sample", "--config", cfg, "--draws", "6"]) == 0
        text = (out / "limit_draws.txt").read_text()
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == 6
        assert "reference_redraws" not in text
        first = (out / "limit_draws.txt").read_bytes()
        shutil.rmtree(out)
        assert main(["limit-sample", "--config", cfg, "--draws", "6"]) == 0
        assert (out / "limit_draws.txt").read_bytes() == first

    def test_critical_draws(self, tmp_path):
        cfg = write_config(tmp_path, b=0.0, beta=0.0, gamma=0.0)
        assert main(["limit-sample", "--config", cfg, "--draws", "4"]) == 0
        rows = [ln for ln in
                (tmp_path / "out" / "limit_draws.txt").read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == 4

    def test_critical_header_states_redraws(self, tmp_path):
        # a level this low against sigma1 leaves exact Y absorbed at 0 on
        # most first draws, so their Y Grams are singular and redrawn
        cfg = write_config(tmp_path, a=1e-5, b=0.0, beta=0.0, gamma=0.0,
                           sigma1=1.0, dt=0.1)
        assert main(["limit-sample", "--config", cfg, "--draws", "20"]) == 0
        lines = (tmp_path / "out" / "limit_draws.txt").read_text().splitlines()
        _, redraws = limit_draws(load_config(cfg).spec, 20, 0.1,
                                 DEFAULTS["base_seed"], 0)
        assert redraws > 0
        assert lines[0] == f"# reference_redraws = {redraws}"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 20

    def test_supercritical_draws(self, tmp_path):
        cfg = write_config(tmp_path, b=-0.5, gamma=-1.0, beta=0.0, dt=0.05)
        assert main(["limit-sample", "--config", cfg, "--draws", "2"]) == 0
        rows = [ln for ln in
                (tmp_path / "out" / "limit_draws.txt").read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == 2
        # row j is the draw of stream j
        spec = load_config(cfg).spec
        for j, ln in enumerate(rows):
            _, draw = supercritical_limit_sample(spec, None, 0.05,
                                                 RngStream(DEFAULTS["base_seed"], j))
            np.testing.assert_array_equal([float(v) for v in ln.split()], draw)

    def test_draw_count_checked(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["limit-sample", "--config", cfg, "--draws", "0"]) == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, a=2.0, b=4.0, gamma=1.0)
        proc = subprocess.run(
            [sys.executable, "-m", "affine2f", "moments", "stationary",
             "--config", cfg, "--kmax", "1", "--lmax", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "1,0,0.5" in proc.stdout

    def test_every_command_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: one interpreter runs every
        # command, each estimator and both scorecards, then lists any
        # scipy module that got loaded on the way
        sub = write_config(tmp_path, "sub.ini", directory=tmp_path / "sub",
                           T=2.0, replications=6)
        crit = write_config(tmp_path, "crit.ini", directory=tmp_path / "crit",
                            b=0.0, beta=0.0, gamma=0.0, replications=6)
        sup = write_config(tmp_path, "sup.ini", directory=tmp_path / "sup",
                           b=-0.5, gamma=-1.0, beta=0.0, dt=0.05)
        path = str(tmp_path / "sub" / "path_000.txt")
        commands = [
            ["simulate", "--config", sub],
            *(["estimate", path, "--method", m, "--out", str(tmp_path / m[:4])]
              for m in ("continuous", "discrete:5", "approx:5")),
            ["diffstats", path, "--out", str(tmp_path / "diff")],
            ["moments", "0.5", "--config", sub],
            ["moments", "stationary", "--config", sub],
            *(["limit-sample", "--config", cfg, "--draws", "2"]
              for cfg in (sub, crit, sup)),
            ["mc-verify", "--config", sub, "--reference-draws", "4"],
            ["mc-verify", "--config", crit, "--reference-draws", "4"],
        ]
        code = (
            "import sys\n"
            "from affine2f.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["estimate", "F", "--seed", "1"],
        ["diffstats", "F", "--config", "C"],
        ["moments", "0.5", "--config", "C", "--seed", "1"],
    ])
    def test_flag_the_command_does_not_read_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
