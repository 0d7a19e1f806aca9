import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from pearceylab import cli, fredholm, pde_lab
from pearceylab._quad import QuadratureSpec
from pearceylab.cli import build_parser, csv_lines, dispatch
from pearceylab.ensemble_mc import sample_bridge_paths, sample_spectra
from pearceylab.kernels import pearcey_kernel_grid, pearcey_kernel_matrix
from pearceylab.pde_lab import pearcey_pde_residual, q_surface
from pearceylab.scaling import convergence_study
from pearceylab.spectral_curve import (TargetConfig, sweep_density, time_from_rescaled,
                                       track_merges)


def run(tmp_path, args, name="out.txt"):
    out = tmp_path / name
    code = dispatch(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestDispatch:
    def test_cusp_symmetric(self, tmp_path):
        code, text = run(tmp_path, ["cusp", "--a", "1", "--b", "-1", "--p", "0.5"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0].startswith("# pearceylab=")
        kv = dict(l.split("=", 1) for l in lines[1:])
        assert float(kv["t0"]) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert float(kv["x0"]) == 0.0

    def test_usage_error_exit_2(self):
        assert dispatch(["cusp", "--a", "1"]) == 2
        assert dispatch(["no-such-command"]) == 2
        assert dispatch(["density", "--targets=-1,1", "--fractions", "0.5,0.5",
                         "--t", "0", "--zmin", "-1", "--zmax", "1"]) == 2
        assert dispatch(["kernel", "--form", "pq", "--s", "0", "--t", "1",
                         "--xgrid=-1,1,3", "--ygrid=-1,1,3"]) == 2
        assert dispatch(["cusp", "--a", "1", "--b", "-1", "--p", "0.5", "--L", "8"]) == 2

    @pytest.mark.parametrize("args", [
        ["pde-residual", "--t0", "0", "--E=-1,1", "--h", "0"],
        ["pde-residual", "--t0", "0", "--E=-1,1", "--h", "nan"],
        ["pde-residual", "--t0", "0", "--E=-1,1", "--h", "-0.05"],
        ["pde-residual", "--t0", "0", "--E=-1,1", "--h", "inf"],
        ["pde-residual", "--t0", "0", "--E=-1,1", "--m", "4"],
        ["pde-residual", "--t0", "0", "--E=-1,1", "--m", "0"],
        ["gap", "--t", "0", "--E=-1,1", "--m", "4"],
        ["multigap", "--times=-1,1", "--sets=-1,1|-1,1", "--m", "7"],
        ["resolvent", "--t", "0", "--E=-1,1", "--m", "4"],
        ["lemma-checks", "--t", "0", "--E=-1,1", "--m", "4"],
        ["--threads", "0", "gap", "--t", "0", "--E=-1,1"],
        ["--threads", "-3", "pde-residual", "--t0", "0", "--E=-1,1"],
        ["--threads", "1.5", "gap", "--t", "0", "--E=-1,1"],
        ["track", "--targets=-1,1", "--fractions", "0.5,0.5", "--tmin", "0", "--tmax", "3"],
        ["track", "--targets=-1,1", "--fractions", "0.5,0.5", "--tmin", "3", "--tmax", "1"],
        ["track", "--targets=-1,1", "--fractions", "0.5,0.5", "--tmin", "1", "--tmax", "1"],
        ["track", "--targets=-1,1", "--fractions", "0.5,0.5", "--tmin", "0.2",
         "--tmax", "inf"],
        ["track", "--targets=-1,1", "--fractions", "0.5,0.5", "--tmin", "0.2",
         "--tmax", "3", "--steps", "40"],
        ["descent-check", "--q", "2", "--samples", "1"],
        ["descent-check", "--q", "2", "--samples", "7"],
        # the library's own input checks (ValueError) and the parsing in handlers
        ["gap", "--t", "0", "--E=-1"],
        ["gap", "--t", "0", "--E=a,b"],
        ["multigap", "--times=1,-1", "--sets=-1,1|-1,1"],
        ["density", "--targets=1,-1", "--fractions", "0.5,0.5", "--t", "0.2",
         "--zmin", "-1", "--zmax", "1"],
        ["pde-residual", "--t0", "0", "--E=-1,0,1,2"],
        ["sample-spectrum", "--n", "1", "--targets=-1,1", "--fractions", "0.5,0.5",
         "--t", "0.3"],
        ["sample-paths", "--n", "10", "--targets=-1,1", "--fractions", "0.5,0.5",
         "--steps", "5"],
        ["converge", "--a", "1", "--b=-1", "--p", "0.5", "--n", "8"],
        ["exponents", "--l", "0"],
        ["cusp", "--a", "1", "--b", "1", "--p", "0.5"],
        ["support", "--alpha", "1", "--beta", "2", "--p", "0.5"],
        ["track", "--targets=-1,1", "--fractions", "0.5,0.6", "--tmin", "0.2", "--tmax", "3"],
        ["wronskian", "--t", "0", "--x", "60"],
        ["kernel", "--s", "0", "--t", "0", "--xgrid=-3,3", "--ygrid=-3,3,3"],
        # resolution is fixed: no subcommand takes --L, --panels or --nodes
        ["gap", "--t", "0", "--E=-1,1", "--panels", "-8", "--nodes", "-8"],
        ["gap", "--t", "0", "--E=-1,1", "--L", "nan"],
        ["gap", "--t", "0", "--E=-1,1", "--panels", "8"],
        # non-finite tau, empty sample counts and empty grids
        ["scaling-solve", "--a", "1", "--b", "0", "--p", "0.5", "--tau", "nan"],
        ["scaling-solve", "--a", "1", "--b", "0", "--p", "0.5", "--tau", "inf"],
        ["sample-spectrum", "--n", "20", "--targets=-1,1", "--fractions", "0.5,0.5",
         "--t", "0.3", "--count", "-1"],
        ["sample-spectrum", "--n", "20", "--targets=-1,1", "--fractions", "0.5,0.5",
         "--t", "0.3", "--count", "0"],
        ["compare-density", "--n", "20", "--targets=-1,1", "--fractions", "0.5,0.5",
         "--t", "0.3", "--count", "0"],
        ["kernel", "--s", "0", "--t", "0", "--xgrid=-3,3,0", "--ygrid=-3,3,3"],
        ["kernel", "--s", "0", "--t", "0", "--xgrid=-3,3,3", "--ygrid=-3,3,-2"],
        ["density", "--targets=-1,1", "--fractions", "0.5,0.5", "--t", "0.2",
         "--zmin", "-1", "--zmax", "1", "--num", "0"],
        # non-finite inputs printed NaN or passed, and one set per time
        ["descent-check", "--q", "nan"],
        ["descent-check", "--q", "inf"],
        ["cusp", "--a", "inf", "--b", "0", "--p", "0.5"],
        ["scaling-solve", "--a", "inf", "--b", "0", "--p", "0.5"],
        ["density", "--targets=-1,inf", "--fractions", "0.5,0.5", "--t", "0.2",
         "--zmin", "-1", "--zmax", "1"],
        ["support", "--alpha", "inf", "--beta=0", "--p", "0.5"],
        ["multigap", "--times=0", "--sets=-1,1|-2,2"],
        ["multigap", "--times=-1,0,1", "--sets=-1,1"],
        ["kernel", "--s", "nan", "--t", "nan", "--xgrid=-1,1,3", "--ygrid=-1,1,3"],
        ["kernel", "--s", "0", "--t", "0", "--xgrid=-1,nan,3", "--ygrid=-1,1,3"],
        ["multigap", "--times=nan,1", "--sets=-1,1|-1,1"],
    ])
    def test_bad_step_order_or_threads_exit_2(self, args, capsys):
        assert dispatch(args) == 2
        assert capsys.readouterr().out == ""

    def test_sample_spectrum_thread_count_independent(self, tmp_path):
        line = ["sample-spectrum", "--n", "20", "--targets=-1,1", "--fractions", "0.5,0.5",
                "--t", "0.3", "--count", "4"]
        _, one = run(tmp_path, ["--threads", "1", *line], "one.txt")
        _, two = run(tmp_path, ["--threads", "2", *line], "two.txt")
        assert one.startswith("# pearceylab=") and one == two

    def test_parser_reused_without_leaks(self, tmp_path):
        # one parser serves every dispatch in a process; a seeded run and a
        # usage error before a run must leave no flag, seed or default behind
        assert build_parser() is build_parser()
        cusp = ["cusp", "--a", "1", "--b", "-1", "--p", "0.5"]
        _, first = run(tmp_path, cusp, "a.txt")
        code, spectrum = run(tmp_path, ["sample-spectrum", "--n", "4", "--targets=-1,1",
                                        "--fractions", "0.5,0.5", "--t", "0.2",
                                        "--seed", "5"], "b.txt")
        assert code == 0 and "seed=5" in spectrum.splitlines()[0]
        assert dispatch(["cusp", "--a", "1"]) == 2
        code, again = run(tmp_path, cusp, "c.txt")
        assert code == 0 and again == first
        assert "seed=none" in again.splitlines()[0]
        assert (vars(build_parser().parse_args(cusp))
                == vars(build_parser.__wrapped__().parse_args(cusp)))

    def test_numerical_error_exit_1(self, capsys):
        for args in (
                # double-contour kernel past its envelope: QuadratureError
                ["kernel", "--s", "0", "--t", "0", "--xgrid=18,20,3", "--ygrid=18,20,3"],
                # det(I - K_E) below 1e-12: ArithmeticError
                ["resolvent", "--t", "0", "--E=-12,12", "--m", "16"],
                # (alpha - beta)^2 underflows: ArithmeticError, not a traceback
                ["support", "--alpha", "1e-300", "--beta=0", "--p", "0.5"],
                # the identity's lhs is rounding at large t: QuadratureError
                ["lemma-checks", "--t", "8", "--E=-1,1"],
                ["lemma-checks", "--t", "10", "--E=-1,1"]):
            assert dispatch(args) == 1, args
            assert capsys.readouterr().out == ""

    def test_linalg_error_exit_1(self, monkeypatch, capsys):
        # LinAlgError is a ValueError, yet a numerical failure
        def singular(args):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setitem(cli._HANDLERS, "exponents", singular)
        assert dispatch(["exponents", "--l", "2"]) == 1
        assert capsys.readouterr().out == ""

    def test_manifest_determinism(self, tmp_path):
        _, t1 = run(tmp_path, ["exponents", "--l", "2"], "a.txt")
        _, t2 = run(tmp_path, ["exponents", "--l", "2"], "b.txt")
        assert t1 == t2

    def test_density_csv(self, tmp_path):
        code, text = run(tmp_path, ["density", "--targets=-1,1",
                                    "--fractions", "0.5,0.5", "--t", "0.2",
                                    "--zmin", "-3", "--zmax", "3", "--num", "11"])
        assert code == 0
        lines = text.splitlines()
        assert lines[1] == "z,re_g,im_g,density"
        assert len(lines) == 2 + 11

    def test_gap_interval_union_parsing(self, tmp_path):
        code, text = run(tmp_path, ["gap", "--t", "0", "--E=-1,-0.5;0.5,1", "--m", "16"])
        assert code == 0
        kv = dict(l.split("=", 1) for l in text.splitlines()[1:])
        assert 0.0 < float(kv["value"]) < 1.0

    def test_exponents_l1(self, tmp_path):
        code, text = run(tmp_path, ["exponents", "--l", "1"])
        assert code == 0
        assert "gamma_y=1/3" in text and "gamma_x=2/3" in text and "gamma_t=1/3" in text

    def test_support(self, tmp_path):
        code, text = run(tmp_path, ["support", "--alpha", "1", "--beta=-1", "--p", "0.5"])
        assert code == 0
        assert "interval0=" in text

    def test_descent_check(self, tmp_path):
        code, text = run(tmp_path, ["descent-check", "--q", "2", "--samples", "50"])
        assert code == 0
        assert "passed=True" in text

    def test_converge_taus(self, tmp_path):
        # each row is the largest error over the given times
        code, text = run(tmp_path, ["converge", "--a", "1", "--b=-1", "--p", "0.5",
                                    "--n", "64,256", "--taus", "0,0.5"])
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[2:4]]
        per_tau = [convergence_study(1.0, -1.0, 0.5, [64, 256], taus=(tau,))
                   for tau in (0.0, 0.5)]
        assert [int(n) for n, _ in rows] == [64, 256]
        for k, (_, err) in enumerate(rows):
            assert float(err) == max(st.rows[k].max_abs_error for st in per_tau)

    def test_wronskian(self, tmp_path):
        code, text = run(tmp_path, ["wronskian", "--t", "0", "--x", "0"])
        assert code == 0
        kv = dict(l.split("=", 1) for l in text.splitlines()[1:])
        assert abs(float(kv["value"])) > 1e-6

    def test_scaling_solve(self, tmp_path):
        code, text = run(tmp_path, ["scaling-solve", "--a", "1", "--b", "0",
                                    "--p", "0.111111111", "--tau", "1.0"])
        assert code == 0
        kv = dict(l.split("=", 1) for l in text.splitlines()[1:])
        assert float(kv["alpha_y"]) == pytest.approx(float(kv["expect_alpha_y"]), abs=1e-8)

    def test_sample_spectrum_seeded(self, tmp_path):
        args = ["sample-spectrum", "--n", "10", "--targets=-1,1",
                "--fractions", "0.5,0.5", "--t", "0.3", "--seed", "4",
                "--count", "2"]
        _, t1 = run(tmp_path, args, "s1.txt")
        _, t2 = run(tmp_path, args, "s2.txt")
        assert t1 == t2
        assert "seed=4" in t1.splitlines()[0]

    def test_kernel_pq_form(self, tmp_path, spec):
        # rows are pearcey_kernel_matrix's values to 17 digits, and the
        # double-contour form's within 1e-8
        grid = ["--s", "0.5", "--t", "0.5", "--xgrid=-2,2,5", "--ygrid=-1,1,3"]
        code, pq = run(tmp_path, ["kernel", "--form", "pq", *grid], "pq.txt")
        assert code == 0
        code, double = run(tmp_path, ["kernel", *grid], "double.txt")
        assert code == 0
        xs, ys = np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 3)
        K = pearcey_kernel_matrix(0.5, xs, ys, spec)
        rows = [[float(v) for v in line.split(",")] for line in pq.splitlines()[3:]]
        assert [row[:2] for row in rows] == [[x, y] for x in xs for y in ys]
        assert [row[2] for row in rows] == list(K.ravel())
        other = [float(line.split(",")[2]) for line in double.splitlines()[3:]]
        assert np.abs(np.array(other) - K.ravel()).max() < 1e-8

    def test_kernel_grid(self, tmp_path):
        code, text = run(tmp_path, ["kernel", "--s", "0", "--t", "0",
                                    "--xgrid=-1,1,3", "--ygrid=-1,1,3"])
        assert code == 0
        lines = text.splitlines()
        assert lines[1].startswith("# s=0 t=0")
        assert lines[2] == "x,y,value"
        assert len(lines) == 3 + 9


def _readme_cli_lines():
    """The `pearceylab ...` lines of README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("pearceylab ")]


def test_readme_lines(tmp_path, monkeypatch, capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 18
    monkeypatch.chdir(tmp_path)
    for line in lines:
        args = shlex.split(line)[1:]
        assert dispatch(["--threads", "1", *args]) == 0, line
        text = capsys.readouterr().out
        if "--out" in args:
            text = (tmp_path / args[args.index("--out") + 1]).read_text()
        assert text.startswith("# pearceylab="), line


SYM03 = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.3)
SYM_FLAGS = ["--targets=-1,1", "--fractions", "0.5,0.5"]


def _kernel_case(form, library):
    xs, ys = np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 3)
    K = library(xs, ys, QuadratureSpec())
    return (["kernel", "--form", form, "--s", "0.5", "--t", "0.5",
             "--xgrid=-2,2,5", "--ygrid=-1,1,3"],
            ["# s=0.5 t=0.5 L=6 panels=8 nodes=32"], "x,y,value",
            [(x, y, K[i, j]) for i, x in enumerate(xs) for j, y in enumerate(ys)], [])


def _pde_case():
    h = 0.05
    rep = pearcey_pde_residual(q_surface((-2 * h, 2 * h), 0.0, 1.0, h, h, m=16))
    return (["pde-residual", "--t0", "0", "--E=-1,1", "--h", "0.05", "--m", "16"], [],
            "t,y1,y2,residual", [(t, -1.0, 1.0, r) for t, r in zip(rep.t_values, rep.residuals)],
            [[("max_abs", rep.max_abs), ("h_t", h), ("h_y", h)]])


def _converge_case():
    study = convergence_study(1.0, -1.0, 0.5, [64, 256], taus=(0.0,))
    return (["converge", "--a", "1", "--b=-1", "--p", "0.5", "--n", "64,256"], [],
            "n,max_abs_error", [(r.n, r.max_abs_error) for r in study.rows],
            [[("fitted_slope", study.slope)]])


def _density_case():
    cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.2)
    samples = sweep_density(cfg, np.linspace(-3.0, 3.0, 11))
    return (["density", *SYM_FLAGS, "--t", "0.2", "--zmin", "-3", "--zmax", "3", "--num", "11"],
            [], "z,re_g,im_g,density",
            [(d.z, d.g.real, d.g.imag, d.density) for d in samples], [])


def _track_case():
    cfg = TargetConfig(targets=(-2.0, 0.0, 1.5), fractions=(0.3, 0.3, 0.4), time=0.5)
    events = track_merges(cfg, 0.05, 30.0)
    assert len(events) == 2
    return (["track", "--targets=-2,0,1.5", "--fractions", "0.3,0.3,0.4",
             "--tmin", "0.05", "--tmax", "30"], [], "T_c,z_c,t_c,left_index,right_index",
            [(e.T_c, e.z_c, time_from_rescaled(e.T_c), e.left_index, e.right_index)
             for e in events], [])


def _spectrum_case():
    samples = sample_spectra(6, SYM03, 3, 2)
    return (["sample-spectrum", "--n", "6", *SYM_FLAGS, "--t", "0.3", "--seed", "3",
             "--count", "2"], [], "sample_index,eigenvalue_index,value",
            [(si, ei, v) for si, s in enumerate(samples) for ei, v in enumerate(s.eigenvalues)],
            [])


def _paths_case():
    b = sample_bridge_paths(6, SYM03, 10, 3)
    return (["sample-paths", "--n", "6", *SYM_FLAGS, "--steps", "10", "--seed", "3"], [],
            "time,path_index,position",
            [(t, i, b.paths[i, j]) for j, t in enumerate(b.times) for i in range(6)], [])


@pytest.mark.parametrize("case", {
    "density": _density_case,
    "kernel-double": lambda: _kernel_case(
        "double", lambda xs, ys, spec: pearcey_kernel_grid(0.5, 0.5, xs, ys, spec)),
    "kernel-pq": lambda: _kernel_case(
        "pq", lambda xs, ys, spec: pearcey_kernel_matrix(0.5, xs, ys, spec)),
    "pde-residual": _pde_case,
    "converge": _converge_case,
    "sample-spectrum": _spectrum_case,
    "sample-paths": _paths_case,
    "track": _track_case,
}.items(), ids=lambda item: item[0])
def test_csv_output(tmp_path, case):
    # each CSV subcommand's table: the lines before its header, the header,
    # one row per library result whose every value parses back exactly
    # (integers as integers), and the trailing `# key=value` lines
    args, leading, header, rows, comments = case[1]()
    code, text = run(tmp_path, args)
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# pearceylab=")
    lines = lines[1:]
    assert lines[:len(leading)] == leading
    lines = lines[len(leading):]
    assert lines[0] == header
    body, tail = lines[1:1 + len(rows)], lines[1 + len(rows):]
    assert len(body) == len(rows) and len(tail) == len(comments)
    for line, row in zip(body, rows):
        fields = line.split(",")
        assert len(fields) == len(row) == len(header.split(","))
        assert [int(f) if isinstance(v, (int, np.integer)) else float(f)
                for f, v in zip(fields, row)] == list(row), line
    for line, pairs in zip(tail, comments):
        assert line.startswith("# ")
        kv = dict(item.split("=", 1) for item in line[2:].split(" "))
        assert list(kv) == [k for k, _ in pairs]
        assert [float(kv[k]) for k, _ in pairs] == [v for _, v in pairs]


def test_csv_lines():
    # floats at 17 significant digits, integers as they are, comments last
    assert csv_lines("a,b", [(0.1, 3), (np.float64(2.0), np.int64(-4))], "# k=1") == [
        "a,b", "0.10000000000000001,3", "2,-4", "# k=1"]
    assert csv_lines("a", iter(())) == ["a"]


def test_lemma_checks_relative_error_sees_the_sign(tmp_path, monkeypatch):
    # the identity holds as lhs = -rhs: sides of one sign are 2 apart
    monkeypatch.setattr(fredholm, "endpoint_identity_check", lambda t, E, m: (0.5, 0.5, 0.5))
    monkeypatch.setattr(pde_lab, "small_interval_checks", lambda t, x, hs, m: ([], 0.0, 0.0))
    code, text = run(tmp_path, ["lemma-checks", "--t", "0", "--E=-1,1"])
    assert code == 0
    kv = dict(line.split("=", 1) for line in text.splitlines()[1:] if "=" in line)
    assert kv["rel_err_magnitude"] == "2"
    monkeypatch.setattr(fredholm, "endpoint_identity_check", lambda t, E, m: (-0.5, 0.5, 0.5))
    code, text = run(tmp_path, ["lemma-checks", "--t", "0", "--E=-1,1"], "b.txt")
    kv = dict(line.split("=", 1) for line in text.splitlines()[1:] if "=" in line)
    assert kv["rel_err_magnitude"] == "0"
