"""Tests for the experiment harness: subcommands, config, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from modsurf import arithmetic, cli
from modsurf.arithmetic import DiscreteMeasure, haar_discretization, save_measure
from modsurf.cli import load_config, main

DATA = Path(__file__).resolve().parent / "data"


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        cfg.validate()
        assert cfg.T == 1.0

    def test_parse_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[experiment]\nbandwidth = 2.0 5.0\ndiscriminants = -7 -11\nseed = 3\n"
            "[haar]\nn_x = 20\nn_levels = 15\ny_max = 25\n"
            "[geodesic]\nsamples_per_unit_length = 100\n"
            "[tolerances]\nweyl = 5e-4\n"
        )
        cfg = load_config(str(p))
        assert cfg.bandwidths == (2.0, 5.0)
        assert cfg.discriminants == (-7, -11)
        assert cfg.seed == 3
        assert cfg.n_x == 20 and cfg.y_max == 25.0
        assert cfg.samples_per_unit_length == 100
        assert cfg.tol_weyl == 5e-4

    def test_every_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[experiment]\nbandwidth = 1.5\ndiscriminants = 5 -7\nt_values = 0.25 3\n"
            "eps_list = 0.1\nseed = 4\nmaass_data = m.txt\n"
            "[haar]\nn_x = 11\nn_levels = 12\ny_max = 13.5\n"
            "[geodesic]\nsamples_per_unit_length = 14\n"
            "[tolerances]\nkint = 1e-1\nforward = 2e-1\nroute = 3e-1\n"
            "kernel_mass = 4e-1\nweyl = 5e-1\nweyl_positive = 6e-1\nclass_number = 7e-1\n"
        )
        cfg = load_config(str(p))
        assert (cfg.bandwidths, cfg.discriminants, cfg.t_values, cfg.eps_list) == (
            (1.5,), (5, -7), (0.25, 3.0), (0.1,))
        assert (cfg.seed, cfg.maass_data) == (4, "m.txt")
        assert (cfg.n_x, cfg.n_levels, cfg.y_max, cfg.samples_per_unit_length) == (
            11, 12, 13.5, 14)
        assert (cfg.tol_kint, cfg.tol_forward, cfg.tol_route, cfg.tol_kernel_mass,
                cfg.tol_weyl, cfg.tol_weyl_positive, cfg.tol_class_number) == (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        assert type(cfg.seed) is int and type(cfg.y_max) is float

    @pytest.mark.parametrize("text", ["seed = 3\n", "[experiment]\nseed\n",
                                      "[haar]\nn_x = 1.5\n"])
    def test_malformed_exit_two(self, text, tmp_path, monkeypatch, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        assert run(["heegner", "--config", str(p)], tmp_path, monkeypatch) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed config")

    def test_bad_bandwidth_exit_two(self, tmp_path, monkeypatch):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nbandwidth = 0.5\n")
        assert run(["transform-check", "--config", str(p)], tmp_path, monkeypatch) == 2

    def test_bad_discriminant_exit_two(self, tmp_path, monkeypatch):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\ndiscriminants = 9\n")
        assert run(["weyl-compare", "--config", str(p)], tmp_path, monkeypatch) == 2

    def test_missing_config_exit_two(self, tmp_path, monkeypatch):
        assert run(["transform-check", "--config", "nope.ini"], tmp_path, monkeypatch) == 2


class TestTransformCheck:
    def test_default_passes(self, tmp_path, monkeypatch):
        out = tmp_path / "t.csv"
        code = run(["transform-check", "--out", str(out)], tmp_path, monkeypatch)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,check,value,pass"
        assert all(line.endswith("True") for line in lines[1:])

    def test_default_golden_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "t.csv"
        assert run(["transform-check", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "transform_check_default.csv").read_bytes()

    def test_three_bandwidths_golden_csv(self, tmp_path, monkeypatch):
        # consecutive bandwidths add the t_moment_nonincreasing rows
        (tmp_path / "c.ini").write_text("[experiment]\nbandwidth = 1.0 2.0 5.0\n")
        out = tmp_path / "t.csv"
        assert run(["transform-check", "--config", "c.ini", "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "transform_check_bandwidths.csv").read_bytes()


class TestClassNumber:
    def test_full_range(self, tmp_path, monkeypatch):
        out = tmp_path / "cn.csv"
        code = run(["class-number", "--out", str(out)], tmp_path, monkeypatch)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 63  # header + 62 fundamental discriminants in [-200, -3]

    def test_default_golden_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "cn.csv"
        assert run(["class-number", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "class_number_default.csv").read_bytes()

    def test_fixed_range_ignores_config_discriminants(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -7 -8\n")
        out = tmp_path / "cn.csv"
        assert run(["class-number", "--config", str(cfgp), "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "class_number_default.csv").read_bytes()

    def test_bitwise_reproducible(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["class-number", "--out", str(out1)], tmp_path, monkeypatch) == 0
        assert run(["class-number", "--out", str(out2)], tmp_path, monkeypatch) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestWeylCompare:
    def test_default_grid(self, tmp_path, monkeypatch):
        out = tmp_path / "w.csv"
        code = run(["weyl-compare", "--out", str(out)], tmp_path, monkeypatch)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 7 * 3  # default 7 discriminants x 3 t-values

    def test_default_golden_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "w.csv"
        assert run(["weyl-compare", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "weyl_compare_default.csv").read_bytes()

    def test_signs_and_exempt_golden(self, tmp_path, monkeypatch, capsys):
        # the D > 0 tolerance, the exempt rows and spread lines of D = -3, -4,
        # and a negative t
        (tmp_path / "c.ini").write_text("[experiment]\ndiscriminants = 5 8 -7 -4 -3\n"
                                        "t_values = 0.5 -1.5 3.0\n")
        out = tmp_path / "w.csv"
        assert run(["weyl-compare", "--config", "c.ini", "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        golden = DATA / "weyl_compare_exempt_negative_t"
        assert out.read_bytes() == golden.with_suffix(".csv").read_bytes()
        # the status lines go to stderr
        assert capsys.readouterr().err == golden.with_suffix(".stdout").read_text()

    def test_json_mirror(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -7\n")
        out = tmp_path / "w.json"
        code = run(["weyl-compare", "--config", str(cfgp), "--json", "--out", str(out)],
                   tmp_path, monkeypatch)
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert abs(rows[0]["ratio"] - 1.0) < 1e-3

    def test_json_on_stdout_parses(self, tmp_path, monkeypatch, capsys):
        # without --out, stdout holds the rows alone and the status lines go to stderr
        (tmp_path / "c.ini").write_text("[experiment]\ndiscriminants = -7\n")
        assert run(["weyl-compare", "--config", "c.ini", "--json"], tmp_path, monkeypatch) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)) == 3
        assert captured.err.startswith("[PASS] D=-7: ")


class TestMeasureCommands:
    def test_heegner_files(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -4 -23\n")
        code = run(["heegner", "--config", str(cfgp)], tmp_path, monkeypatch)
        assert code == 0
        from modsurf.arithmetic import load_measure

        m = load_measure(str(tmp_path / "heegner_23.txt"))
        assert len(m) == 3

    def test_geodesics_and_wasserstein(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = 5\n[geodesic]\n"
                        "samples_per_unit_length = 50\n")
        assert run(["geodesics", "--config", str(cfgp)], tmp_path, monkeypatch) == 0
        cfg2 = tmp_path / "c2.ini"
        cfg2.write_text("[experiment]\ndiscriminants = -4\n")
        assert run(["heegner", "--config", str(cfg2)], tmp_path, monkeypatch) == 0
        out = tmp_path / "w.csv"
        plan = tmp_path / "plan.txt"
        code = run(["wasserstein", str(tmp_path / "geodesic_5.txt"),
                    str(tmp_path / "heegner_4.txt"), "--out", str(out),
                    "--plan-out", str(plan)], tmp_path, monkeypatch)
        assert code == 0
        assert plan.exists()
        header = out.read_text().splitlines()
        assert header[0] == "file1,file2,W1"
        value = float(header[1].rsplit(",", 1)[1])
        assert 0.0 < value < 3.0

    def test_geodesics_enumerate_cycles_once(self, tmp_path, monkeypatch):
        # closed_geodesics and geodesic_measure share one enumeration per D
        arithmetic._form_cycles.cache_clear()
        (tmp_path / "c.ini").write_text("[experiment]\ndiscriminants = 5 13 105\n")
        assert run(["geodesics", "--config", "c.ini"], tmp_path, monkeypatch) == 0
        info = arithmetic._form_cycles.cache_info()
        assert (info.misses, info.hits) == (3, 3)

    def test_geodesics_near_the_discriminant_envelope(self, tmp_path, monkeypatch):
        # the fundamental unit of D = 999961 has integers far past the float
        # range; the length comes from them without a conversion to float
        (tmp_path / "c.ini").write_text("[experiment]\ndiscriminants = 999961\n"
                                        "[geodesic]\nsamples_per_unit_length = 1\n")
        out = tmp_path / "g.csv"
        assert run(["geodesics", "--config", "c.ini", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_text().splitlines()[1] == "999961,3,2977.4580315525845,8934,geodesic_999961.txt"

    def test_heegner_default_golden_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "h.csv"
        assert run(["heegner", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "heegner_default.csv").read_bytes()
        # the measure files carry the reduced coordinates of every atom
        for name in (f"heegner_{D}.txt" for D in (7, 8, 11, 15, 20, 23, 24)):
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

    def test_geodesics_and_wasserstein_golden_csv(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = 5 13\n")
        out = tmp_path / "g.csv"
        assert run(["geodesics", "--config", str(cfgp), "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "geodesics_5_13.csv").read_bytes()
        for name in ("geodesic_5.txt", "geodesic_13.txt"):
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
        # D = 105: four narrow classes with cycles of 4 and 6 forms, so the
        # samples of each class fall on several arcs
        (tmp_path / "c3.ini").write_text("[experiment]\ndiscriminants = 105\n"
                                         "[geodesic]\nsamples_per_unit_length = 20\n")
        assert run(["geodesics", "--config", "c3.ini"], tmp_path, monkeypatch) == 0
        name = "geodesic_105.txt"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
        cfg2 = tmp_path / "c2.ini"
        cfg2.write_text("[experiment]\ndiscriminants = -23\n")
        assert run(["heegner", "--config", str(cfg2)], tmp_path, monkeypatch) == 0
        out = tmp_path / "w.csv"
        assert run(["wasserstein", "geodesic_5.txt", "heegner_23.txt", "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "wasserstein_geodesic5_heegner23.csv").read_bytes()

    def test_wasserstein_geodesic5_geodesic13_golden_csv(self, tmp_path, monkeypatch):
        # 385 x 956 atoms, so the simplex prices many blocks of rows per cycle
        for name in ("geodesic_5.txt", "geodesic_13.txt"):
            (tmp_path / name).write_bytes((DATA / name).read_bytes())
        out = tmp_path / "w.csv"
        assert run(["wasserstein", "geodesic_5.txt", "geodesic_13.txt", "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "wasserstein_geodesic5_geodesic13.csv").read_bytes()


class TestKernelMass:
    def test_default_golden_csv(self, tmp_path, monkeypatch):
        # pins the mass and error_bound columns of kernel_mass_on_surface
        out = tmp_path / "k.csv"
        assert run(["kernel-mass", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "kernel_mass_default.csv").read_bytes()


class TestMollifyCheck:
    def test_default_golden_csv(self, tmp_path, monkeypatch):
        # pins surface_distance_to_point, which clipped_distance evaluates
        out = tmp_path / "m.csv"
        assert run(["mollify-check", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "mollify_check_seed0.csv").read_bytes()

    def test_one_quadrature_per_point_and_eps(self, tmp_path, monkeypatch):
        # value and gradient come from one quadrature: 50 points x 2 default eps
        calls = []
        quadrature = cli.transform.smooth_with_gradient
        monkeypatch.setattr(cli.transform, "smooth_with_gradient",
                            lambda *a: calls.append(a) or quadrature(*a))
        monkeypatch.setattr(cli.transform, "smooth", lambda *a: pytest.fail("smooth called"))
        assert run(["mollify-check"], tmp_path, monkeypatch) == 0
        assert len(calls) == 100


class TestDuke:
    def test_two_discriminants(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -4 -8\nbandwidth = 1.0\n"
                        "[haar]\nn_x = 16\nn_levels = 12\ny_max = 10\n")
        out = tmp_path / "d.csv"
        code = run(["duke", "--config", str(cfgp), "--out", str(out)],
                   tmp_path, monkeypatch)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("D,W1_estimate,dual_lower_bound")
        assert lines[-1].startswith("slope,")

    def test_two_discriminants_golden_csv(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -4 -8\nbandwidth = 1.0\n"
                        "[haar]\nn_x = 16\nn_levels = 12\ny_max = 10\n")
        out = tmp_path / "d.csv"
        assert run(["duke", "--config", str(cfgp), "--out", str(out)],
                   tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "duke_two_discriminants.csv").read_bytes()

    def test_default_golden(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "d.csv"
        assert run(["duke", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert out.read_bytes() == (DATA / "duke_default.csv").read_bytes()
        # the status lines go to stderr
        assert capsys.readouterr().err == (DATA / "duke_default.stdout").read_text()

    def test_weyl_exact_rel_on_the_row_scale(self, tmp_path, monkeypatch):
        # D = -24 has a near-zero of the exact value at t = 13.76; on the scale
        # of the row's largest exact value the gap there is rounding
        out = tmp_path / "d.json"
        assert run(["duke", "--json", "--out", str(out)], tmp_path, monkeypatch) == 0
        rows = {row["D"]: row for row in json.loads(out.read_text())}
        assert rows[-24]["weyl_exact_rel"] < 1e-10

    def test_json_nan_slope_is_null(self, tmp_path, monkeypatch):
        # one discriminant fits no slope; JSON has no NaN, so the slope is null
        (tmp_path / "c.ini").write_text("[experiment]\ndiscriminants = -7\n"
                                        "[haar]\nn_x = 12\nn_levels = 10\ny_max = 10\n")
        out = tmp_path / "d.json"
        assert run(["duke", "--config", "c.ini", "--json", "--out", str(out)],
                   tmp_path, monkeypatch) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(out.read_text(), parse_constant=refuse)
        assert rows[-1]["D"] == "slope" and rows[-1]["W1_estimate"] is None
        assert run(["duke", "--config", "c.ini", "--out", "d.csv"], tmp_path, monkeypatch) == 0
        assert (tmp_path / "d.csv").read_text().splitlines()[-1].startswith("slope,nan,")

    def test_mixed_geodesic_golden(self, tmp_path, monkeypatch, capsys):
        # measures of different lowest atoms and Fourier lengths, one of them
        # a geodesic measure; T = 2 keeps t <= 15
        (tmp_path / "c.ini").write_text(
            "[experiment]\ndiscriminants = 5 -3 -4 -23\nbandwidth = 2.0\n"
            "[haar]\nn_x = 12\nn_levels = 10\ny_max = 10\n"
            "[geodesic]\nsamples_per_unit_length = 50\n")
        out = tmp_path / "d.csv"
        assert run(["duke", "--config", "c.ini", "--out", str(out)], tmp_path, monkeypatch) == 0
        golden = DATA / "duke_mixed_geodesic"
        assert out.read_bytes() == golden.with_suffix(".csv").read_bytes()
        # the status lines go to stderr
        assert capsys.readouterr().err == golden.with_suffix(".stdout").read_text()

    def test_missing_maass_data_exit_two(self, tmp_path, monkeypatch, capsys):
        code = run(["duke", "--maass-data", str(tmp_path / "absent.txt")],
                   tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "absent.txt" in err

    def test_malformed_maass_data_exit_two(self, tmp_path, monkeypatch, capsys):
        maass = tmp_path / "m.txt"
        maass.write_text("9.533 0.01 7\n")
        code = run(["duke", "--maass-data", str(maass)], tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "malformed" in err

    def test_maass_data_ingestion(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -4\n"
                        "[haar]\nn_x = 12\nn_levels = 10\ny_max = 10\n")
        maass = tmp_path / "m.txt"
        maass.write_text("# rows\n9.533 0.01\n12.17 0.004\n")
        out = tmp_path / "d.json"
        code = run(["duke", "--config", str(cfgp), "--maass-data", str(maass),
                    "--json", "--out", str(out)], tmp_path, monkeypatch)
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["berry_esseen_total"] > 0

    def test_comment_only_maass_data_is_partial(self, tmp_path, monkeypatch, capsys):
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\ndiscriminants = -4\n"
                        "[haar]\nn_x = 12\nn_levels = 10\ny_max = 10\n")
        maass = tmp_path / "m.txt"
        maass.write_text("# no rows\n")
        code = run(["duke", "--config", str(cfgp), "--maass-data", str(maass),
                    "--out", str(tmp_path / "d.csv")], tmp_path, monkeypatch)
        assert code == 0
        err = capsys.readouterr().err
        assert "(partial bound)" in err and "m.txt holds no rows" in err
        assert "no Maass data supplied" not in err


class TestWassersteinInput:
    def test_bad_weights_exit_two(self, tmp_path, monkeypatch, capsys):
        half = tmp_path / "half.txt"
        half.write_text("0.0 1.0 0.5\n")
        one = tmp_path / "one.txt"
        one.write_text("0.0 2.0 1.0\n")
        code = run(["wasserstein", str(half), str(one)], tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "half.txt" in err and "0.5" in err

    def test_missing_measure_exit_two(self, tmp_path, monkeypatch, capsys):
        one = tmp_path / "one.txt"
        one.write_text("0.0 2.0 1.0\n")
        code = run(["wasserstein", str(one), str(tmp_path / "absent.txt")],
                   tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "absent.txt" in err

    def test_malformed_label_exit_two(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# modsurf-measure label=no quotes atoms=1\n0.0 2.0 1.0\n")
        code = run(["wasserstein", str(bad), str(bad)], tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "bad.txt" in err

    def test_two_column_measure_exit_two(self, tmp_path, monkeypatch, capsys):
        short = tmp_path / "short.txt"
        short.write_text("# modsurf-measure label='s' atoms=1\n0.0 2.0\n")
        code = run(["wasserstein", str(short), str(short)], tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "short.txt" in err and "malformed" in err

    def test_support_guard_reads_the_headers(self, tmp_path, monkeypatch, capsys):
        # the atoms=N of save_measure's header refuses the pair before any row is parsed
        for name, n in (("a.txt", 1501), ("b.txt", 600)):
            m = DiscreteMeasure(np.zeros(n), np.linspace(1.0, 3.0, n), np.full(n, 1.0 / n))
            save_measure(m, str(tmp_path / name))

        def no_load(path):
            raise AssertionError("load_measure called before the support guard")

        monkeypatch.setattr(cli, "load_measure", no_load)
        assert run(["wasserstein", "a.txt", "b.txt"], tmp_path, monkeypatch) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "1501 + 600" in err[0]



# The CSV header of each subcommand, as the README and the golden files have it.
HEADERS = {
    "transform-check": "T,check,value,pass",
    "kernel-mass": "z_x,z_y,mass,error_bound,pass",
    "heegner": "D,class_number,file,max_height",
    "geodesics": "D,narrow_classes,length,atoms,file",
    "class-number": "D,h_enumerated,h_formula,abs_diff,pass",
    "weyl-compare": "D,t,empirical_sq,exact_sq,ratio,pass",
    "duke": "D,W1_estimate,dual_lower_bound,discretization_bound,berry_esseen_total,"
            "weyl_exact_rel,T_used,pass",
    "mollify-check": "eps,sup_error,grad_sq,grad_bound,pass",
    "wasserstein": "file1,file2,W1",
}


class TestCommandTable:
    def test_table_names_every_command(self):
        assert list(cli.COMMANDS) == list(HEADERS)

    @pytest.mark.parametrize("command", sorted(HEADERS))
    def test_help_lists_columns(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert HEADERS[command] in lines

    def test_dispatch_through_module_attribute(self, tmp_path, monkeypatch):
        calls = []

        def stub(cfg, args):
            calls.append(args.command)
            return [{"D": -7, "class_number": 1, "file": "x", "max_height": 1.0}], True

        monkeypatch.setattr(cli, "cmd_heegner", stub)
        out = tmp_path / "h.csv"
        assert run(["heegner", "--out", str(out)], tmp_path, monkeypatch) == 0
        assert calls == ["heegner"]
        assert out.read_text().splitlines() == [HEADERS["heegner"], "-7,1,x,1.0"]

    def test_failed_check_exit_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cmd_heegner", lambda cfg, args: ([], False))
        assert run(["heegner"], tmp_path, monkeypatch) == 1


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["wasserstein"],
        ["no-such-command"],
        ["heegner", "--no-such-flag"],
        ["mollify-check", "--seed", "x"],
        ["kernel-mass", "--maass-data", "x"],
        ["duke", "--seed", "1"],
    ])
    def test_exit_two_with_one_line(self, argv, tmp_path, monkeypatch, capsys):
        assert run(argv, tmp_path, monkeypatch) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("argv, ini", [
        (["duke"], "[experiment]\nbandwidth =\n"),
        (["weyl-compare"], "[experiment]\nt_values =\n"),
        (["duke"], "[haar]\nn_x = 0\n"),
        (["duke"], "[haar]\nn_levels = -1\n"),
        (["duke"], "[haar]\ny_max = nan\n"),
        (["duke"], "[experiment]\nbandwidth = inf\n"),
        (["mollify-check"], "[experiment]\nseed = -1\n"),
        (["mollify-check", "--seed", "-1"], ""),
        (["mollify-check"], "[experiment]\neps_list = 0.2 0\n"),
        # 2 x 2401 atoms and 4813 + 1201 atoms, past the exact solver's 2000
        (["wasserstein", "haar.txt", "haar.txt"], ""),
        (["duke"], "[experiment]\ndiscriminants = 5 -7\n"
                   "[geodesic]\nsamples_per_unit_length = 5000\n"),
        (["weyl-compare"], "[experiment]\ndiscriminants = -7\nt_values = 0.0 1.0\n"),
        # trial division to sqrt|D| would not finish; the envelope check comes first
        (["weyl-compare"], "[experiment]\ndiscriminants = -1000000000000000003\n"),
        (["transform-check"], "[experiment]\nbandwith = 2.0\n"),
        (["transform-check"], "[experiment]\nbandwidth = 2.0\n[tolerence]\n"),
        (["duke"], "[experiment]\ndiscriminants =\n"),
        (["weyl-compare"], "[experiment]\ndiscriminants =\n"),
        # a grid of 10^10 atoms and geodesic samples of 1.9 x 10^10 atoms,
        # counted before they are allocated
        (["duke"], "[haar]\nn_x = 100000\nn_levels = 100000\n"),
        *((argv, "[experiment]\ndiscriminants = 5\n"
                 "[geodesic]\nsamples_per_unit_length = 10000000000\n")
          for argv in (["duke"], ["weyl-compare"], ["geodesics"])),
        # m.txt is valid: the data describes one measure, not the seven defaults
        (["duke", "--maass-data", "m.txt"], ""),
        # a NaN passes every comparison that the loaders' checks make
        (["wasserstein", "nan.txt", "nan.txt"], ""),
        (["duke", "--maass-data", "m-nan.txt"], "[experiment]\ndiscriminants = -4\n"),
        (["mollify-check"], "[experiment]\neps_list =\n"),
        (["duke"], "[haar]\ny_max = 1.5\n"),
        (["transform-check"], "[tolerances]\nkint = 0\n"),
    ], ids=["empty-bandwidth", "empty-t-values", "n-x-zero", "n-levels-negative", "y-max-nan",
            "bandwidth-inf", "seed-negative", "seed-flag-negative", "eps-zero",
            "wasserstein-support", "duke-support", "t-values-zero", "discriminant-envelope",
            "misspelt-key", "unknown-empty-section", "duke-no-discriminants",
            "weyl-compare-no-discriminants", "duke-grid-atoms", "duke-geodesic-atoms",
            "weyl-compare-geodesic-atoms", "geodesics-geodesic-atoms",
            "duke-maass-data-many-discriminants", "wasserstein-nan-measure",
            "duke-nan-maass-data", "empty-eps-list", "y-max-below-two", "tolerance-zero"])
    def test_bad_input_exit_two(self, argv, ini, tmp_path, monkeypatch, capsys):
        save_measure(haar_discretization(60, 40, 20.0), str(tmp_path / "haar.txt"))
        (tmp_path / "m.txt").write_text("9.53 0.01\n")
        (tmp_path / "nan.txt").write_text("nan 2 0.5\n0.0 2.0 0.5\n")
        (tmp_path / "m-nan.txt").write_text("9.53 nan\n")
        (tmp_path / "c.ini").write_text(ini)
        assert run(argv + ["--config", "c.ini"], tmp_path, monkeypatch) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("argv, path", [
        (["heegner", "--out", "no-such-dir/h.csv"], "no-such-dir/h.csv"),
        (["wasserstein", "one.txt", "one.txt", "--plan-out", "no-such-dir/plan.txt"],
         "no-such-dir/plan.txt"),
        # heegner writes heegner_7.txt first, and a directory holds that name
        (["heegner"], "heegner_7.txt"),
    ], ids=["out", "plan-out", "measure-file"])
    def test_unwritable_out_exit_two(self, argv, path, tmp_path, monkeypatch, capsys):
        (tmp_path / "one.txt").write_text("0.0 2.0 1.0\n")
        if path == "heegner_7.txt":
            (tmp_path / path).mkdir()
        assert run(argv, tmp_path, monkeypatch) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot write {path}: ")

    def test_seed_overrides_config(self, tmp_path, monkeypatch):
        seen = []

        def stub(cfg, args):
            seen.append(cfg.seed)
            return [], True

        monkeypatch.setattr(cli, "cmd_mollify_check", stub)
        cfgp = tmp_path / "c.ini"
        cfgp.write_text("[experiment]\nseed = 3\n")
        assert run(["mollify-check", "--config", str(cfgp)], tmp_path, monkeypatch) == 0
        assert run(["mollify-check", "--config", str(cfgp), "--seed", "7"],
                   tmp_path, monkeypatch) == 0
        assert seen == [3, 7]
