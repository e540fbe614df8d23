import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from purifylab import metrics, strategies
from purifylab.cli import _mp_ks_distance, _run_check, main
from purifylab.ensembles import EnsembleSpec, mp_cdf, mp_support
from purifylab.metrics import STRATEGY_GRAMMAR


def run_cli(args):
    return main(args)


def body_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


class TestValidate:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli([
            "validate", "--di", "2", "--do", "2", "--de", "2",
            "--n", "2000", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = body_lines(out)
        assert lines[0] == "check,expected,observed,tolerance,status"
        assert all(ln.endswith("pass") for ln in lines[1:])

    def test_input_wider_than_output_skips_separable_pure(self, tmp_path, capsys):
        # no isometry embeds I in O at d_i > d_o, so only an explicit
        # separable-pure check is an error there
        out = tmp_path / "wide.csv"
        argv = ["validate", "--di", "3", "--do", "2", "--de", "2", "--n", "20"]
        assert run_cli(argv + ["--out", str(out)]) == 0
        rows = [ln.split(",") for ln in body_lines(out)[1:]]
        assert [r[0] for r in rows] == ["purity", "dep-constant", "avg-ue", "moment-identity"]
        assert all(r[-1] == "pass" for r in rows)
        assert run_cli(argv + ["--check", "separable-pure"]) == 2
        assert "embedding isometry needs d_o >= d_i" in capsys.readouterr().err

    def test_dep_zero_variance_check(self, tmp_path):
        out = tmp_path / "dep.csv"
        code = run_cli([
            "validate", "--di", "2", "--do", "2", "--de", "3", "--n", "100",
            "--seed", "1", "--check", "dep-constant", "--out", str(out),
        ])
        assert code == 0

    def test_second_moment_check(self, tmp_path):
        out = tmp_path / "sm.csv"
        code = run_cli([
            "validate", "--di", "2", "--do", "2", "--de", "2", "--n", "50000",
            "--seed", "3", "--check", "second-moment", "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("dims", [(1, 4, 4), (2, 2, 4)])
    def test_second_moment_check_peak(self, dims):
        # the closed form is built first and subtracted in place: 32.9 side^4
        # bytes at the peak, where mc - cf as a new operator held 42
        spec = EnsembleSpec(*dims, seed=0)
        side = spec.d_i * spec.d_o * spec.d_e
        _run_check("second-moment", spec, 2, 1)  # the Sym² index maps, built once
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _run_check("second-moment", spec, 64, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 36 * side**4

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "validate", "--di", "2", "--do", "2", "--de", "2", "--n", "500",
            "--seed", "7", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["command"] == "validate"
        assert all(row["status"] == "pass" for row in data["rows"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_constant_purity_tolerance_is_the_slack(self, tmp_path, fmt):
        # d_E = 1: tr C^2 is constant, so the tolerance is CLOSED_FORM_SLACK alone
        out = tmp_path / "purity.out"
        assert run_cli(["validate", "--de", "1", "--n", "3000", "--check", "purity",
                        "--format", fmt, "--out", str(out)]) == 0
        if fmt == "json":
            assert json.loads(out.read_text())["rows"][0]["tolerance"] == 1e-12
        else:
            assert body_lines(out)[1] == "purity,4,4,1e-12,pass"

    def test_usage_error_exit_2(self):
        assert run_cli(["validate", "--de", "zebra"]) == 2
        assert run_cli(["no-such-command"]) == 2


class TestSingleEnvironment:
    # Only sweep runs over a range; the others take one d_E and echo it.
    @pytest.mark.parametrize("argv", [
        ["validate", "--n", "100", "--check", "purity"],
        ["spectrum", "--draws", "20", "--bins", "10"],
        ["tomo-scaling", "--n", "3", "--k", "8,32,128"],
    ])
    def test_range_rejected_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        base = argv + ["--di", "2", "--do", "2", "--seed", "1", "--out", str(out)]
        assert run_cli(base + ["--de", "2..5"]) == 2
        assert "not the range '2..5'" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(base + ["--de", "2"]) == 0
        assert "# de=2" in out.read_text().splitlines()


class TestUnreadFlags:
    # a subcommand rejects a flag it would ignore instead of accepting it
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "50", "--draws", "20", "--bins", "10"],
        ["validate", "--n", "100", "--check", "purity", "--plot"],
    ])
    def test_rejected_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--de", "2", "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--de", "2", "--draws", "20", "--bins", "10"],
        ["tomo-scaling", "--n", "3", "--k", "8,32,128"],
    ], ids=["spectrum", "tomo-scaling"])
    def test_plot_written(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(out), "--plot"]) == 0
        assert out.with_suffix(".csv.svg").read_text().startswith("<svg")


class TestSweep:
    def test_row_count_and_closed_forms(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "sweep", "--di", "2", "--do", "2", "--de", "1..4", "--n", "300",
            "--seed", "5", "--strategies", "dep,avg-ue", "--out", str(out),
        ])
        assert code == 0
        lines = body_lines(out)
        assert len(lines) == 1 + 4 * 2
        for ln in lines[1:]:
            fields = ln.split(",")
            if fields[1] == "dep":
                d_e = int(fields[0])
                assert abs(float(fields[2]) - (4 - 2 / (2 * d_e))) < 1e-9
                assert float(fields[2]) == pytest.approx(float(fields[4]))

    def test_avg_ue_zero_at_trivial_env(self, tmp_path):
        out = tmp_path / "sweep1.csv"
        run_cli([
            "sweep", "--di", "2", "--do", "2", "--de", "1", "--n", "100",
            "--seed", "5", "--strategies", "avg-ue", "--out", str(out),
        ])
        row = body_lines(out)[1].split(",")
        assert float(row[2]) < 1e-10

    def test_plot_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli([
            "sweep", "--di", "2", "--do", "2", "--de", "1..2", "--n", "100",
            "--seed", "5", "--strategies", "dep", "--out", str(out), "--plot",
        ])
        svg = out.with_suffix(".csv.svg")
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_bad_range_exit_2(self):
        assert run_cli(["sweep", "--de", "5..2"]) == 2

    @pytest.mark.parametrize("budget", ["abc", "", "none"])
    def test_bad_tomo_budget_names_the_grammar(self, tmp_path, capsys, budget):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--de", "1", "--n", "3", "--strategies", f"tomo:k={budget}",
                "--out", str(out)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"'tomo:k={budget}'" in err and STRATEGY_GRAMMAR in err
        assert not out.exists()


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_strategy_names_stripped(self, tmp_path, source):
        # the column and the header name the machines that ran
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--de", "1", "--n", "3", "--out", str(out)]
        if source == "flag":
            argv += ["--strategies", " dep , avg-ue"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("strategies=dep, avg-ue\n")
            argv += ["--config", str(cfg)]
        assert run_cli(argv) == 0
        assert "# strategies=dep,avg-ue" in out.read_text().splitlines()
        assert [ln.split(",")[1] for ln in body_lines(out)[1:]] == ["dep", "avg-ue"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("names", ["append:optimal,banana", "pure:omega,tomo:k=0",
                                       "tomo:k=4096, tomo:k=x"])
    def test_bad_name_exits_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                            source, names):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew or fitted before checking every strategy")

        for module, name in ((metrics, "estimate_ordered_weights"),
                             (strategies, "_choi_bank"), (strategies, "sample_choi")):
            monkeypatch.setattr(module, name, no_draw)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--de", "1..25", "--n", "20000", "--out", str(out)]
        if source == "flag":
            argv += ["--strategies", names]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"strategies={names}\n")
            argv += ["--config", str(cfg)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "argument --strategies:" in err and STRATEGY_GRAMMAR in err
        assert not out.exists()

    def test_repeated_strategy_named(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--de", "1", "--n", "3", "--strategies", "avg-ue,dep, avg-ue ",
                "--out", str(out)]
        assert run_cli(argv) == 2
        assert "strategy avg-ue named twice" in capsys.readouterr().err
        assert not out.exists()


class TestWorkerReproducibility:
    def test_byte_identical_bodies(self, tmp_path):
        base = [
            "sweep", "--di", "2", "--do", "2", "--de", "1..2", "--n", "1200",
            "--seed", "9", "--strategies", "pure:omega,append:optimal,avg-ue",
        ]
        out1 = tmp_path / "w1.csv"
        out8 = tmp_path / "w8.csv"
        assert run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert run_cli(base + ["--workers", "8", "--out", str(out8)]) == 0
        assert body_lines(out1) == body_lines(out8)


class TestSpectrum:
    def test_columns_and_atom(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli([
            "spectrum", "--di", "2", "--do", "2", "--de", "2", "--seed", "3",
            "--draws", "60", "--bins", "16", "--out", str(out),
        ])
        assert code == 0
        lines = body_lines(out)
        assert lines[0] == "bin_center,count,empirical_density,mp_density,atom_weight"
        # c = 2 here, so the atom carries weight 1 - 1/2.
        atom = float(lines[1].split(",")[4])
        assert atom == pytest.approx(0.5)

    def test_isometric_spectrum_single_spike(self, tmp_path):
        out = tmp_path / "spec1.csv"
        run_cli([
            "spectrum", "--di", "2", "--do", "2", "--de", "1", "--seed", "3",
            "--draws", "30", "--bins", "10", "--out", str(out),
        ])
        lines = body_lines(out)
        counts = np.array([int(ln.split(",")[1]) for ln in lines[1:]])
        centers = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
        # All mass in the single bin containing d_o * d_i = 4.
        assert counts.sum() == 30 * 4
        hot = counts > 0
        # isometric Choi spectrum: non-zero eigenvalues all equal d_i,
        # scaled by d_o -> 4; zero eigenvalues land in the first bin.
        assert set(np.round(centers[hot] / 4).astype(int)) <= {0, 1}

    def test_min_bins(self):
        assert run_cli(["spectrum", "--bins", "5"]) == 2

    @pytest.mark.parametrize("draws", ["0", "-2"])
    def test_min_draws(self, capsys, draws):
        assert run_cli(["spectrum", "--draws", draws]) == 2
        assert "--draws" in capsys.readouterr().err

    def test_header_has_no_sample_count(self, tmp_path):
        # The histogram pools --draws channels; n plays no part in it.
        out = tmp_path / "spec.csv"
        run_cli([
            "spectrum", "--di", "2", "--do", "2", "--de", "2", "--seed", "3",
            "--draws", "10", "--bins", "10", "--out", str(out),
        ])
        header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert "# draws=10" in header
        assert not any(ln.startswith("# n=") for ln in header)

    def test_workers_open_a_pool_and_keep_the_body(self, tmp_path, monkeypatch):
        from purifylab import metrics

        opened = []

        class CountingPool(metrics.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", CountingPool)
        base = ["spectrum", "--di", "2", "--do", "2", "--de", "3", "--seed", "4",
                "--draws", "1100"]
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert opened == []
        assert run_cli(base + ["--workers", "2", "--out", str(out2)]) == 0
        assert opened == [2]
        assert body_lines(out1) == body_lines(out2)

    def test_balanced_case_tracks_mp_reference(self, tmp_path):
        out = tmp_path / "spec16.csv"
        code = run_cli([
            "spectrum", "--di", "4", "--do", "4", "--de", "16", "--seed", "8",
            "--draws", "200", "--bins", "40", "--out", str(out),
        ])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            header = [ln for ln in fh.read().splitlines() if ln.startswith("# ks=")]
        ks = float(header[0].split("=")[1])
        assert ks < 0.08

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0])
    def test_ks_is_the_sup_over_both_sides_of_each_point(self, c):
        rng = np.random.default_rng(12)
        bulk = rng.uniform(0.0, mp_support(c)[1], 100)
        zeros = np.zeros(int(100 * max(0.0, 1.0 - 1.0 / c)))
        eigs = np.sort(np.concatenate([zeros, bulk, bulk[:20]]))  # ties included

        def side_gaps(x):
            f = mp_cdf(c, x)
            f_below = mp_cdf(c, np.nextafter(x, -np.inf))
            return (abs(np.sum(eigs <= x) / eigs.size - f),
                    abs(np.sum(eigs < x) / eigs.size - f_below))

        brute = max(max(side_gaps(x)) for x in eigs)
        assert _mp_ks_distance(c, eigs) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("de, atom", [(2, 0.5), (1, 0.75)])
    def test_rank_deficient_ks_is_not_the_atom(self, tmp_path, de, atom):
        # c = 2 and c = 4: the zero eigenvalues are the atom, not a misfit
        out = tmp_path / "spec.csv"
        assert run_cli([
            "spectrum", "--di", "2", "--do", "2", "--de", str(de), "--seed", "0",
            "--draws", "400", "--out", str(out),
        ]) == 0
        header = dict(ln[2:].split("=", 1) for ln in out.read_text().splitlines()
                      if ln.startswith("# "))
        assert float(header["ks"]) < 0.2 < atom
        assert float(out.read_text().splitlines()[-1].split(",")[-1]) == atom


class TestTomoScaling:
    def test_csv_and_footer(self, tmp_path):
        out = tmp_path / "tomo.csv"
        code = run_cli([
            "tomo-scaling", "--di", "1", "--do", "2", "--de", "2", "--n", "15",
            "--seed", "6", "--k", "32,128,512", "--out", str(out),
        ])
        assert code == 0
        lines = body_lines(out)
        assert lines[0] == "k,mean,stderr"
        assert lines[-1].startswith("slope,")
        slope = float(lines[-1].split(",")[1])
        assert -1.6 < slope < -0.4

    def test_config_n_is_used(self, tmp_path):
        base = [
            "tomo-scaling", "--di", "1", "--do", "2", "--de", "2", "--seed", "6",
            "--k", "8,32,128",
        ]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=5\n")
        from_cfg, from_flag = tmp_path / "cfg.csv", tmp_path / "flag.csv"
        assert run_cli(base + ["--config", str(cfg), "--out", str(from_cfg)]) == 0
        assert run_cli(base + ["--n", "5", "--out", str(from_flag)]) == 0
        assert body_lines(from_cfg) == body_lines(from_flag)
        assert "# n=5" in from_cfg.read_text().splitlines()

    def test_k_range_validation(self):
        assert run_cli(["tomo-scaling", "--k", "64,128"]) == 2
        assert run_cli(["tomo-scaling", "--k", "64,128,256"]) == 2  # < 16x span


class TestConfigAndEnv:
    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("di=2\ndo=2\nde=3\nn=100\nseed=17\nstrategies=dep\n")
        out = tmp_path / "out.csv"
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        row = body_lines(out)[1].split(",")
        assert row[0] == "3" and row[6] == "17"
        # A flag overrides the file.
        out2 = tmp_path / "out2.csv"
        run_cli(["sweep", "--config", str(cfg), "--de", "2", "--out", str(out2)])
        assert body_lines(out2)[1].split(",")[0] == "2"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["validate", "--check", "purity", "--n", "50"], "sed=5"),
            (["spectrum", "--draws", "20", "--bins", "10"], "n=50"),
        ],
        ids=["validate-unknown-sed", "spectrum-unread-n"],
    )
    def test_unread_key_exit_2(self, tmp_path, capsys, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        key = line.split("=")[0]
        assert f"config key(s) {key};" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["format=xml", "seed=x"])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, line):
        # --format xml and --seed x exit 2; so do the same values in a file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        argv = ["validate", "--check", "purity", "--n", "50", "--config", str(cfg)]
        assert run_cli(argv + ["--out", str(out)]) == 2
        key, value = line.split("=")
        assert f"{key}={value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, value):
        # from the flag or from a file: no run, so no header claims one
        out = tmp_path / "out.csv"
        argv = ["sweep", "--de", "1", "--n", "10", "--strategies", "dep", "--out", str(out)]
        assert run_cli(argv + ["--workers", value]) == 2
        assert "--workers" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"workers={value}\n")
        assert run_cli(argv + ["--config", str(cfg)]) == 2
        assert f"workers={value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PURIFYLAB_SEED", "4242")
        out = tmp_path / "out.csv"
        run_cli(["sweep", "--di", "2", "--do", "2", "--de", "1", "--n", "100",
                 "--strategies", "dep", "--out", str(out)])
        assert body_lines(out)[1].split(",")[6] == "4242"

    def test_env_seed_checked_like_its_flag(self, tmp_path, capsys, monkeypatch):
        # --seed x and seed=x in a file exit 2 naming the bad value; so does the
        # environment fallback, naming its variable
        monkeypatch.setenv("PURIFYLAB_SEED", "x")
        out = tmp_path / "out.csv"
        argv = ["validate", "--check", "purity", "--n", "50", "--out", str(out)]
        assert run_cli(argv) == 2
        assert "PURIFYLAB_SEED='x'" in capsys.readouterr().err
        assert not out.exists()


class TestOneParser:
    """Flags, --config lines and PURIFYLAB_SEED are parsed by one parser: a
    config key is any valued flag of the subcommand, its value is checked by
    that flag's type, and a flag beats a config line beats the variable beats
    the flag's default."""

    SWEEP = ["sweep", "--di", "2", "--do", "2", "--de", "1", "--n", "20",
             "--strategies", "dep"]

    def seed_column(self, tmp_path, argv):
        out = tmp_path / "seed.csv"
        assert run_cli(self.SWEEP + argv + ["--out", str(out)]) == 0
        return body_lines(out)[1].split(",")[6]

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=22\n")
        monkeypatch.delenv("PURIFYLAB_SEED", raising=False)
        assert self.seed_column(tmp_path, []) == "0"
        monkeypatch.setenv("PURIFYLAB_SEED", "33")
        assert self.seed_column(tmp_path, []) == "33"
        assert self.seed_column(tmp_path, ["--config", str(cfg)]) == "22"
        assert self.seed_column(tmp_path, ["--config", str(cfg), "--seed", "44"]) == "44"
        assert self.seed_column(tmp_path, ["--seed", "44", "--config", str(cfg)]) == "44"

    @pytest.mark.parametrize("argv, flag, value", [
        (["tomo-scaling", "--di", "1", "--de", "2", "--n", "3", "--seed", "6"],
         "k", "8,32,128"),
        (["validate", "--n", "50"], "check", "purity"),
        (["spectrum", "--de", "2", "--bins", "10"], "draws", "20"),
        (["spectrum", "--de", "2", "--draws", "20"], "bins", "12"),
    ], ids=["k", "check", "draws", "bins"])
    def test_new_key_used_like_its_flag(self, tmp_path, argv, flag, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={value}\n")
        from_cfg, from_flag = tmp_path / "cfg.csv", tmp_path / "flag.csv"
        assert run_cli(argv + ["--config", str(cfg), "--out", str(from_cfg)]) == 0
        assert run_cli(argv + [f"--{flag}", value, "--out", str(from_flag)]) == 0
        assert from_cfg.read_text() == from_flag.read_text()

    @pytest.mark.parametrize("argv, flag, value", [
        (["spectrum", "--de", "2", "--draws", "20"], "bins", "5"),
        (["spectrum", "--de", "2", "--bins", "10"], "draws", "0"),
        (["tomo-scaling", "--n", "3"], "k", "8,x,128"),
        (["tomo-scaling", "--n", "3"], "k", "8,32"),
        (["tomo-scaling", "--n", "3"], "k", "0,16,64"),
        (["tomo-scaling", "--n", "3", "--k", "8,32,128"], "de", "2..x"),
        (["sweep", "--n", "3", "--strategies", "dep"], "de", "1..x"),
        (["sweep", "--n", "3", "--strategies", "dep"], "de", "0"),
        (["sweep", "--n", "3", "--de", "1"], "strategies", ","),
        (["sweep", "--n", "3", "--de", "1"], "strategies", "dep,dep"),
        (["sweep", "--n", "3", "--de", "1"], "strategies", "dep,,avg-ue"),
        (["sweep", "--n", "3", "--de", "1"], "strategies", "dep,"),
        (["tomo-scaling", "--n", "3"], "k", "8,,32,128"),
        (["validate", "--n", "3"], "check", "purty"),
        (["validate", "--check", "purity"], "n", "1"),
        (["validate", "--check", "second-moment"], "n", "1"),
        (["validate"], "n", "0"),
        (["sweep", "--de", "1", "--strategies", "dep"], "n", "1"),
        (["sweep", "--de", "1", "--strategies", "dep"], "n", "-4"),
        (["tomo-scaling", "--k", "8,32,128"], "n", "1"),
        (["tomo-scaling", "--k", "8,32,128"], "n", "0"),
    ], ids=["bins-below-10", "draws-0", "k-letter", "k-span", "k-below-1", "de-range-off-sweep",
            "de-letter", "de-0", "strategies-empty", "strategies-repeated",
            "strategies-empty-entry", "strategies-trailing-comma", "k-empty-entry",
            "check-choice", "n-1-validate",
            "n-1-second-moment", "n-0-validate", "n-1-sweep", "n-negative-sweep",
            "n-1-tomo-scaling", "n-0-tomo-scaling"])
    def test_bad_value_names_its_flag(self, tmp_path, capsys, argv, flag, value):
        # the same value exits 2 from the flag and from a config line, and the
        # message names the flag; neither run writes its output file
        out = tmp_path / "out.csv"
        assert run_cli(argv + [f"--{flag}", value, "--out", str(out)]) == 2
        assert f"argument --{flag}:" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={value}\n")
        assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag}={value!r}" in err and f"argument --{flag}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["wor=2", "work=2", "config=other.cfg", "plot=1",
                                      "--seed=2", "func=x"])
    def test_key_must_name_a_valued_flag(self, tmp_path, capsys, line):
        # argparse's prefix matching does not reach config keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert run_cli(self.SWEEP + ["--config", str(cfg), "--out", str(out)]) == 2
        key = line.split("=")[0]
        assert f"config key(s) {key};" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["no equals sign", ""])
    def test_bad_line_or_missing_file_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        if text:
            cfg.write_text(text + "\n")
        out = tmp_path / "out.csv"
        assert run_cli(self.SWEEP + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_fixtures_ignores_the_seed_variable(self, monkeypatch):
        # fixtures has no --seed, so it neither reads nor checks the variable
        monkeypatch.setenv("PURIFYLAB_SEED", "x")
        assert run_cli(["fixtures"]) == 0


class TestFixturesCommand:
    def test_bundled_fixtures_pass(self, capsys):
        assert run_cli(["fixtures"]) == 0
        assert "fixtures passed" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["fixtures", str(bad)]) == 2

    def test_malformed_record_exit_2(self, tmp_path, capsys):
        # a missing input key used to end in a KeyError traceback, exit 1
        bad = tmp_path / "bad.json"
        rec = {"name": "short", "op": "avg_purity", "input": {"d_i": 2, "d_o": 2},
               "expected": 1.6, "tol": 1e-12, "provenance": "closed_form"}
        bad.write_text(json.dumps([rec]))
        assert run_cli(["fixtures", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: fixture 'short'")

    def test_malformed_matrix_exit_2(self, tmp_path, capsys):
        # a nested matrix without its side used to end in a KeyError
        # traceback, exit 1
        bad = tmp_path / "bad.json"
        one = {"side": 1, "re_im": [[1.0, 0.0]]}
        rec = {"name": "sideless", "op": "fidelity",
               "input": {"rho": {"re_im": one["re_im"]}, "sigma": one},
               "expected": 1.0, "tol": 1e-12, "provenance": "trivial"}
        bad.write_text(json.dumps([rec]))
        assert run_cli(["fixtures", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: fixture 'sideless'")

    def test_rejected_input_exit_2(self, tmp_path, capsys):
        # avg_purity at d_o = d_e = 1 used to end in a ZeroDivisionError
        # traceback, exit 1
        bad = tmp_path / "bad.json"
        rec = {"name": "flat", "op": "avg_purity", "input": {"d_i": 1, "d_o": 1, "d_e": 1},
               "expected": 1.0, "tol": 1e-12, "provenance": "closed_form"}
        bad.write_text(json.dumps([rec]))
        assert run_cli(["fixtures", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: fixture 'flat'")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestJsonValues:
    """``--format json`` carries what the CSV prints as a number as a JSON
    number, an empty cell as null, and each comma list as a JSON list."""

    @pytest.mark.parametrize("argv, lists", [
        (["validate", "--di", "1", "--do", "2", "--de", "2", "--n", "20",
          "--check", "purity"], ()),
        (["sweep", "--de", "1..2", "--n", "20", "--strategies", "dep,avg-ue"],
         ("strategies",)),
        (["sweep", "--de", "2", "--n", "20", "--strategies", "dep"], ("strategies",)),
        (["spectrum", "--de", "2", "--draws", "5", "--bins", "10"], ()),
        (["tomo-scaling", "--di", "1", "--de", "2", "--k", "1,4,16", "--n", "3"], ("k",)),
    ], ids=["validate", "sweep", "sweep-one-de", "spectrum", "tomo-scaling"])
    def test_numbers_stay_numbers(self, tmp_path, argv, lists):
        csv, js = tmp_path / "out.csv", tmp_path / "out.json"
        assert run_cli(argv + ["--out", str(csv)]) == 0
        assert run_cli(argv + ["--format", "json", "--out", str(js)]) == 0
        data = json.loads(js.read_text())
        lines = csv.read_text().splitlines()
        config = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        header, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        assert list(data["config"]) == list(config)
        for key in lists:
            assert isinstance(data["config"][key], list)
            assert ",".join(map(str, data["config"][key])) == config[key]
        cells = [(config[k], data["config"][k]) for k in config if k not in lists]
        assert [list(r) for r in data["rows"]] == [header] * len(rows)
        cells += [(t, r[h]) for row, r in zip(rows, data["rows"]) for h, t in zip(header, row)]
        for text, value in cells:
            if text == "":
                assert value is None
            elif _is_number(text):
                assert type(value) in (int, float) and value == pytest.approx(float(text))
            else:
                assert value == text


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "purifylab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
