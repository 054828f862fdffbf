import json

import numpy as np
import pytest

from bvgeo import (Homotopy, ParseError, RunConfig, load_config, load_curve,
                   load_homotopy, match_distance, parse_config, save_curve,
                   save_homotopy)
from bvgeo.cli import main
from conftest import fourier_curve, smooth_homotopy


def write_curve_json(path, nodes):
    path.write_text(json.dumps({"nodes": [list(map(float, p)) for p in nodes]}))
    return str(path)


class TestCurveFiles:
    def test_json_round_trip_exact(self, rng, tmp_path):
        c = fourier_curve(rng, 40)
        p = tmp_path / "c.json"
        save_curve(c, p)
        back = load_curve(p)
        assert np.array_equal(back.nodes, c.nodes)

    def test_reemission_byte_identical(self, rng, tmp_path):
        c = fourier_curve(rng, 20)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_curve(c, p1)
        save_curve(load_curve(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0.0,0.0\n1.0,0.25\n0.5,1.0\n")
        c = load_curve(p)
        assert c.n == 3
        assert np.allclose(c.nodes, [[0, 0], [1, 0.25], [0.5, 1]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_curve(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nodes: [")
        with pytest.raises(ParseError, match="line"):
            load_curve(p)

    def test_missing_nodes_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"points": []}')
        with pytest.raises(ParseError, match="nodes"):
            load_curve(p)

    def test_too_few_nodes(self, tmp_path):
        p = tmp_path / "bad.json"
        write_curve_json(p, [[0, 0], [1, 1]])
        with pytest.raises(ParseError):
            load_curve(p)

    def test_csv_bad_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,0\n1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_curve(p)

    def test_csv_non_numeric(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,0\n1,x\n2,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_curve(p)


class TestHomotopyFiles:
    def test_round_trip_exact(self, rng, tmp_path):
        h = Homotopy(smooth_homotopy(rng, 4, 12))
        p = tmp_path / "h.json"
        save_homotopy(h, p)
        back = load_homotopy(p)
        assert np.array_equal(back.grid, h.grid)

    def test_shape_mismatch(self, rng, tmp_path):
        h = Homotopy(smooth_homotopy(rng, 4, 12))
        p = tmp_path / "h.json"
        doc = {"N": 5, "n": 12, "slices": h.grid.tolist()}
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="shape"):
            load_homotopy(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text('{"N": 2, "slices": []}')
        with pytest.raises(ParseError, match="'n'"):
            load_homotopy(p)

    @pytest.mark.parametrize("text", [
        "5",
        '"Nn slices"',
        '{"N": 2, "n": 3, "slices": [[[0, 0], [1, 0], [0, 1]], [[0, 0]]]}',
    ], ids=["number", "string", "ragged"])
    def test_energy_malformed_homotopy_exits_1(self, tmp_path, capsys, text):
        p = tmp_path / "bad.homotopy.json"
        p.write_text(text)
        assert main(["energy", str(p)]) == 1
        assert str(p) in capsys.readouterr().err


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.N, cfg.n) == (10, 256)
        assert cfg.metric.weights == (1.0, 0.0, 1.0)
        assert cfg.metric.family == "bv2"
        assert (cfg.kernel.sigma, cfg.kernel.delta) == (0.5, 0.05)
        assert cfg.optimizer.eps_schedule == (1e-1, 1e-2, 1e-3)
        assert cfg.init == "constant"

    def test_parse_overrides(self):
        cfg = parse_config("""
            family = h2          # comment
            weights = 2, 0.5, 1
            grid = 6 32
            kernel = 0.4, 0.1
            eps_schedule = 1e-1 1e-3
            init = linear
            max_iters = 77
            paper_literal_velocity = yes
        """)
        assert cfg.metric.family == "h2"
        assert cfg.metric.weights == (2.0, 0.5, 1.0)
        assert (cfg.N, cfg.n) == (6, 32)
        assert (cfg.kernel.sigma, cfg.kernel.delta) == (0.4, 0.1)
        assert cfg.optimizer.eps_schedule == (1e-1, 1e-3)
        assert cfg.init == "linear"
        assert cfg.optimizer.max_iters == 77
        assert cfg.paper_literal_velocity is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_config("frobnicate = 3")

    def test_bad_value_types(self):
        with pytest.raises(ParseError):
            parse_config("weights = 1 2")
        with pytest.raises(ParseError):
            parse_config("paper_literal_velocity = maybe")
        with pytest.raises(ParseError):
            parse_config("family = sobolev")
        with pytest.raises(ParseError):
            parse_config("no equals sign here")
        # integers are never truncated
        for text in ("exponent = 1.5", "grid = 10.7 256.9", "max_iters = 2.5",
                     "seed = 0.5", "seed = inf"):
            with pytest.raises(ParseError, match="integers"):
                parse_config(text)
        assert parse_config("grid = 6.0 32").n == 32

    def test_invalid_combination_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_config("grid = 1 32")
        with pytest.raises(ParseError):
            parse_config("eps_schedule = 1e-3 1e-2")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.cfg")


class TestCli:
    def pair(self, rng, tmp_path):
        src = write_curve_json(tmp_path / "src.json",
                               fourier_curve(rng, 120).nodes)
        tgt = write_curve_json(tmp_path / "tgt.json",
                               fourier_curve(rng, 120).nodes)
        return src, tgt

    def test_missing_source_exits_1(self, tmp_path, capsys):
        rc = main(["match", "--source", str(tmp_path / "no.json"),
                   "--target", str(tmp_path / "no.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_geodesic_smoke(self, rng, tmp_path, capsys):
        src, tgt = self.pair(rng, tmp_path)
        out = str(tmp_path / "run")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iters = 3\ngrid = 3 32\neps_schedule = 1e-2\n")
        rc = main(["geodesic", "--config", str(cfg), "--source", src,
                   "--target", tgt, "--out", out])
        assert rc == 0
        assert (tmp_path / "run.homotopy.json").exists()
        assert (tmp_path / "run.trace.csv").exists()
        assert (tmp_path / "run.svg").exists()
        h = load_homotopy(tmp_path / "run.homotopy.json")
        assert (h.N, h.n) == (3, 32)
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0].startswith("iter,eps,objective")
        assert "termination" in capsys.readouterr().out

    def test_geodesic_max_iters_zero_keeps_init(self, rng, tmp_path, capsys):
        src, tgt = self.pair(rng, tmp_path)
        out = str(tmp_path / "run0")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iters = 0\ngrid = 3 24\neps_schedule = 1e-2\n")
        rc = main(["geodesic", "--config", str(cfg), "--source", src,
                   "--target", tgt, "--out", out])
        assert rc == 0
        h = load_homotopy(tmp_path / "run0.homotopy.json")
        assert np.array_equal(h.grid[0], h.grid[-1])  # constant init untouched

    def test_geodesic_h2_norm_from_constant_init(self, rng, tmp_path, capsys):
        # H2 with p = 1 has zero velocity everywhere at the constant init
        src, tgt = self.pair(rng, tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = h2\nexponent = 1\nmax_iters = 3\n"
                       "grid = 3 24\neps_schedule = 1e-2\n")
        rc = main(["geodesic", "--config", str(cfg), "--source", src,
                   "--target", tgt, "--out", str(tmp_path / "run")])
        assert rc == 0

    def test_check_grad_exit_zero(self, capsys):
        rc = main(["check-grad"])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_resample(self, rng, tmp_path, capsys):
        src = write_curve_json(tmp_path / "c.json", fourier_curve(rng, 50).nodes)
        out = str(tmp_path / "r.json")
        rc = main(["resample", "--source", src, "--out", out, "--nodes", "64"])
        assert rc == 0
        c = load_curve(out)
        assert c.n == 64
        lens = c.chord_lengths
        assert lens.max() / lens.min() <= 1 + 1e-8

    def test_match_prints_module_value(self, rng, tmp_path, capsys):
        src, tgt = self.pair(rng, tmp_path)
        rc = main(["match", "--source", src, "--target", tgt,
                   "--grid", "3,32"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed >= 0

    def test_export_svg(self, rng, tmp_path, capsys):
        h = Homotopy(smooth_homotopy(rng, 4, 24))
        hp = tmp_path / "h.json"
        save_homotopy(h, hp)
        out = str(tmp_path / "pic.svg")
        rc = main(["export-svg", str(hp), "--out", out])
        assert rc == 0
        text = (tmp_path / "pic.svg").read_text()
        assert text.startswith("<svg")
        # one polygon per slice plus the black source overlay
        assert text.count("<polygon") == 5

    def test_svg_endpoint_colors(self, rng, tmp_path):
        h = Homotopy(smooth_homotopy(rng, 5, 16))
        hp = tmp_path / "h.json"
        save_homotopy(h, hp)
        out = str(tmp_path / "pic.svg")
        main(["export-svg", str(hp), "--out", out])
        text = (tmp_path / "pic.svg").read_text()
        assert "#0000ff" in text and "#ff0000" in text

    def test_deterministic_outputs(self, rng, tmp_path):
        src, tgt = self.pair(rng, tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iters = 3\ngrid = 3 24\neps_schedule = 1e-2\n")
        for name in ("r1", "r2"):
            main(["geodesic", "--config", str(cfg), "--source", src,
                  "--target", tgt, "--out", str(tmp_path / name)])
        assert (tmp_path / "r1.homotopy.json").read_bytes() \
            == (tmp_path / "r2.homotopy.json").read_bytes()
        assert (tmp_path / "r1.svg").read_bytes() \
            == (tmp_path / "r2.svg").read_bytes()

    def test_energy_translation_path(self, tmp_path, capsys):
        # translation at unit speed across unit distance, squared-norm energy
        theta = 2 * np.pi * np.arange(32) / 32
        base = 0.5 + 0.2 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        N = 5
        grid = base[None] + (np.arange(N) / (N - 1))[:, None, None] \
            * np.array([1.0, 0.0])
        hp = tmp_path / "h.json"
        save_homotopy(Homotopy(grid), hp)
        rc = main(["energy", str(hp), "--weights", "1,0,0",
                   "--eps-schedule", "1e-6", "--metric", "h2"])
        assert rc == 0
        printed = float(capsys.readouterr().out.split()[-1])
        # constant unit velocity: L2-in-space squared norm = curve length
        lens = np.linalg.norm(np.roll(base, -1, axis=0) - base, axis=1)
        assert printed == pytest.approx(lens.sum(), rel=1e-4)
