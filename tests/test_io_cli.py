import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bvgeo import (Homotopy, KernelParams, MetricSpec, OptimConfig,
                   ParseError, PolyCurve, RunConfig, constant_speed_resample,
                   continuation, init_linear, load_config, load_curve,
                   load_homotopy, match_distance, parse_config, save_curve,
                   save_homotopy)
from bvgeo import cli, optimize
from bvgeo.cli import _CONFIGURED, _build_parser, _write_trace, main
from bvgeo.io import CONFIG_KEYS
from bvgeo.optimize import TRACE_COLUMNS
from bvgeo.svg import _polyline
from conftest import fourier_curve, smooth_homotopy


def write_curve_json(path, nodes):
    path.write_text(json.dumps({"nodes": [list(map(float, p)) for p in nodes]}))
    return str(path)


def run_fresh(argv):
    """``python -m bvgeo.cli *argv`` in a fresh interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "bvgeo.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


# file contents for the loader properties: arbitrary bytes, arbitrary JSON,
# and documents of the loader's own shape with arbitrary entries (numbers
# drawn more often, so that some documents are valid)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.sampled_from(["nodes", "N", "n",
                                                        "slices", "x"]),
                                       inner, max_size=4), max_leaves=20)
_POINTS = st.lists(st.lists(st.integers() | st.floats() | _SCALARS,
                            max_size=3), max_size=6)


def _json_bytes(*docs):
    return st.one_of(st.binary(), *(doc.map(lambda d: json.dumps(d).encode())
                                    for doc in (_JSON,) + docs))


_CURVE_BYTES = {
    "json": _json_bytes(st.fixed_dictionaries({"nodes": _POINTS})),
    "csv": st.binary() | st.lists(st.lists(
        st.sampled_from(["0", "1.5", "-2e3", "nan", "inf", "1e999", ""])
        | st.text(max_size=3), max_size=3), max_size=6).map(
            lambda rows: "\n".join(map(",".join, rows)).encode()),
}
_HOMOTOPY_BYTES = _json_bytes(st.fixed_dictionaries({
    "N": st.integers(0, 3) | _SCALARS, "n": st.integers(0, 4) | _SCALARS,
    "slices": st.lists(_POINTS, max_size=3)}))
_PROPERTY = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCurveFiles:
    def test_json_round_trip_exact(self, rng, tmp_path):
        c = fourier_curve(rng, 40)
        p = tmp_path / "c.json"
        save_curve(c, p)
        back = load_curve(p)
        assert np.array_equal(back.nodes, c.nodes)

    def test_bytes_match_per_point_floats(self, rng, tmp_path):
        # the document is the one the per-point float() formula wrote,
        # byte for byte, with -0.0, subnormal and large coordinates
        nodes = fourier_curve(rng, 16).nodes.copy()
        nodes[:4] = [[-0.0, 0.0], [5e-324, -2.5e-310],
                     [1.7976931348623157e308, -1e300], [1e-17, 3.0]]
        c = PolyCurve(nodes)
        p = tmp_path / "c.json"
        save_curve(c, p)
        doc = {"nodes": [[float(x), float(y)] for x, y in c.nodes]}
        assert p.read_text() == json.dumps(doc) + "\n"
        assert '[-0.0, 0.0]' in p.read_text()
        assert load_curve(p).nodes.tobytes() == c.nodes.tobytes()

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

    @pytest.mark.parametrize("name,content", [
        ("bad.json", b"\xff\xfe{"),
        ("bad.csv", b"0,0\n\xff\xfe{"),
        ("bad.json", b"[" * 100000 + b"]" * 100000),
        ("bad.json",
         b'{"nodes": [[1' + b"0" * 400 + b", 0], [0, 1], [1, 1]]}"),
    ], ids=["json-not-utf8", "csv-not-utf8", "deep-nesting", "huge-int"])
    def test_unreadable_file_is_parse_error(self, tmp_path, name, content):
        p = tmp_path / name
        p.write_bytes(content)
        with pytest.raises(ParseError, match=name):
            load_curve(p)

    @pytest.mark.parametrize("name,content", [
        ("bad.json", '{"nodes": [["0.1", 0], [1, 0], [0, 1]]}'),
        ("bad.json", '{"nodes": [[0, 0], [1, 0], [0, true]]}'),
        ("bad.csv", "0,0\n1_000,0\n0,1\n"),
    ], ids=["json-string", "json-boolean", "csv-underscore"])
    def test_non_number_coordinate_is_parse_error(self, tmp_path, capsys,
                                                  name, content):
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(ParseError, match=name):
            load_curve(p)
        assert main(["match", "--source", str(p), "--target", str(p)]) == 1
        assert str(p) in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @_PROPERTY
    @given(data=st.data())
    def test_any_bytes_give_curve_or_parse_error(self, tmp_path, fmt, data):
        p = tmp_path / f"c.{fmt}"
        p.write_bytes(data.draw(_CURVE_BYTES[fmt]))
        try:
            curve = load_curve(p)
        except ParseError:
            return
        assert isinstance(curve, PolyCurve)


    def test_csv_non_ascii_digits_exit_1(self, tmp_path, capsys):
        # float() reads Arabic-Indic digits: "١,٠" would be the node (1, 0)
        p = tmp_path / "c.csv"
        p.write_text("0,0\n١,٠\n0,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"c\.csv: line 2: "):
            load_curve(p)
        assert main(["match", "--source", str(p), "--target", str(p)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {p}: line 2: ")

    def test_repeated_key_is_parse_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"nodes": [[0, 0], [1, 0], [0, 1]], '
                     '"nodes": [[0, 0], [2, 0], [0, 2]]}')
        with pytest.raises(ParseError) as err:
            load_curve(p)
        assert str(err.value) == f"{p}: repeated key 'nodes'"


class TestHomotopyFiles:
    def test_round_trip_exact(self, rng, tmp_path):
        h = Homotopy(smooth_homotopy(rng, 4, 12))
        p = tmp_path / "h.json"
        save_homotopy(h, p)
        back = load_homotopy(p)
        assert np.array_equal(back.grid, h.grid)

    def test_bytes_match_per_point_floats(self, rng, tmp_path):
        # the document is the one the per-point float() formula wrote,
        # byte for byte, with -0.0, subnormal and large coordinates
        grid = smooth_homotopy(rng, 3, 16)
        grid[1, :4] = [[-0.0, 0.0], [5e-324, -2.5e-310],
                       [1.7976931348623157e308, -1e300], [1e-17, 3.0]]
        h = Homotopy(grid)
        p = tmp_path / "h.json"
        save_homotopy(h, p)
        doc = {"N": h.N, "n": h.n,
               "slices": [[[float(x), float(y)] for x, y in sl]
                          for sl in h.grid]}
        assert p.read_text() == json.dumps(doc) + "\n"
        assert '[-0.0, 0.0]' in p.read_text()
        assert load_homotopy(p).grid.tobytes() == h.grid.tobytes()

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
        '{"N": 2, "n": 3, "slices": [[[0, 0], [1, 0], [0, 1]], '
        '[[0, 0], [1, 0], ["0.1", 1]]]}',
        '{"N": 2, "n": 3, "slices": [[[0, 0], [1, 0], [0, 1]], '
        '[[0, 0], [1, 0], [0, true]]]}',
        '{"N": 2.0, "n": 3, "slices": [[[0, 0], [1, 0], [0, 1]], '
        '[[0, 0], [1, 0], [0, 1]]]}',
        '{"N": 2, "n": 3.0, "slices": [[[0, 0], [1, 0], [0, 1]], '
        '[[0, 0], [1, 0], [0, 1]]]}',
    ], ids=["number", "string", "ragged", "string-coordinate",
            "boolean-coordinate", "float-N", "float-n"])
    def test_energy_malformed_homotopy_exits_1(self, tmp_path, capsys, text):
        p = tmp_path / "bad.homotopy.json"
        p.write_text(text)
        assert main(["energy", str(p)]) == 1
        assert str(p) in capsys.readouterr().err

    @pytest.mark.parametrize("text,reason", [
        ('{"N": 2, "n": 3, "slices": [[[0, 0], [1, 0], [0, 1]], '
         '[[0, 0], [1, 0], [NaN, 1]]]}', "grid contains non-finite "
         "coordinates"),
        ('{"N": 2, "n": 3, "slices": [[[0, 0], [1, 0], [0, 1]], '
         '[[0, 0], [1, 0], [0, -Infinity]]]}', "grid contains non-finite "
         "coordinates"),
        ('{"N": 2, "n": 3, "slices": [5, 6]}',
         "slices do not have the shape N=2, n=3"),
    ], ids=["nan", "infinity", "slices-without-length"])
    def test_energy_refusal_names_path_and_reason(self, tmp_path, capsys,
                                                  text, reason):
        # json reads NaN and Infinity as floats, which Homotopy refuses;
        # a slice that is a number has no length to compare with n
        p = tmp_path / "bad.homotopy.json"
        p.write_text(text)
        assert main(["energy", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {p}: {reason}\n"

    @staticmethod
    def repeated_node(tmp_path):
        # a stored homotopy whose slice 1 repeats node 2 as node 3
        theta = 2 * np.pi * np.arange(8) / 8
        grid = np.repeat(np.stack([np.cos(theta), np.sin(theta)], 1)[None],
                         3, axis=0)
        grid[1, 3] = grid[1, 2]
        p = tmp_path / "repeated.homotopy.json"
        save_homotopy(Homotopy(grid), p)
        return p

    def test_energy_repeated_node_h2_exits_1(self, tmp_path, capsys):
        # a stored slice with a zero-length segment has no H2 norm at eps 0
        p = self.repeated_node(tmp_path)
        assert main(["energy", str(p), "--metric", "h2",
                     "--eps-schedule", "0"]) == 1
        assert capsys.readouterr().err == \
            f"error: {p}: immersion failure at slice 1, segment 2\n"

    @pytest.mark.parametrize("metric, eps", [("bv2", "0"), ("bv2", "0.01"),
                                             ("h2", "0.01")])
    def test_energy_repeated_node_exits_1_at_any_eps(self, tmp_path, capsys,
                                                     metric, eps):
        # where the kernels' values are finite too (or, for BV2 at eps 0,
        # inf), a slice that fails the immersion test is refused, with or
        # without a target, before any kernel runs
        p = self.repeated_node(tmp_path)
        tgt = write_curve_json(tmp_path / "tgt.json",
                               [[0, 0], [1, 0], [1, 1], [0, 1]])
        for extra in ([], ["--target", tgt]):
            assert main(["energy", str(p), "--metric", metric,
                         "--eps-schedule", eps] + extra) == 1
            assert capsys.readouterr().err == \
                f"error: {p}: immersion failure at slice 1, segment 2\n"

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{",
        b"[" * 100000 + b"]" * 100000,
        b'{"N": 2, "n": 3, "slices": [[[1' + b"0" * 400 + b', 0]]]}',
    ], ids=["not-utf8", "deep-nesting", "huge-int"])
    def test_unreadable_file_is_parse_error(self, tmp_path, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        with pytest.raises(ParseError, match="bad.json"):
            load_homotopy(p)

    @_PROPERTY
    @given(content=_HOMOTOPY_BYTES)
    def test_any_bytes_give_homotopy_or_parse_error(self, tmp_path, content):
        p = tmp_path / "h.json"
        p.write_bytes(content)
        try:
            h = load_homotopy(p)
        except ParseError:
            return
        assert isinstance(h, Homotopy)


    def test_energy_repeated_slices_key_exits_1(self, rng, tmp_path, capsys):
        h = Homotopy(smooth_homotopy(rng, 3, 8))
        p = tmp_path / "h.json"
        slices = json.dumps(h.grid.tolist())
        p.write_text(f'{{"N": 3, "n": 8, "slices": {slices}, '
                     f'"slices": {json.dumps((h.grid + 1).tolist())}}}')
        assert main(["energy", str(p)]) == 1
        assert capsys.readouterr().err == \
            f"error: {p}: repeated key 'slices'\n"


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("name,load", [
    ("c.json", load_curve), ("c.csv", load_curve),
    ("h.json", load_homotopy), ("run.cfg", load_config),
], ids=["curve-json", "curve-csv", "homotopy", "config"])
def test_unreadable_file_starts_with_path(tmp_path, name, load, case):
    # every input file is read by one function, whose every failure is a
    # ParseError that starts with the path and says why
    p = tmp_path / name
    if case == "directory":
        p.mkdir()
    elif case == "not-utf8":
        p.write_bytes(b"\xff")
    reason = {"missing": "No such file or directory",
              "directory": "Is a directory",
              "not-utf8": "byte 0: not UTF-8 text"}[case]
    with pytest.raises(ParseError) as err:
        load(p)
    assert str(err.value) == f"{p}: {reason}"


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
            normalize_to_unit_square = no
        """)
        assert cfg.metric.family == "h2"
        assert cfg.metric.weights == (2.0, 0.5, 1.0)
        assert (cfg.N, cfg.n) == (6, 32)
        assert (cfg.kernel.sigma, cfg.kernel.delta) == (0.4, 0.1)
        assert cfg.optimizer.eps_schedule == (1e-1, 1e-3)
        assert cfg.init == "linear"
        assert cfg.optimizer.max_iters == 77
        assert cfg.normalize_to_unit_square is False

    def test_unknown_key_rejected(self):
        # the line-search constants are no settings; kernel sets sigma and
        # delta, eps_schedule sets eps, and no run reads a seed
        for text in ("frobnicate = 3", "tau0 = 1", "shrink = 0.5",
                     "armijo = 1e-4", "sigma = 0.4", "delta = 0.05",
                     "eps = 0.01", "seed = 1"):
            with pytest.raises(ParseError, match="unknown key"):
                parse_config(text)

    def test_keys_are_the_settable_fields(self):
        # each config key sets one leaf field of RunConfig or of a section
        # (kernel and grid a pair), and every field but a section and
        # MetricSpec.eps, which comes from eps_schedule, has a key
        sections = {"metric", "kernel", "optimizer"}
        leaves = {f.name for f in fields(RunConfig)} - sections
        for name in sections:
            leaves |= {f.name for f in fields(getattr(RunConfig(), name))}
        keys = set(CONFIG_KEYS) - {"grid", "kernel"} | {"N", "n", "sigma",
                                                        "delta"}
        assert keys == leaves - {"eps"}

    def test_bad_value_types(self):
        with pytest.raises(ParseError):
            parse_config("weights = 1 2")
        with pytest.raises(ParseError):
            parse_config("normalize_to_unit_square = maybe")
        with pytest.raises(ParseError):
            parse_config("family = sobolev")
        with pytest.raises(ParseError):
            parse_config("no equals sign here")
        # integers are never truncated
        for text in ("exponent = 1.5", "grid = 10.7 256.9", "max_iters = 2.5",
                     "max_iters = inf"):
            with pytest.raises(ParseError, match="integers"):
                parse_config(text)
        assert parse_config("grid = 6.0 32").n == 32
        # non-finite values are refused where they are read
        for text in ("weights = nan 0 1", "kernel = inf 0.05",
                     "kernel = 0.5 inf", "grad_tol = nan",
                     "eps_schedule = 1e-1 nan"):
            with pytest.raises(ParseError, match="finite"):
                parse_config(text)
        with pytest.raises(ParseError, match="nonempty"):
            parse_config("eps_schedule =")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS) + ["N", "x"]),
                           st.one_of(st.text(), st.from_regex(
                               r"[-+0-9.,e ]{0,12}|nan|inf|true|bv2|h2|linear",
                               fullmatch=True))),
                 max_size=6).map(lambda kv: "\n".join(
                     f"{k} = {v}" for k, v in kv))))
    def test_any_text_gives_config_or_parse_error(self, text):
        try:
            cfg = parse_config(text)
        except ParseError:
            return
        assert isinstance(cfg, RunConfig)

    def test_invalid_combination_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_config("grid = 1 32")
        with pytest.raises(ParseError):
            parse_config("eps_schedule = 1e-3 1e-2")

    @pytest.mark.parametrize("line,key", [
        ("weights = ١,0,1", "weights"), ("max_iters = 1_0", "max_iters"),
        ("grid = 4 ٣٢", "grid"), ("grad_tol = ０.1", "grad_tol"),
        ("weights = 1\u00a00 1", "weights"),
    ], ids=["arabic-indic", "underscore", "arabic-indic-int", "fullwidth",
            "no-break-space"])
    def test_number_rule_of_config_and_flags(self, tmp_path, capsys, line,
                                             key):
        # float() reads "1_0" as 10 and "١" as 1; a number here is ASCII
        with pytest.raises(ParseError, match=f"config key '{key}': "):
            parse_config(line)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["check-grad", "--config", str(cfg)]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        if key == "weights":
            assert main(["check-grad", "--weights", "١,0,1"]) == 1
            assert capsys.readouterr().err.startswith(
                "error: config key 'weights': ")

    def test_path_with_nul_is_named(self, rng, tmp_path, capsys):
        # Path.read_text raises ValueError, not OSError, at a NUL character
        src = write_curve_json(tmp_path / "src.json",
                               fourier_curve(rng, 24).nodes)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"source = {src}\ntarget = a\0b\n")
        assert main(["match", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: a\0b: embedded null byte\n"

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.cfg")

    def test_load_config_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"max_iters = 3\n\xff\n")
        with pytest.raises(ParseError,
                           match=r"bad\.cfg: byte 14: not UTF-8 text"):
            load_config(path)


def _subparsers():
    return next(action for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestCli:
    def pair(self, rng, tmp_path):
        src = write_curve_json(tmp_path / "src.json",
                               fourier_curve(rng, 120).nodes)
        tgt = write_curve_json(tmp_path / "tgt.json",
                               fourier_curve(rng, 120).nodes)
        return src, tgt

    @pytest.mark.parametrize("kernel", ["1e300,0.05", "0.5,1e-200",
                                        "1.3e154,0.05", "0.5,1.5e-154"])
    def test_kernel_width_out_of_range_exits_1(self, rng, tmp_path, capsys,
                                               kernel):
        src, tgt = self.pair(rng, tmp_path)
        rc = main(["match", "--source", src, "--target", tgt,
                   "--kernel", kernel])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kernel", ["1e100,1e-100", "1e-100,1e100"])
    def test_kernel_width_range_ends_run(self, rng, tmp_path, capsys, kernel):
        # the match floor cubes both widths: at the ends of their range
        # geodesic and check-grad still run clean
        src, tgt = self.pair(rng, tmp_path)
        assert main(["geodesic", "--source", src, "--target", tgt,
                     "--out", str(tmp_path / "run"), "--grid", "4,24",
                     "--eps-schedule", "1e-2", "--kernel", kernel]) == 0
        assert main(["check-grad", "--kernel", kernel]) == 0
        assert capsys.readouterr().err == ""

    # arrays of 2.27 PiB (the constant init) and 7.1 PiB (the resampling's
    # arclength grid): above the 128 TiB of address space a Linux process
    # gets by default, so their allocation fails at once, touching no memory
    @pytest.mark.parametrize("grid", ["1e13,16", "4,1e15"])
    def test_grid_too_large_to_allocate_exits_1(self, rng, tmp_path, capsys,
                                                grid):
        src, tgt = self.pair(rng, tmp_path)
        rc = main(["geodesic", "--source", src, "--target", tgt,
                   "--out", str(tmp_path / "o"), "--grid", grid])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: Unable to allocate ")

    def test_missing_source_exits_1(self, tmp_path, capsys):
        rc = main(["match", "--source", str(tmp_path / "no.json"),
                   "--target", str(tmp_path / "no.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_energy_missing_file_message(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["energy", "missing.json"]) == 1
        assert capsys.readouterr().err == \
            "error: missing.json: No such file or directory\n"

    def test_geodesic_without_source_exits_1(self, rng, tmp_path, capsys):
        _, tgt = self.pair(rng, tmp_path)
        assert main(["geodesic", "--target", tgt]) == 1
        assert capsys.readouterr().err == "error: no source curve given\n"

    def test_non_immersed_input_exits_1(self, rng, tmp_path, capsys):
        # a repeated node: segment 1 has length 0
        src = write_curve_json(tmp_path / "bad.json",
                               [[0, 0], [1, 0], [1, 0], [0, 1]])
        _, tgt = self.pair(rng, tmp_path)
        assert main(["match", "--source", src, "--target", tgt]) == 1
        assert capsys.readouterr().err == \
            f"error: {src}: immersion failure at segment 1\n"

    def test_coincident_nodes_exit_1(self, rng, tmp_path, capsys):
        src = write_curve_json(tmp_path / "dot.json", [[1, 1]] * 3)
        _, tgt = self.pair(rng, tmp_path)
        assert main(["match", "--source", src, "--target", tgt]) == 1
        assert capsys.readouterr().err == "error: degenerate bounding box\n"

    def test_opposite_orientations_warn(self, rng, tmp_path, capsys):
        curve = fourier_curve(rng, 60).nodes
        src = write_curve_json(tmp_path / "ccw.json", curve)
        tgt = write_curve_json(tmp_path / "cw.json", curve[::-1])
        assert main(["match", "--source", src, "--target", tgt]) == 0
        captured = capsys.readouterr()
        assert float(captured.out) >= 0
        assert captured.err.startswith(
            "warning: source and target have opposite orientations")

    def test_geodesic_grad_tol_exits_0(self, rng, tmp_path, capsys):
        src, tgt = self.pair(rng, tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grad_tol = 0.9\ngrid = 4 24\n")
        rc = main(["geodesic", "--config", str(cfg), "--source", src,
                   "--target", tgt, "--out", str(tmp_path / "run")])
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith(
            "termination grad_tol")

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

    def test_paths_with_hash(self, rng, tmp_path, capsys):
        # a flag value is taken whole: '#' starts no comment there
        src = write_curve_json(tmp_path / "a#1.json",
                               fourier_curve(rng, 40).nodes)
        tgt = write_curve_json(tmp_path / "b#2.json",
                               fourier_curve(rng, 40).nodes)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iters = 3\n")
        assert main(["match", "--source", src, "--target", tgt]) == 0
        rc = main(["geodesic", "--config", str(cfg), "--source", src,
                   "--target", tgt, "--out", str(tmp_path / "run#2"),
                   "--grid", "3,24", "--eps-schedule", "1e-2"])
        assert rc == 0
        assert (tmp_path / "run#2.trace.csv").exists()
        assert not (tmp_path / "run.trace.csv").exists()

    def test_trace_csv_columns(self, rng, tmp_path):
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        rep = continuation(init_linear(src, tgt, 3), tgt, MetricSpec(),
                           KernelParams(),
                           OptimConfig(max_iters=4, eps_schedule=(1e-1, 1e-2)))
        path = tmp_path / "run.trace.csv"
        _write_trace(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(("iter",) + TRACE_COLUMNS)
        table = np.array([[float(x) for x in line.split(",")]
                          for line in lines[1:]])
        assert table[:, 0].tolist() == list(range(len(rep.rows)))
        views = {"eps": rep.eps_trace, "objective": rep.objective_trace,
                 "energy_part": rep.energy_trace,
                 "match_part": rep.match_trace,
                 "grad_norm": rep.grad_norm_trace, "step": rep.step_trace}
        for j, name in enumerate(TRACE_COLUMNS, start=1):
            assert table[:, j].tolist() == views[name]

    def test_geodesic_stalled_exits_0(self, rng, tmp_path, capsys):
        src, tgt = self.pair(rng, tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = h2\nexponent = 1\nmax_iters = 20\n"
                       "grid = 5 24\neps_schedule = 1e-2\n")
        rc = main(["geodesic", "--config", str(cfg), "--source", src,
                   "--target", tgt, "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "termination stalled" in capsys.readouterr().out

    def test_geodesic_trace_strictly_decreasing(self, rng, tmp_path):
        # the pair above: a step that Armijo accepts but that leaves the
        # objective where it was is a stall, not a trace row
        src, tgt = self.pair(rng, tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = h2\nexponent = 1\nmax_iters = 20\n"
                       "grid = 5 24\neps_schedule = 1e-2\n")
        main(["geodesic", "--config", str(cfg), "--source", src,
              "--target", tgt, "--out", str(tmp_path / "run")])
        with (tmp_path / "run.trace.csv").open() as fh:
            objective = [float(row["objective"]) for row in csv.DictReader(fh)]
        assert all(b < a for a, b in zip(objective, objective[1:]))

    def test_geodesic_non_finite_exits_2(self, rng, tmp_path, capsys,
                                         monkeypatch):
        src, tgt = self.pair(rng, tmp_path)
        monkeypatch.setattr(optimize, "match_gradient",
                            lambda a, b, params, kernel=None:
                            np.full_like(a.nodes, np.nan))
        rc = main(["geodesic", "--source", src, "--target", tgt,
                   "--grid", "3,24", "--out", str(tmp_path / "run")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "termination non_finite" in captured.out
        assert "not finite" in captured.err

    def test_geodesic_bv2_schedule_ending_at_zero_exits_1(
            self, rng, tmp_path, capsys, objective_calls):
        # refused before the eps = 0.1 stage runs, so no objective is
        # evaluated and no file is written
        src, tgt = self.pair(rng, tmp_path)
        rc = main(["geodesic", "--source", src, "--target", tgt,
                   "--grid", "4,40", "--eps-schedule", "0.1,0",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert objective_calls == []
        assert "BV2 gradient requires eps > 0" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_every_shared_flag_is_a_config_key(self):
        # _config_from_args keeps only the flags whose dest is a config key,
        # so a flag without one would be accepted and then ignored
        checked = []
        for name, parser in _subparsers().items():
            dests = {a.dest for a in parser._actions if a.option_strings}
            if "config" in dests:
                checked.append(name)
                assert dests - {"help", "config"} <= CONFIG_KEYS.keys(), name
        assert sorted(checked) == ["check-grad", "energy", "export-svg",
                                   "geodesic", "match"]

    def test_subcommand_flags_pinned(self):
        # each subcommand but resample declares --config and exactly the
        # flags that its command reads; no flag has argparse choices, as
        # every value is checked as its config line is
        metric = {"--metric", "--eps-schedule", "--weights", "--kernel"}
        want = {
            "geodesic": metric | {"--source", "--target", "--out", "--grid",
                                  "--init"},
            "energy": metric | {"--target"},
            "check-grad": metric,
            "match": {"--source", "--target", "--grid", "--kernel"},
            "export-svg": {"--target", "--out"},
        }
        got = {}
        for name, parser in _subparsers().items():
            options = {a.option_strings[-1]: a for a in parser._actions
                       if a.option_strings}
            assert all(a.choices is None for a in options.values()), name
            got[name] = options.keys() - {"--help", "--config"}
            assert ("--config" in options) == (name != "resample"), name
        assert got == dict(want, resample={"--source", "--out", "--nodes"})

    @pytest.mark.parametrize("argv", [
        ["check-grad", "--source", "nope.json"],
        ["match", "--source", "src.json", "--target", "tgt.json",
         "--metric", "h2"],
        ["export-svg", "h.json", "--kernel", "0.5,0.05"],
        ["geodesic", "--source", "src.json", "--target", "tgt.json",
         "--metric", "foo"],
        ["geodesic", "--source", "src.json", "--target", "tgt.json",
         "--init", "foo"],
        ["energy"],
    ])
    def test_usage_error_exits_1(self, rng, tmp_path, capsys, monkeypatch,
                                 argv):
        # an undeclared flag, a bad value or a missing operand: exit 1
        # (exit 2 is an optimization failure), a message, and no file
        monkeypatch.chdir(tmp_path)
        self.pair(rng, tmp_path)
        save_homotopy(Homotopy(smooth_homotopy(rng, 3, 12)), "h.json")
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: bvgeo")

    def test_geodesic_line_search_failure_exits_2(self, rng, tmp_path,
                                                  capsys, monkeypatch):
        # every trial refused: each stage ends at its first iteration, and
        # the run still writes its files
        src, tgt = self.pair(rng, tmp_path)
        monkeypatch.setattr(optimize.KernelMatch, "rejects",
                            lambda self, h, energy, bound: True)
        rc = main(["geodesic", "--source", src, "--target", tgt,
                   "--grid", "3,24", "--out", str(tmp_path / "run")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "termination line_search_failure" in captured.out
        assert "error: line search failed" in captured.err
        for suffix in (".homotopy.json", ".trace.csv", ".svg"):
            assert (tmp_path / f"run{suffix}").exists()

    def test_geodesic_failed_middle_stage_exits_2(self, rng, tmp_path,
                                                  capsys, monkeypatch):
        # every trial of stage 2 refused, stages 1 and 3 at max_iters: the
        # run reports stage 2's failure and writes its files
        src, tgt = self.pair(rng, tmp_path)
        rejects_, descend_ = optimize.KernelMatch.rejects, optimize.descend
        stages = []

        def descend(*args):
            stages.append(None)
            return descend_(*args)

        def rejects(self, h, energy, bound):
            return len(stages) == 2 or rejects_(self, h, energy, bound)

        monkeypatch.setattr(optimize, "descend", descend)
        monkeypatch.setattr(optimize.KernelMatch, "rejects", rejects)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iters = 5\ngrid = 4, 16\n")
        out = tmp_path / "run"
        rc = main(["geodesic", "--source", src, "--target", tgt,
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "termination line_search_failure" in captured.out
        assert "error: line search failed" in captured.err
        with out.with_suffix(".trace.csv").open() as fh:
            eps = [float(row["eps"]) for row in csv.DictReader(fh)]
        assert eps == [1e-1] * 6 + [1e-2] + [1e-3] * 6

    def test_energy_empty_eps_schedule_exits_1(self, rng, tmp_path, capsys):
        hp = tmp_path / "h.json"
        save_homotopy(Homotopy(smooth_homotopy(rng, 3, 12)), hp)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("eps_schedule =\n")
        assert main(["energy", str(hp), "--config", str(cfg)]) == 1
        assert "eps_schedule must be nonempty" in capsys.readouterr().err

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

    def test_check_grad_bv2_eps_zero_exits_1(self, capsys):
        # check-grad evaluates at the schedule's last eps, as geodesic's
        # last stage does, and the BV2 gradient needs it positive
        assert main(["check-grad", "--eps-schedule", "0"]) == 1
        assert "BV2 gradient requires eps > 0" in capsys.readouterr().err

    def test_resample(self, rng, tmp_path, capsys):
        src = write_curve_json(tmp_path / "c.json", fourier_curve(rng, 50).nodes)
        out = str(tmp_path / "r.json")
        rc = main(["resample", "--source", src, "--out", out, "--nodes", "64"])
        assert rc == 0
        c = load_curve(out)
        assert c.n == 64
        lens = c.chord_lengths
        assert lens.max() / lens.min() <= 1 + 1e-8

    def test_resample_csv_out_reads_back(self, rng, tmp_path, capsys):
        # --out c.csv writes CSV (repr floats), which match and load_curve
        # read back bitwise
        src = write_curve_json(tmp_path / "c.json", fourier_curve(rng, 50).nodes)
        out = tmp_path / "r.csv"
        assert main(["resample", "--source", src, "--out", str(out),
                     "--nodes", "40"]) == 0
        want = constant_speed_resample(load_curve(src), 40).nodes
        assert out.read_text() == "".join(f"{x!r},{y!r}\n"
                                          for x, y in want.tolist())
        assert load_curve(out).nodes.tobytes() == want.tobytes()
        assert main(["match", "--source", str(out), "--target", src]) == 0

    @pytest.mark.parametrize("nodes", ["1_0", "٦"])
    def test_resample_nodes_number_rule(self, rng, tmp_path, capsys, nodes):
        # int() reads "1_0" as 10 and "٦" as 6; --nodes follows io's rule
        src = write_curve_json(tmp_path / "c.json", fourier_curve(rng, 8).nodes)
        out = tmp_path / "r.json"
        assert main(["resample", "--source", src, "--out", str(out),
                     "--nodes", nodes]) == 1
        assert capsys.readouterr().err == \
            f"error: --nodes: not an ASCII number: {nodes!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("out,prefix", [
        ("run", "run"), ("run.v1", "run.v1"), ("run.svg", "run"),
        ("run.trace.csv", "run"), ("run.v1.homotopy.json", "run.v1"),
    ])
    def test_geodesic_out_is_a_file_prefix(self, rng, tmp_path, capsys, out,
                                           prefix):
        # out plus each suffix; an out that ends with one is its prefix
        src, tgt = self.pair(rng, tmp_path)
        (tmp_path / "run.cfg").write_text("max_iters = 1\ngrid = 3 24\n")
        assert main(["geodesic", "--source", src, "--target", tgt,
                     "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / out)]) == 0
        written = {p.name for p in tmp_path.iterdir()} - {"src.json",
                                                         "tgt.json", "run.cfg"}
        assert written == {prefix + ".homotopy.json", prefix + ".trace.csv",
                           prefix + ".svg"}

    @pytest.mark.parametrize("line,flags,path,reason", [
        ("out = .", [], ".", "not a file name"),
        ("out = ..", [], "..", "not a file name"),
        ("out = results/", [], "results/", "not a file name"),
        ("out = a\0b", [], "a\0b", "not a file name"),
        ("", ["--out", "nodir/run"], "nodir/run", "no such directory"),
        ("", ["--out", "d"], "d.svg", "Is a directory"),
    ], ids=["dot", "dot-dot", "trailing-slash", "nul", "no-parent",
            "directory"])
    def test_geodesic_bad_out_refused_before_work(
            self, rng, tmp_path, monkeypatch, capsys, line, flags, path,
            reason):
        src, tgt = self.pair(rng, tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.svg").mkdir()
        (tmp_path / "run.cfg").write_text(line + "\n")

        def no_run(*args):
            raise AssertionError("continuation called")
        monkeypatch.setattr(cli, "continuation", no_run)
        before = set(tmp_path.iterdir())
        assert main(["geodesic", "--source", src, "--target", tgt,
                     "--config", "run.cfg", *flags]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv,err", [
        (["export-svg", "h.json", "--out", "nodir/pic"],
         "nodir/pic: no such directory"),
        (["export-svg", "h.json", "--out", "d.svg"], "d.svg: Is a directory"),
        (["export-svg", "."], ".: not a file name"),
        (["resample", "--source", "c.json", "--out", "d.svg"],
         "d.svg: Is a directory"),
        (["resample", "--source", "c.json", "--out", "nodir/c.csv"],
         "nodir/c.csv: no such directory"),
        (["resample", "--source", "c.json", "--out", "c/"],
         "c/: not a file name"),
    ], ids=["svg-no-parent", "svg-directory", "svg-default-of-dot",
            "resample-directory", "resample-no-parent",
            "resample-trailing-slash"])
    def test_bad_out_refused_before_reading(self, tmp_path, monkeypatch,
                                            capsys, argv, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.svg").mkdir()

        def no_read(path):
            raise AssertionError(f"read {path}")
        monkeypatch.setattr(cli, "load_homotopy", no_read)
        monkeypatch.setattr(cli, "load_curve", no_read)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_flag_repairs_a_config_value(self, tmp_path, capsys):
        # the file's settings and the flags are checked once, together, so
        # a flag replaces a config value that would fail the check
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps_schedule = 1e-3 1e-2\n")
        assert main(["check-grad", "--config", str(cfg)]) == 1
        assert "eps_schedule" in capsys.readouterr().err
        assert main(["check-grad", "--config", str(cfg),
                     "--eps-schedule", "1e-2,1e-3"]) == 0

    def test_geodesic_non_immersed_initial_homotopy_exits_1(
            self, tmp_path, capsys):
        # the linear blend's middle slice of a square and a 4-node
        # back-and-forth curve repeats a node, where H2 at eps 0 has no
        # value; geodesic refuses it before the first stage
        src = write_curve_json(tmp_path / "square.json",
                               [[0, 0], [1, 0], [1, 1], [0, 1]])
        tgt = write_curve_json(tmp_path / "zigzag.json",
                               [[1, 0], [0, 0], [1, 0], [0, 0]])
        out = tmp_path / "run"
        assert main(["geodesic", "--source", src, "--target", tgt,
                     "--grid", "3,4", "--init", "linear", "--metric", "h2",
                     "--eps-schedule", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: initial homotopy: immersion failure at slice 1, segment 0\n"
        assert not out.with_suffix(".homotopy.json").exists()

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

    @pytest.mark.parametrize("config", ["", "out = bvgeo_out\n"],
                             ids=["unset", "set-to-bvgeo_out"])
    def test_export_svg_default_out(self, rng, tmp_path, monkeypatch,
                                    capsys, config):
        # unset, out is the homotopy's name with .svg; a config line that
        # sets it, to any value, is obeyed
        monkeypatch.chdir(tmp_path)
        save_homotopy(Homotopy(smooth_homotopy(rng, 3, 16)), "h.json")
        Path("run.cfg").write_text(config)
        assert main(["export-svg", "h.json", "--config", "run.cfg"]) == 0
        want = "bvgeo_out.svg" if config else "h.svg"
        assert capsys.readouterr().out == f"wrote {want}\n"
        assert [p.name for p in tmp_path.glob("*.svg")] == [want]

    def test_export_svg_target_outline(self, rng, tmp_path, monkeypatch,
                                       capsys):
        # --target adds its dashed outline; --out pic writes pic.svg
        monkeypatch.chdir(tmp_path)
        save_homotopy(Homotopy(smooth_homotopy(rng, 4, 24)), "h.json")
        write_curve_json(tmp_path / "t.json", fourier_curve(rng, 30).nodes)
        assert main(["export-svg", "h.json", "--target", "t.json",
                     "--out", "pic"]) == 0
        assert capsys.readouterr().out == "wrote pic.svg\n"
        text = Path("pic.svg").read_text()
        assert text.count("<polygon") == 6
        assert text.count('stroke-dasharray="6,4"') == 1

    def test_export_svg_coincident_nodes(self, tmp_path, capsys):
        # every node at one point: a zero span, drawn at span 1
        hp = tmp_path / "h.json"
        save_homotopy(Homotopy(np.full((3, 4, 2), 0.5)), hp)
        assert main(["export-svg", str(hp)]) == 0
        text = (tmp_path / "h.svg").read_text()
        assert text.startswith("<svg") and text.count("<polygon") == 4

    def test_svg_polyline_formats_as_numpy_scalars(self, rng):
        # Python floats from tolist() print as the np.float64 rows did
        nodes = smooth_homotopy(rng, 2, 40)[1]
        nodes[:3] = [[-0.0, 1e-12], [0.1234995, 0.0004999], [2.5e3, -7.0]]
        offset, scale, height = np.array([-0.3, 0.1]), 417.3, 512.0
        pts = (nodes - offset) * scale
        want = " ".join(f"{x:.3f},{height - y:.3f}" for x, y in pts)
        line = _polyline(nodes, scale, offset, height, 'stroke="#000"')
        assert line == (f'  <polygon points="{want}" fill="none" '
                        'stroke="#000"/>')

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

    def test_repeated_main_matches_fresh_processes(self, rng, tmp_path,
                                                    capsys):
        # main builds its parser once per process; consecutive calls that
        # mix subcommands and flags must print and exit as fresh processes
        src, tgt = self.pair(rng, tmp_path)
        hp = tmp_path / "h.json"
        save_homotopy(Homotopy(smooth_homotopy(rng, 4, 120)), hp)
        argvs = [
            ["energy", str(hp), "--metric", "h2"],
            ["energy", str(hp)],
            ["match", "--source", src, "--target", tgt,
             "--kernel", "0.3,0.04"],
            ["energy", str(hp), "--target", tgt, "--metric", "h2"],
            ["match", "--source", src, "--target", str(tmp_path / "no.json")],
            ["energy", str(hp), "--weights", "1,1,1", "--metric", "h2"],
            ["resample", "--source", src, "--out", str(tmp_path / "r.json"),
             "--nodes", "40"],
            ["match", "--source", src, "--target", tgt],
            ["energy", str(hp), "--weights", "1,1,1"],
        ]
        in_process = []
        for argv in argvs:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        fresh = [run_fresh(argv) for argv in argvs]
        assert in_process == [(p.returncode, p.stdout) for p in fresh]
        assert {code for code, _ in in_process} == {0, 1}
        # the flag changes the value, so a flag left over would show
        assert in_process[0][1] != in_process[1][1]
        assert in_process[2][1] != in_process[7][1]

    @pytest.mark.parametrize("family", ["bv2", "h2"])
    def test_energy_reproduces_geodesic_objective(self, tmp_path, capsys,
                                                  family):
        # energy on geodesic's own output, at the same defaults, prints the
        # last objective of the trace: both evaluate at eps_schedule[-1]
        theta = 2 * np.pi * np.arange(64) / 64
        ellipse = np.stack([0.3 * np.cos(theta), 0.15 * np.sin(theta)], 1)
        src = write_curve_json(tmp_path / "src.json", 0.5 + ellipse)
        tgt = write_curve_json(tmp_path / "tgt.json",
                               0.5 + ellipse[:, ::-1] * [-1, 1])
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iters = 5\n")
        assert main(["geodesic", "--config", str(cfg), "--source", src,
                     "--target", tgt, "--out", str(out), "--grid", "4,32",
                     "--init", "linear", "--metric", family]) == 0
        with out.with_suffix(".trace.csv").open() as fh:
            want = float(list(csv.DictReader(fh))[-1]["objective"])
        capsys.readouterr()
        assert main(["energy", str(out.with_suffix(".homotopy.json")),
                     "--target", tgt, "--metric", family]) == 0
        got = float(capsys.readouterr().out.split()[1])
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_readme_flags_table_is_the_parser(self):
        # README's command/flags table lists each configured command with
        # exactly the flags that it takes besides --config
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = {}
        for line in readme.splitlines():
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 2:
                table[cells[0]] = set(cells[1].split())
        assert table == {name: set(flags)
                         for name, (_, _, _, flags) in _CONFIGURED.items()}

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


class _FakeLibc:
    """A C library whose mallopt appends its arguments to log."""

    def __init__(self, log):
        def mallopt(param, value):
            log.append((param, value))
            return 1
        self.mallopt = mallopt


class TestRun:
    """cli.run, the ``bvgeo`` console entry point: main with malloc's mmap
    and trim thresholds fixed first."""

    def exits(self, monkeypatch, library):
        """run's exit code and log, with ctypes.CDLL returning library(log)
        and main logging "main" and returning 3; and the library."""
        import ctypes
        log, opened = [], []

        def cdll(name):
            opened.append(library(log))
            return opened[-1]
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(cli, "main", lambda: log.append("main") or 3)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        return exc.value.code, log, opened

    def test_sets_both_thresholds_then_runs_main(self, monkeypatch):
        import ctypes
        code, log, (libc,) = self.exits(monkeypatch, _FakeLibc)
        assert code == 3
        assert log == [(-3, 32 << 20), (-1, 1 << 30), "main"]
        assert libc.mallopt.argtypes == [ctypes.c_int, ctypes.c_int]
        assert libc.mallopt.restype is ctypes.c_int

    # OSError where the library is missing; TypeError where CDLL takes no
    # None for the process's own symbols, as on Windows
    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_no_library_still_runs_main(self, monkeypatch, error):
        def missing(log):
            raise error("no C library")
        assert self.exits(monkeypatch, missing)[:2] == (3, ["main"])

    def test_no_mallopt_still_runs_main(self, monkeypatch):
        assert self.exits(monkeypatch, lambda log: object())[:2] \
            == (3, ["main"])

    def test_main_makes_no_allocator_call(self, monkeypatch, capsys,
                                          tmp_path, rng):
        import ctypes
        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda *a: opened.append(a))
        src = write_curve_json(tmp_path / "a.json", fourier_curve(rng, 32).nodes)
        tgt = write_curve_json(tmp_path / "b.json", fourier_curve(rng, 40).nodes)
        assert main(["match", "--source", src, "--target", tgt]) == 0
        assert main(["--help"]) == 0
        assert opened == []

    def test_module_help_exits_0(self):
        done = run_fresh(["--help"])
        assert done.returncode == 0
        assert done.stdout.startswith("usage: bvgeo")
