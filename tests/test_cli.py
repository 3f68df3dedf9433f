"""CLI front end: config validation, exit codes, artifacts, determinism."""

import json
import os

import numpy as np
import pytest

from homapprox import ConvexBody, HomogeneousPoly, approximate_unity
from homapprox.cli import main, run
from homapprox.errors import ConfigError


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_unity_run_and_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, {"body": {"type": "disk"}, "n": 16})
    out = tmp_path / "out"
    rc = main(["unity", "--config", cfg, "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "unity.json").read_text())
    assert data["report"]["sup_error"] < 0.3
    csv = (out / "residuals.csv").read_text().splitlines()
    assert csv[0] == "theta,x,y,f,approx,abs_residual"
    assert len(csv) == 513
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "unity"
    assert set(manifest["outputs"]) == {"unity.json", "residuals.csv"}


def test_unity_rejects_odd_output_degree(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"body": {"type": "disk"}, "n": 7})
    rc = main(["unity", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "/n" in capsys.readouterr().err


def test_unity_rejects_removed_keys(tmp_path, capsys):
    # the unity config takes no eps or tau: they changed no output
    for key, value in (("tau", 1.0), ("eps", 0.0)):
        cfg = write_cfg(tmp_path, {"body": {"type": "disk"}, "n": 16, key: value})
        rc = main(["unity", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"/{key}" in capsys.readouterr().err


def test_unknown_key_pointer(tmp_path, capsys):
    # approx takes no samples key: its report sample count is fixed
    for sub, obj, key in (
            ("unity", {"bodyy": {"type": "disk"}, "n": 16}, "bodyy"),
            ("approx", {"body": {"type": "disk"}, "f": "x", "n": 8,
                        "samples": 100}, "samples")):
        cfg = write_cfg(tmp_path, obj)
        rc = main([sub, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"/{key}" in capsys.readouterr().err


@pytest.mark.parametrize("vertices, message", [
    ([[1, 1], [1, 1], [-1, 1], [-1, -1], [-1, -1], [1, -1]],
     "polygon repeats vertex (-1, -1)"),
    ([[1, 0], [2, 0], [0, 1], [-1, 0], [-2, 0], [0, -1]],
     "polygon vertices (1, 0) and (2, 0) lie on one ray from the origin"),
], ids=["repeated", "one-ray"])
def test_polygon_vertices_on_one_ray_are_config_error(tmp_path, capsys,
                                                      vertices, message):
    body = {"type": "polygon", "vertices": vertices}
    cfg = write_cfg(tmp_path, {"body": body, "f": "x", "n": 8})
    rc = main(["approx", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err and " at /body" in err


@pytest.mark.parametrize("body", [
    '{"type": "polygon", "vertices": [[1, 0], [-1, 0]]}',
    '{"type": "ellipse", "semi_axes": [2, 1, 1, 1]}',
    '{"type": "ellipse", "semi_axes": [2, 1, 1]}',
    '{"type": "ellipse", "semi_axes": [2, 1e400]}',
    '{"type": "disk", "radius": 0}',
    '{"type": "disk", "radius": -1}',
    '{"type": "disk", "dim": 3}',
    '{"type": "pnorm", "p": 1e400}',
    '{"type": "polygon", "vertices": [[2, 0], [0.5, 0.5], [0, 2], [-0.5, 0.5],'
    ' [-2, 0], [-0.5, -0.5], [0, -2], [0.5, -0.5]]}',
])
def test_malformed_body_is_config_error(tmp_path, capsys, body):
    # JSON reads 1e400 as inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"body": {body}, "f": "x", "n": 8}}')
    rc = main(["approx", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert " at /body" in capsys.readouterr().err


def test_equilibrium_run_and_lam_guard(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "weight": {"type": "body", "body": {"type": "disk"}}, "lam": 2.0})
    out = tmp_path / "eq"
    assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "equilibrium.json").read_text())
    assert data["mass"] == pytest.approx(1.0, abs=1e-6)
    assert data["identity_deviation"] < 1e-4
    assert data["support"][1] == pytest.approx(np.sqrt(3.0), rel=1e-8)
    # lam can be overridden on the command line; lam = 1 is a config error
    rc = main(["equilibrium", "--config", cfg, "--lam", "1.0",
               "--out", str(tmp_path / "eq2")])
    assert rc == 3
    assert "/lam" in capsys.readouterr().err


def test_wapprox_trivial_oracle_and_reload(tmp_path):
    cfg = write_cfg(tmp_path, {
        "body": {"type": "disk"}, "f": "1/(1+t^2)", "n_list": [2, 4]})
    out = tmp_path / "wa"
    assert main(["wapprox", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "wapprox.csv").read_text().splitlines()
    assert lines[0] == "n,sup_error"
    errs = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert errs[2] < 1e-12  # 1/(1+t^2) = W^2 exactly for the disk weight
    data = json.loads((out / "coefficients.json").read_text())
    a = np.array(data["coefficients"]["2"])
    assert np.max(np.abs(a - np.array([1.0, 0.0, 0.0]))) < 1e-10


def test_wapprox_unequal_limits_is_numeric_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "body": {"type": "disk"}, "f": "t/(1+abs(t))", "n_list": [4]})
    rc = main(["wapprox", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_wapprox_weight_body_exclusive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "body": {"type": "disk"}, "weight": {"type": "constant"},
        "f": "1/(1+t^2)", "n_list": [2]})
    assert main(["wapprox", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3


def test_approx_run(tmp_path):
    cfg = write_cfg(tmp_path, {
        "body": {"type": "ellipse", "semi_axes": [2, 1]},
        "f": "exp(x)*cos(y)", "n": 9})
    out = tmp_path / "ap"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "pair.json").read_text())
    assert data["route"] == "planar-potential"
    assert data["report"]["sup_error"] < 0.1
    # residual CSV agrees with the reported sup error up to sampling
    rows = (out / "residuals.csv").read_text().splitlines()[1:]
    worst = max(float(r.split(",")[-1]) for r in rows)
    assert worst <= data["report"]["sup_error"] * 1.0 + 1e-9
    # emitted coefficients reload into polynomials matching the CSV values
    he = HomogeneousPoly.from_json_obj(2, 8, data["h_even"])
    ho = HomogeneousPoly.from_json_obj(2, 9, data["h_odd"])
    pts = np.array([[float(r.split(",")[1]), float(r.split(",")[2])]
                    for r in rows])
    approx_col = np.array([float(r.split(",")[4]) for r in rows])
    scale = 1 + np.max(np.abs(approx_col))
    assert np.max(np.abs(he(pts) + ho(pts) - approx_col)) < 1e-10 * scale


def test_approx_geometric_route_run(tmp_path):
    """route "geometric" runs the Weierstrass-times-unity route, and its
    artifacts are byte-identical across reruns."""
    cfg = {"body": {"type": "disk"}, "f": "exp(x)", "n": 16,
           "route": "geometric"}
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["approx", "--config",
                     write_cfg(tmp_path, cfg, f"{tag}.json"),
                     "--out", str(out)]) == 0
        outs.append(out)
    data = json.loads((outs[0] / "pair.json").read_text())
    assert data["route"] == "geometric"
    assert data["report"]["weierstrass_degree"] >= 8
    for name in ("pair.json", "residuals.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_unity_on_radial_samples_body(tmp_path):
    """A radial-samples body from the config is the body radial_samples
    builds: its unity polynomial is the in-process one, coefficient for
    coefficient."""
    th = np.linspace(0, np.pi, 16, endpoint=False)
    r = 1 + 0.1 * np.cos(2 * th)
    cfg = write_cfg(tmp_path, {"body": {"type": "radial-samples",
                                        "angles": th.tolist(),
                                        "radii": r.tolist()}, "n": 16})
    out = tmp_path / "u"
    assert main(["unity", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "unity.json").read_text())
    hp = approximate_unity(ConvexBody.radial_samples(th, r), 8)
    assert data["polynomial"] == hp.to_json_obj()
    assert data["report"]["sup_error"] < 0.2


@pytest.mark.parametrize("weight, ok, rho", [
    ({"type": "power", "m": 2}, True, 1.0),
    ({"type": "expr", "w": "1/sqrt(1+t^2)"}, True, 1.0),
    ({"type": "expr", "w": "exp(-t^2)"}, False, 0.0),
], ids=["power-2", "expr-disk", "expr-gauss"])
def test_check_weight_of_power_and_expr_weights(tmp_path, weight, ok, rho):
    """The disk's weight (1 + t^2)^(-1/2), as the power family m = 2 or as
    an expression, passes both conditions with rho = 1; exp(-t^2), whose
    |t| W(t) vanishes at infinity, fails the second with rho = 0."""
    out = tmp_path / "cw"
    cfg = write_cfg(tmp_path, {"weight": weight})
    assert main(["check-weight", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "weight.json").read_text())
    assert (data["ok"], data["cond1_ok"], data["cond2_ok"]) == (ok, True, ok)
    assert data["rho"] == pytest.approx(rho, abs=1e-12)


def test_partition_diag_and_check_weight(tmp_path):
    cfg = write_cfg(tmp_path, {"d": 2, "h": 0.5, "samples": 2000})
    out = tmp_path / "pd"
    assert main(["partition-diag", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "partition.csv").read_text().splitlines()[1].split(",")
    assert float(row[3]) < 1e-12
    assert int(row[4]) <= 4

    cfg2 = write_cfg(tmp_path, {"weight": {"type": "constant"}}, "w.json")
    out2 = tmp_path / "cw"
    assert main(["check-weight", "--config", cfg2, "--out", str(out2)]) == 0
    data = json.loads((out2 / "weight.json").read_text())
    assert data["ok"] is False
    assert data["rho"] is None


@pytest.mark.parametrize("sub, obj, key", [
    ("unity", {"body": {"type": "disk"}, "n": 16, "h": 0}, "h"),
    ("unity", {"body": {"type": "disk"}, "n": 16, "h": 1.5}, "h"),
    ("partition-diag", {"d": 2, "h": 1.5}, "h"),
    ("partition-diag", {"d": 2, "h": 0.5, "samples": 0}, "samples"),
    ("partition-diag", {"d": 2, "h": 0.5, "samples": -3}, "samples"),
    ("equilibrium", {"weight": {"type": "body", "body": {"type": "disk"}},
                     "lam": 2.0, "grid": 0}, "grid"),
    ("equilibrium", {"weight": {"type": "body", "body": {"type": "disk"}},
                     "lam": 2.0, "grid": -5}, "grid"),
    ("wapprox", {"body": {"type": "disk"}, "f": "1/(1+t^2)", "n_list": []},
     "n_list"),
    ("wapprox", {"body": {"type": "disk"}, "f": "1/(1+t^2)",
                 "n_list": [4, 2, 4]}, "n_list/2"),
    ("approx", {"body": {"type": "disk"}, "f": "x", "n": 6,
                "route": "geometric"}, "n"),
    ("approx", {"body": {"type": "square"}, "f": "x", "n": 16,
                "route": "geometric"}, "route"),
    ("approx", {"body": {"type": "disk"}, "f": "x", "n": 9, "route": "auto"},
     "route"),
    ("approx", {"body": {"type": "disk"}, "f": "x", "n": 129}, "n"),
    ("wapprox", {"body": {"type": "disk"}, "f": "1/(1+t^2)",
                 "n_list": [2, 130]}, "n_list/1"),
    ("check-weight", {"weight": {"type": "power", "m": 0}}, "weight/m"),
    ("check-weight", {"weight": {"type": "expr", "w": "1/("}}, "weight/w"),
], ids=["unity-h-0", "unity-h-1.5", "partition-h-1.5", "samples-0",
        "samples-negative", "grid-0", "grid-negative", "n_list-empty",
        "n_list-repeated", "geometric-n-6", "geometric-square", "route-auto",
        "planar-n-above-cap", "n_list-above-cap", "power-m-0",
        "expr-w-unparsable"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, sub, obj, key):
    out = tmp_path / "o"
    rc = main([sub, "--config", write_cfg(tmp_path, obj), "--out", str(out)])
    assert rc == 3
    assert f" at /{key}:" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ConfigError):
        run("frobnicate", {}, out=str(tmp_path))


def test_byte_identical_reruns(tmp_path):
    cfg = {"body": {"type": "disk"}, "f": "abs(x)", "n": 9}
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["approx", "--config",
                     write_cfg(tmp_path, cfg, f"{tag}.json"),
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in ("pair.json", "residuals.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
